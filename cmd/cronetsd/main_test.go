package main

import (
	"context"
	"log/slog"
	"net"
	"sort"
	"testing"

	"cronets/internal/gateway"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// recordHandler keeps every record it is handed.
type recordHandler struct{ records []slog.Record }

func (h *recordHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordHandler) WithGroup(string) slog.Handler            { return h }

func (h *recordHandler) Handle(_ context.Context, r slog.Record) error {
	h.records = append(h.records, r.Clone())
	return nil
}

// TestLogStatsMatchesRegistry: the summary line carries every counter and
// gauge of the registry snapshot, sorted by name and with the value
// /metrics serves, plus the gateway's best path — so the summary cannot
// drift from the exposition.
func TestLogStatsMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	pipe.InstrumentPool(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := relay.New(ln, relay.Config{Obs: reg})
	defer r.Close()
	gw, err := gateway.New(gateway.Config{Dest: "127.0.0.1:1", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	mon, err := pathmon.New(pathmon.Config{Dest: "127.0.0.1:1", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	reg.Counter("cronets_relay_accepted_total", "").Add(3)
	reg.Gauge("cronets_gateway_active", "").Set(2)

	h := &recordHandler{}
	logStats(slog.New(h), reg, mon, "stats")
	snap := reg.Snapshot()

	if len(h.records) != 1 {
		t.Fatalf("logged %d records, want 1", len(h.records))
	}
	var keys []string
	got := make(map[string]slog.Value)
	h.records[0].Attrs(func(a slog.Attr) bool {
		keys = append(keys, a.Key)
		got[a.Key] = a.Value
		return true
	})
	if len(keys) == 0 || keys[0] != "best_path" || got["best_path"].String() != "(none)" {
		t.Fatalf("summary must lead with best_path=(none) before any round, got keys %v", keys)
	}
	if !sort.StringsAreSorted(keys[1:]) {
		t.Errorf("summary metrics not sorted by name: %v", keys[1:])
	}
	want := 0
	for name, v := range snap {
		n, ok := v.(int64)
		if !ok {
			continue // histograms are not summarised
		}
		want++
		if gv, ok := got[name]; !ok || gv.Kind() != slog.KindInt64 || gv.Int64() != n {
			t.Errorf("summary %s = %v, registry has %d", name, gv, n)
		}
	}
	if len(keys)-1 != want {
		t.Errorf("summary has %d metrics, registry snapshot %d counters and gauges", len(keys)-1, want)
	}
	for _, name := range []string{"cronets_relay_accepted_total", "cronets_gateway_active", "cronets_pipe_pool_hits_total"} {
		if _, ok := got[name]; !ok {
			t.Errorf("summary lacks %s", name)
		}
	}
	if got["cronets_relay_accepted_total"].Int64() != 3 {
		t.Errorf("cronets_relay_accepted_total = %v, want 3", got["cronets_relay_accepted_total"])
	}
}
