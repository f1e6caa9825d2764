package main

import (
	"strings"
	"testing"
	"time"

	"cronets/internal/netem"
)

// selfTestSpec is a small relay topology: relay 0 clean, relay 1 behind
// an access leg, direct slowed down.
var selfTestSpec = topoSpec{relays: 2, maxHops: 1, probeInterval: 5 * time.Second, accessDelay: relayAccessDelay}

// runSelfTest builds the topology with hk, waits for the designed route,
// and runs n request ops (churn's shape) per client.
func runSelfTest(t *testing.T, hk hooks, n int) (*tally, snap, snap) {
	t.Helper()
	pat := newPattern(1)
	top, err := build(selfTestSpec, pat, 1, hk)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close()
	if err := waitReady(top, "relay", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sessions := make([]*session, clients)
	for i := range sessions {
		sessions[i] = newSession(shapeRR, i, dialTCP(top.gwAddr), pat, 256, 4<<10)
		sessions[i].seed(1)
	}
	before := top.snapshot()
	tl := runN(sessions, n)
	after := top.snapshot()
	return tl, before, after
}

// checkAccounting asserts that exactly `want` ops failed and that no
// failed op became a latency or TTFB sample.
func checkAccounting(t *testing.T, tl *tally, want int64) {
	t.Helper()
	if tl.failed != want {
		t.Fatalf("failed ops = %d, want %d (errors: %s)", tl.failed, want, tl.firstErrors())
	}
	ok := tl.attempted - tl.failed
	if int64(len(tl.samples)) != ok || int64(len(ttfbs(tl.samples))) != ok {
		t.Fatalf("%d latency / %d TTFB samples for %d verified ops", len(tl.samples), len(ttfbs(tl.samples)), ok)
	}
	res := endToEnd(workloads["churn"], tl, nil, time.Second, time.Second)
	if res["ops_per_s"].Value != float64(ok) {
		t.Fatalf("ops_per_s counts %v ops, want the %d verified ones", res["ops_per_s"].Value, ok)
	}
}

// TestOracleCountsCorruptedReplies corrupts one reply byte in every 5th
// request at the destination: each such op must fail as wrong bytes.
func TestOracleCountsCorruptedReplies(t *testing.T) {
	tl, _, _ := runSelfTest(t, hooks{corruptEvery: 5}, 50)
	if tl.attempted != 2*50 {
		t.Fatalf("attempted %d ops, want 100", tl.attempted)
	}
	checkAccounting(t, tl, tl.attempted/5)
	for msg := range tl.errs {
		if !strings.Contains(msg, errWrongBytes.Error()) {
			t.Fatalf("corruption reported as %q, want %q", msg, errWrongBytes)
		}
	}
}

// TestOracleCountsKilledLegs kills the gateway→relay leg of a seeded
// quarter of connections mid-reply: each killed flow must fail.
func TestOracleCountsKilledLegs(t *testing.T) {
	plan := &netem.FaultPlan{Rules: []netem.FaultRule{{
		Conn: -1, Dir: netem.DirDown, AfterBytes: 2048, Probability: 0.25, Action: netem.FaultKill,
	}}}
	tl, before, after := runSelfTest(t, hooks{preferredFaults: plan}, 100)
	kills := int64(delta(before, after, "emu:cronets_netem_faults_total"))
	if kills == 0 {
		t.Fatal("no leg was killed; the self-test exercised nothing")
	}
	checkAccounting(t, tl, kills)
}

// TestRouteGuardFlagsForeignDials checks that a dial of another route
// kind, or a committed switch, invalidates the window.
func TestRouteGuardFlagsForeignDials(t *testing.T) {
	mk := func(vals map[string]float64) snap { return snap{vals: vals} }
	before := mk(map[string]float64{})
	pooled := `cronets_gateway_dials_total{path="relay_pooled"}`
	if err := routeGuard("relay", before, mk(map[string]float64{pooled: 10})); err != nil {
		t.Fatalf("relay window flagged: %v", err)
	}
	chainDials := mk(map[string]float64{pooled: 10, `cronets_gateway_dials_total{path="chain"}`: 1})
	if err := routeGuard("relay", before, chainDials); err == nil {
		t.Fatal("a chain dial in a relay window passed the guard")
	}
	switched := mk(map[string]float64{pooled: 10, "cronets_pathmon_switches_total": 1})
	if err := routeGuard("relay", before, switched); err == nil || !strings.Contains(err.Error(), "switch") {
		t.Fatalf("a committed switch passed the guard: %v", err)
	}
}
