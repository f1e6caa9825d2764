package main

// The traced run. Everything here reaches past the stable end-to-end
// surface (constructors, Config fields, Serve/Start/Close, registry
// metric names) into the layers' seams and exported calls, so it is kept
// in this one file: when a layer's API changes, only this file follows.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cronets/internal/chain"
	"cronets/internal/gateway"
	"cronets/internal/netem"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Flow   uint64 `json:"flow,omitempty"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"` // Dur minus the time its children cover
	Err    bool   `json:"err,omitempty"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 17

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	on      atomic.Bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) interval(start, end time.Time) (int64, int64) {
	return start.Sub(r.t0).Nanoseconds(), end.Sub(start).Nanoseconds()
}

// record adds a finished span.
func (r *recorder) record(name, tag string, flow uint64, parent int, start, end time.Time, failed bool) int {
	st, d := r.interval(start, end)
	return r.add(span{Name: name, Tag: tag, Flow: flow, Parent: parent, Start: st, Dur: d, Err: failed})
}

// flowKey carries a flow id through a ctx down to the seams it reaches.
type flowKey struct{}

func flowOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(flowKey{}).(uint64)
	return id
}

// timingDialer times every dial through the relay.Dialer seam, tagged by
// its caller. The conn is returned unwrapped: a wrapped conn would defeat
// any TCP-to-TCP splice and measure a different program.
type timingDialer struct {
	tag string
	d   relay.Dialer
	rec *recorder
}

func (td *timingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	if !td.rec.on.Load() {
		return td.d.DialContext(ctx, network, addr)
	}
	start := time.Now()
	c, err := td.d.DialContext(ctx, network, addr)
	td.rec.record("dial", td.tag, flowOf(ctx), -1, start, time.Now(), err != nil)
	return c, err
}

// timingRanker times every ranking read through the gateway's Ranker
// seam (the gateway's per-dial reads and its pool filler's).
type timingRanker struct {
	r   gateway.Ranker
	rec *recorder
}

func (tr *timingRanker) Best() (pathmon.Route, bool) {
	if !tr.rec.on.Load() {
		return tr.r.Best()
	}
	start := time.Now()
	r, ok := tr.r.Best()
	tr.rec.record("ranker.best", "", 0, -1, start, time.Now(), false)
	return r, ok
}

func (tr *timingRanker) Ranked() []pathmon.RouteStatus {
	if !tr.rec.on.Load() {
		return tr.r.Ranked()
	}
	start := time.Now()
	rs := tr.r.Ranked()
	tr.rec.record("ranker.ranked", "", 0, -1, start, time.Now(), false)
	return rs
}

func (tr *timingRanker) Subscribe() (<-chan struct{}, func()) { return tr.r.Subscribe() }

// fixedRoute is a Ranker that always names one route: the peel ladder's
// gateways, which must not depend on probes.
type fixedRoute struct{ r pathmon.Route }

func (f fixedRoute) Best() (pathmon.Route, bool) { return f.r, true }
func (f fixedRoute) Ranked() []pathmon.RouteStatus {
	return []pathmon.RouteStatus{{Route: f.r, Best: true}}
}
func (f fixedRoute) Subscribe() (<-chan struct{}, func()) { return nil, func() {} }

func tracedRun(w workload, seed int64, window time.Duration) (*result, error) {
	baseline := runtime.NumGoroutine()
	pat := newPattern(seed)
	rec := &recorder{t0: time.Now()}
	hk := hooks{
		wrapDialer: func(tag string, d relay.Dialer) relay.Dialer { return &timingDialer{tag: tag, d: d, rec: rec} },
		wrapRanker: func(r gateway.Ranker) gateway.Ranker { return &timingRanker{r: r, rec: rec} },
	}
	t, sessions, err := setup(w, pat, seed, hk)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	closeTopo := func() {
		for _, s := range sessions {
			s.close()
		}
		t.close()
	}

	// Phase A: the wrappers pass through; phase B: spans are recorded.
	// Their op p50s give the tracing overhead; runtime costs come from A.
	half := window / 2
	a := startWindow(t, 1, window)
	tlA := runWindow(w, sessions, seed, half, false)
	var memA runtime.MemStats
	runtime.ReadMemStats(&memA)
	rec.on.Store(true)
	tlB := runWindow(w, sessions, seed+1, half, true)
	rec.on.Store(false)
	after := t.snapshot()
	a.end()
	peak := a.peak.peak.Load()
	guard := routeGuard(w.kind, a.metrics, after)
	tl := &tally{}
	tl.merge(tlA)
	tl.merge(tlB)
	// Client spans: an even sample of at most maxClientOps ops, so the
	// seam spans of the same phase keep room under the span cap.
	const maxClientOps = 20000
	stride := (len(tlB.spans) + maxClientOps - 1) / maxClientOps
	for i, o := range tlB.spans {
		if i%stride != 0 {
			continue
		}
		root := rec.record("client.op", w.name, 0, -1, o.start, o.last, false)
		if !o.connected.IsZero() {
			rec.record("client.connect", "", 0, root, o.start, o.connected, false)
			rec.record("client.reply", "", 0, root, o.connected, o.last, false)
		}
	}

	m := layerMetrics(a.metrics, after, tl.attempted-tl.failed)
	opsA := float64(max(tlA.attempted-tlA.failed, 1))
	m["runtime.alloc_KB_per_op"] = metric{float64(memA.TotalAlloc-a.mem.TotalAlloc) / 1024 / opsA, "KB"}
	m["runtime.gc_per_1k_ops"] = metric{float64(memA.NumGC-a.mem.NumGC) * 1000 / opsA, "count"}
	m["runtime.goroutines_peak"] = metric{float64(peak), "count"}
	m["loadgen.late_ms_tail"] = metric{pct(tl.late, w.tailPct), "ms"}
	p50A, p50B := median(lats(tlA.samples)), median(lats(tlB.samples))
	m["trace.overhead_op_p50_pct"] = metric{(p50B - p50A) / p50A * 100, "%"}
	spanMetrics(rec, m)

	rec.on.Store(true)
	dc, dcErr := directCalls(t, w, rec)
	rec.on.Store(false)
	closeTopo()
	for k, v := range dc {
		m[k] = v
	}
	ladder, ladErr := peel(w, pat, seed)
	for k, v := range ladder {
		m[k] = v
	}
	leaked := leakedGoroutines(baseline, 2*time.Second)
	m["runtime.goroutines_leaked"] = metric{float64(leaked), "count"}
	if err := writeSpans(rec, w.name, seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}

	report(w, tl, guard, leaked)
	for _, e := range []error{dcErr, ladErr} {
		if e != nil {
			fmt.Printf("# %v\n", e)
		}
	}
	res := &result{Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
	res.Correct = tl.failed == 0 && guard == nil && dcErr == nil && ladErr == nil
	return res, nil
}

// layerMetrics reads the per-layer counters a window moved, by their
// registry metric names.
func layerMetrics(before, after snap, ops int64) map[string]metric {
	d := func(name string) float64 { return delta(before, after, name) }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	m := map[string]metric{}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	for k, v := range dialsByKind(before, after) {
		count("gateway.dials."+k, v)
	}
	count("gateway.fallbacks", d("cronets_gateway_fallbacks_total"))
	count("gateway.dial_failures", d("cronets_gateway_dial_failures_total"))
	count("pathmon.rounds", d("cronets_pathmon_rounds_total"))
	var probeFails float64
	for _, r := range []string{"dial", "reject", "timeout"} {
		probeFails += d(obs.Label("cronets_pathmon_probe_failures_total", "reason", r))
	}
	count("pathmon.probe_failures", probeFails)
	count("pathmon.switches", d("cronets_pathmon_switches_total"))
	m["connpool.hit_ratio"] = metric{ratio(d("cronets_connpool_hits_total"), d("cronets_connpool_misses_total")), "ratio"}
	count("connpool.expired", d("cronets_connpool_expired_total"))
	count("connpool.fill_errors", d("cronets_connpool_fill_errors_total"))
	for _, k := range []string{"accepted", "errors", "rejected", "overloaded", "dial_retries"} {
		count("relay."+k, d("cronets_relay_"+k+"_total"))
	}
	hb, ha := before.hists["cronets_relay_dial_latency_seconds"], after.hists["cronets_relay_dial_latency_seconds"]
	upstream := 0.0
	if n := ha.Count - hb.Count; n > 0 {
		upstream = (ha.Sum - hb.Sum) / float64(n) * 1000
	}
	m["relay.upstream_dial_ms"] = metric{upstream, "ms"}
	m["pipe.pool_hit_ratio"] = metric{ratio(d("cronets_pipe_pool_hits_total"), d("cronets_pipe_pool_misses_total")), "ratio"}
	count("pipe.pool_discards", d("cronets_pipe_pool_discards_total"))
	// The mean delay per shaped chunk: every leg has a fixed latency and
	// no jitter, and the histogram's buckets (2 ms, 5 ms, ...) are too
	// coarse to place a median between them.
	db, da := before.hists["emu:cronets_netem_added_delay_seconds"], after.hists["emu:cronets_netem_added_delay_seconds"]
	added := 0.0
	if n := da.Count - db.Count; n > 0 {
		added = (da.Sum - db.Sum) / float64(n) * 1000
	}
	m["netem.added_delay_ms"] = metric{added, "ms"}
	m["obs.events_per_op"] = metric{float64(after.events-before.events) / float64(max(ops, 1)), "count"}
	return m
}

// spanMetrics summarizes the seam spans of the traced phase.
func spanMetrics(rec *recorder, m map[string]metric) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	byKey := map[string][]float64{}
	for _, s := range rec.spans {
		switch s.Name {
		case "ranker.best", "ranker.ranked":
			byKey["pathmon.table_read_us"] = append(byKey["pathmon.table_read_us"], float64(s.Dur)/1e3)
		case "dial":
			k := "seam.dial_us." + s.Tag
			byKey[k] = append(byKey[k], float64(s.Dur)/1e3)
		}
	}
	for _, k := range []string{"pathmon.table_read_us", "seam.dial_us.gateway", "seam.dial_us.relay", "seam.dial_us.pathmon"} {
		m[k] = metric{median(byKey[k]), "us"}
	}
}

// callTimer accumulates one direct call's wall time, process CPU and
// process allocations.
type callTimer struct {
	wall   []float64 // µs per successful call
	cpu    time.Duration
	allocs uint64
	n      int
	errs   int
	err    error
}

func (ct *callTimer) time(fn func() error) {
	a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
	err := fn()
	wall := time.Since(t0)
	ct.cpu += cpuTime() - c0
	ct.allocs += heapAllocs() - a0
	ct.n++
	if err != nil {
		ct.errs++
		ct.err = err
		return
	}
	ct.wall = append(ct.wall, float64(wall)/float64(time.Microsecond))
}

func (ct *callTimer) allocsPerCall() float64 { return float64(ct.allocs) / float64(max(ct.n, 1)) }

// repeat runs fn up to n times within budget.
func repeat(n int, budget time.Duration, fn func()) {
	deadline := time.Now().Add(budget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		fn()
	}
}

// directCalls times calls into each layer's exported functions on the
// live topology, with wall time, process CPU and allocations.
func directCalls(t *topo, w workload, rec *recorder) (map[string]metric, error) {
	m := map[string]metric{}
	ctx := context.Background()
	dialer := t.gwDialer
	if dialer == nil {
		dialer = &net.Dialer{}
	}
	dest := t.dest.addr()
	// The designed route's relays, cycled to 3 hops.
	hopsCycle := []string{t.fleet[0], t.fleet[0], t.fleet[0]}
	if w.kind == "chain" {
		hopsCycle = []string{t.fleet[0], t.fleet[1], t.fleet[0]}
	}
	var failures []string
	note := func(name string, ct *callTimer) {
		if ct.errs > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d of %d failed: %v", name, ct.errs, ct.n, ct.err))
		}
	}
	var flow uint64

	var gwDial callTimer
	pool := t.gw.Pool()
	repeat(300, time.Second, func() {
		if pool.TotalIdle() == 0 {
			pool.Fill()
		}
		flow++
		id := flow
		start := time.Now()
		gwDial.time(func() error {
			c, _, err := t.gw.Dial(context.WithValue(ctx, flowKey{}, id))
			if err == nil {
				_ = c.Close()
			}
			return err
		})
		rec.record("gateway.Dial", "", id, -1, start, time.Now(), false)
	})
	note("gateway.Dial", &gwDial)
	m["gateway.dial_us_p50"] = metric{median(gwDial.wall), "us"}
	m["gateway.dial_us_tail"] = metric{pct(gwDial.wall, 90), "us"}
	m["gateway.dial_allocs"] = metric{gwDial.allocsPerCall(), "count"}

	for hops := 1; hops <= 3; hops++ {
		var ct callTimer
		repeat(200, 400*time.Millisecond, func() {
			flow++
			id := flow
			ct.time(func() error {
				c, err := chain.Dial(context.WithValue(ctx, flowKey{}, id), hopsCycle[:hops], dest, chain.Options{Dialer: dialer})
				if err == nil {
					_ = c.Close()
				}
				return err
			})
		})
		note(fmt.Sprintf("chain.Dial %d hop(s)", hops), &ct)
		m[fmt.Sprintf("chain.dial_us.hops%d", hops)] = metric{median(ct.wall), "us"}
		m[fmt.Sprintf("chain.dial_allocs.hops%d", hops)] = metric{ct.allocsPerCall(), "count"}
	}

	var connect callTimer
	repeat(200, 400*time.Millisecond, func() {
		warm, err := dialer.DialContext(ctx, "tcp", t.fleet[0])
		if err != nil {
			connect.n++
			connect.errs++
			connect.err = err
			return
		}
		connect.time(func() error {
			c, err := relay.Connect(ctx, warm, dest)
			if err == nil {
				_ = c.Close()
			}
			return err
		})
	})
	note("relay.Connect", &connect)
	m["relay.connect_us"] = metric{median(connect.wall), "us"}

	var get, fill callTimer
	first := hopsCycle[0]
	repeat(100, 400*time.Millisecond, func() {
		if pool.TotalIdle() == 0 {
			pool.Fill()
		}
		get.time(func() error {
			c, ok := pool.Get(first)
			if !ok {
				return fmt.Errorf("pool miss on %s", first)
			}
			return c.Close()
		})
		fill.time(func() error { pool.Fill(); return nil })
	})
	note("connpool.Pool.Get", &get)
	m["connpool.get_us"] = metric{median(get.wall), "us"}
	m["connpool.fill_ms"] = metric{median(fill.wall) / 1000, "ms"}

	var round callTimer
	repeat(3, 3*time.Second, func() {
		round.time(func() error { t.mon.ProbeRound(ctx); return nil })
	})
	m["pathmon.probe_round_ms"] = metric{median(round.wall) / 1000, "ms"}
	m["pathmon.probe_round_cpu_ms"] = metric{float64(round.cpu.Microseconds()) / 1000 / float64(max(round.n, 1)), "ms"}

	var ranked callTimer
	const reads = 1000
	ranked.time(func() error {
		for i := 0; i < reads; i++ {
			t.mon.Best()
			t.mon.Ranked()
		}
		return nil
	})
	m["pathmon.table_read_allocs"] = metric{float64(ranked.allocs) / (2 * reads), "count"}

	mbps, nsPerB, err := pipeForward(t.pat, 64<<20)
	if err != nil {
		failures = append(failures, "pipe.Bidirectional: "+err.Error())
	}
	m["pipe.fwd_MBps"] = metric{mbps, "MB/s"}
	m["pipe.fwd_cpu_ns_per_byte"] = metric{nsPerB, "ns/B"}
	if len(failures) > 0 {
		return m, fmt.Errorf("direct calls: %v", failures)
	}
	return m, nil
}

// pipeForward pushes n bytes each way through a benchmark-owned
// forwarder running pipe.Bidirectional between two loopback TCP pairs.
func pipeForward(pat *pattern, n int64) (mbps, nsPerByte float64, err error) {
	pair := func() (client, server net.Conn, err error) {
		ln, err := listen()
		if err != nil {
			return nil, nil, err
		}
		defer ln.Close()
		client, err = net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		server, err = ln.Accept()
		if err != nil {
			_ = client.Close()
			return nil, nil, err
		}
		return client, server, nil
	}
	ca, fa, err := pair()
	if err != nil {
		return 0, 0, err
	}
	defer ca.Close()
	defer fa.Close()
	cb, fb, err := pair()
	if err != nil {
		return 0, 0, err
	}
	defer cb.Close()
	defer fb.Close()

	c0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = pipe.Bidirectional(context.Background(), fa, fb, pipe.Options{BufferBytes: bufferBytes})
	}()
	got := make([]int64, 2)
	errs := make([]error, 4)
	ends := []net.Conn{ca, cb}
	for i, c := range ends {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, errs[i] = pat.write(c, uint64(i)<<20, n, false); errs[i] == nil {
				errs[i] = c.(*net.TCPConn).CloseWrite()
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, bufferBytes)
			for {
				k, err := c.Read(buf)
				got[i] += int64(k)
				if err != nil {
					if !errors.Is(err, io.EOF) {
						errs[2+i] = err
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed, cpu := time.Since(t0), cpuTime()-c0
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	if got[0] != n || got[1] != n {
		return 0, 0, fmt.Errorf("forwarded %d and %d of %d bytes", got[0], got[1], n)
	}
	total := float64(2 * n)
	return total / elapsed.Seconds() / 1e6, float64(cpu.Nanoseconds()) / total, nil
}

// ladder is the peel ladder's clean loopback topology: each rung adds one
// layer to the flow.
type ladder struct {
	dest     *destServer
	fwd      net.Listener
	relays   []*relay.Relay
	np       *netem.Proxy
	gws      []*gateway.Gateway
	gwAddrs  []string
	wg       sync.WaitGroup
	fwdConns sync.WaitGroup
}

func (l *ladder) spawn(fn func()) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		fn()
	}()
}

func (l *ladder) close() {
	for _, g := range l.gws {
		_ = g.Close()
	}
	if l.np != nil {
		_ = l.np.Close()
	}
	for _, r := range l.relays {
		_ = r.Close()
	}
	if l.fwd != nil {
		_ = l.fwd.Close()
	}
	if l.dest != nil {
		l.dest.close()
	}
	l.wg.Wait()
	l.fwdConns.Wait()
}

func buildLadder(pat *pattern) (_ *ladder, err error) {
	l := &ladder{}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	l.dest = newDest(ln, pat)
	l.spawn(l.dest.serve)
	dest := l.dest.addr()

	// The "+ pipe" rung: a bare forwarder running pipe.Bidirectional.
	if l.fwd, err = listen(); err != nil {
		return nil, err
	}
	l.spawn(func() {
		for {
			c, err := l.fwd.Accept()
			if err != nil {
				return
			}
			l.fwdConns.Add(1)
			go func() {
				defer l.fwdConns.Done()
				defer c.Close()
				up, err := net.Dial("tcp", dest)
				if err != nil {
					return
				}
				defer up.Close()
				_, _ = pipe.Bidirectional(context.Background(), c, up, pipe.Options{BufferBytes: bufferBytes, IdleTimeout: idleTimeout})
			}()
		}
	})
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		r := relay.New(ln, relay.Config{IdleTimeout: idleTimeout, MaxConns: 1024, BufferBytes: bufferBytes,
			Obs: obs.NewRegistry(), DialRetries: 2, DialRetryBackoff: 50 * time.Millisecond})
		l.relays = append(l.relays, r)
		l.spawn(func() { _ = r.Serve() })
		addrs = append(addrs, r.Addr().String())
	}
	if ln, err = listen(); err != nil {
		return nil, err
	}
	l.np = netem.New(ln, addrs[0], netem.Config{Obs: obs.NewRegistry()})
	l.spawn(func() { _ = l.np.Serve() })
	for _, hops := range [][]string{{addrs[0]}, {addrs[0], addrs[1]}, {l.np.Addr().String()}} {
		g, err := gateway.New(gateway.Config{
			Dest:        dest,
			Monitor:     fixedRoute{pathmon.MakeRoute(hops...)},
			IdleTimeout: idleTimeout,
			BufferBytes: bufferBytes,
			Obs:         obs.NewRegistry(),
			PoolSize:    poolSize,
			PoolIdleTTL: poolIdleTTL,
			PoolRelays:  poolRelays,
		})
		if err != nil {
			return nil, err
		}
		ln, err := listen()
		if err != nil {
			_ = g.Close()
			return nil, err
		}
		l.gws = append(l.gws, g)
		l.gwAddrs = append(l.gwAddrs, ln.Addr().String())
		l.spawn(func() { _ = g.Serve(ln) })
	}
	return l, nil
}

// peel rebuilds the workload's flow one layer at a time on a clean
// loopback topology and reports process CPU per op and per payload byte
// at each rung: raw TCP, + pipe, + relay, + gateway.Dial, + gateway
// listener, + second hop, and the gateway listener with a netem
// passthrough leg. The delta between adjacent rungs is one layer's cost.
func peel(w workload, pat *pattern, seed int64) (map[string]metric, error) {
	l, err := buildLadder(pat)
	if err != nil {
		return nil, err
	}
	defer l.close()
	dest := l.dest.addr()
	g1 := l.gws[0]
	rungs := []struct {
		name string
		dial dialFunc
	}{
		{"tcp", dialTCP(dest)},
		{"pipe", dialTCP(l.fwd.Addr().String())},
		{"relay", func(ctx context.Context) (net.Conn, error) {
			return chain.Dial(ctx, []string{l.relays[0].Addr().String()}, dest, chain.Options{})
		}},
		{"gateway_dial", func(ctx context.Context) (net.Conn, error) {
			c, _, err := g1.Dial(ctx)
			return c, err
		}},
		{"gateway_serve", dialTCP(l.gwAddrs[0])},
		{"hop2", dialTCP(l.gwAddrs[1])},
		{"netem", dialTCP(l.gwAddrs[2])},
	}
	rungTime, warmOps := 500*time.Millisecond, 50
	if w.shape == shapeBulk {
		rungTime, warmOps = 1500*time.Millisecond, 1
	}
	m := map[string]metric{}
	var failures []string
	for _, r := range rungs {
		sessions := make([]*session, clients)
		for i := range sessions {
			sessions[i] = newSession(w.shape, i, r.dial, pat, w.reqLen, w.respLen)
			sessions[i].seed(seed)
		}
		warm := runN(sessions, warmOps)
		c0 := cpuTime()
		tl := closedLoop(sessions, time.Now().Add(rungTime), false, 0)
		cpu := cpuTime() - c0
		for _, s := range sessions {
			s.close()
		}
		if tl.failed+warm.failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d failed: %s", r.name, tl.failed+warm.failed, tl.firstErrors()+warm.firstErrors()))
		}
		ok := float64(max(tl.attempted-tl.failed, 1))
		m["peel."+r.name+".cpu_us_per_op"] = metric{float64(cpu.Microseconds()) / ok, "us"}
		m["peel."+r.name+".cpu_ns_per_byte"] = metric{float64(cpu.Nanoseconds()) / float64(max(payload(tl.samples), 1)), "ns/B"}
	}
	if len(failures) > 0 {
		return m, fmt.Errorf("peel ladder: %v", failures)
	}
	return m, nil
}

// writeSpans computes each span's self time and writes the trace as JSON
// lines under .bench_build/traces in the working directory.
func writeSpans(rec *recorder, name string, seed int64) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	spans := rec.spans
	// Children by explicit parent, and seam spans under the root span of
	// the flow id they carried.
	rootOfFlow := map[uint64]int{}
	for i, s := range spans {
		if s.Parent < 0 && s.Flow != 0 && s.Name != "dial" {
			rootOfFlow[s.Flow] = i
		}
	}
	children := map[int][][2]int64{}
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 && s.Name == "dial" {
			if r, ok := rootOfFlow[s.Flow]; ok && s.Flow != 0 {
				s.Parent = r
			}
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.Start + s.Dur})
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].Dur - covered(children[i], spans[i].Start, spans[i].Start+spans[i].Dur)
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if rec.dropped > 0 {
		fmt.Printf("# trace: %d spans kept, %d dropped past the in-memory cap\n", len(spans), rec.dropped)
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}
