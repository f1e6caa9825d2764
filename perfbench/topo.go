package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"cronets/internal/gateway"
	"cronets/internal/measure"
	"cronets/internal/netem"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// The overlay is configured as cmd/cronetsd configures it: one obs
// registry per node, pipe.InstrumentPool on the gateway's, 256 KiB
// buffers, the warm pool on, the latency objective, tracing off.
const (
	bufferBytes  = 256 << 10
	idleTimeout  = 5 * time.Minute
	poolSize     = 4
	poolRelays   = 2
	poolIdleTTL  = time.Minute
	switchMargin = 0.1
	switchRounds = 3
)

// topoSpec is the emulated network of one workload.
type topoSpec struct {
	relays        int
	maxHops       int
	probeInterval time.Duration
	// accessDelay is the one-way netem delay in front of every relay but
	// relay 0, and on the client's direct path (relay workloads).
	accessDelay time.Duration
	// wan replaces the access legs with per-node link tables and
	// emulated TCP handshakes (see build).
	wan bool
}

// hooks are the benchmark's seams into a topology: the traced run's
// timing wrappers and the oracle self-test's faults. The zero value is
// the untraced benchmark.
type hooks struct {
	// wrapDialer wraps the relay.Dialer handed to a node; tag names the
	// caller ("gateway", "pathmon", "relay").
	wrapDialer func(tag string, d relay.Dialer) relay.Dialer
	// wrapRanker wraps the ranking the gateway reads.
	wrapRanker func(r gateway.Ranker) gateway.Ranker
	// corruptEvery makes the destination flip a reply byte of every Nth
	// request op.
	corruptEvery int64
	// preferredFaults, when set, puts relay 0 behind a zero-delay netem
	// proxy carrying this fault plan.
	preferredFaults *netem.FaultPlan
}

// topo is one running overlay: destination, probe target, relays, netem
// legs, pathmon and the gateway listener, all in this process.
type topo struct {
	pat *pattern

	reg       *obs.Registry   // gateway + pathmon + pipe pool
	relayRegs []*obs.Registry // one per relay, as separate daemons have
	emuReg    *obs.Registry   // the emulator (netem legs)

	dest    *destServer
	probe   *measure.Server
	relays  []*relay.Relay
	proxies []*netem.Proxy
	fleet   []string // relay CONNECT endpoints as the fleet lists them
	mon     *pathmon.Monitor
	gw      *gateway.Gateway
	gwAddr  string
	// gwDialer is the dialer the gateway side was handed (nil = default).
	gwDialer relay.Dialer

	wg sync.WaitGroup // Serve loops
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve runs a component's accept loop under the topology's wait group.
func (t *topo) serve(fn func()) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		fn()
	}()
}

// proxy starts a netem leg toward target with the given one-way delay.
// Its 256 KiB shaping chunk passes a whole reply in one delayed chunk
// where the socket delivers it so, rather than delaying every 16 KiB
// piece in series.
func (t *topo) proxy(target string, oneWay time.Duration, faults netem.FaultPlan, seed int64) (string, error) {
	ln, err := listen()
	if err != nil {
		return "", err
	}
	imp := netem.Impairment{Latency: oneWay}
	p := netem.New(ln, target, netem.Config{Up: imp, Down: imp, ChunkBytes: 256 << 10, Seed: seed, Faults: faults, Obs: t.emuReg})
	t.proxies = append(t.proxies, p)
	t.serve(func() { _ = p.Serve() })
	return p.Addr().String(), nil
}

// netView is one node's view of the emulated network: a dial to an
// address with an emulated link goes to that link's netem proxy, after
// the link's TCP-handshake round trip (netem delays data, not SYNs). The
// conn is returned unwrapped.
type netView struct {
	d     net.Dialer
	links map[string]netLink
}

type netLink struct {
	proxy     string
	handshake time.Duration
}

func (v *netView) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	if l, ok := v.links[addr]; ok {
		if l.handshake > 0 {
			tm := time.NewTimer(l.handshake)
			select {
			case <-tm.C:
			case <-ctx.Done():
				tm.Stop()
				return nil, ctx.Err()
			}
		}
		addr = l.proxy
	}
	return v.d.DialContext(ctx, network, addr)
}

// link adds an emulated leg from the view's node to addr.
func (t *topo) link(v *netView, addr string, oneWay time.Duration, handshake bool, seed int64) error {
	p, err := t.proxy(addr, oneWay, netem.FaultPlan{}, seed)
	if err != nil {
		return err
	}
	l := netLink{proxy: p}
	if handshake {
		l.handshake = 2 * oneWay
	}
	v.links[addr] = l
	return nil
}

// WAN one-way delays: gw→A→B→dest is the only route made of short legs.
// Direct and single-relay routes each cross a long leg, several times the
// switch margin slower than the chain.
const (
	wanShort = 4 * time.Millisecond
	wanLong  = 20 * time.Millisecond
)

// build starts a topology and returns once every listener is serving.
// It does not wait for the control plane (see setup).
func build(spec topoSpec, pat *pattern, seed int64, hk hooks) (_ *topo, err error) {
	t := &topo{pat: pat, reg: obs.NewRegistry(), emuReg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	pipe.InstrumentPool(t.reg)

	ln, err := listen()
	if err != nil {
		return nil, err
	}
	t.dest = newDest(ln, pat)
	t.dest.corruptEvery = hk.corruptEvery
	t.serve(t.dest.serve)
	if ln, err = listen(); err != nil {
		return nil, err
	}
	t.probe = measure.NewServer(ln)
	t.serve(func() { _ = t.probe.Serve() })
	dest, probe := t.dest.addr(), t.probe.Addr().String()

	// Relay listeners first: the link tables need their addresses.
	lns := make([]net.Listener, spec.relays)
	addrs := make([]string, spec.relays)
	for i := range lns {
		if lns[i], err = listen(); err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		addrs[i] = lns[i].Addr().String()
	}
	gwView := &netView{links: map[string]netLink{}}
	relayViews := make([]*netView, spec.relays)
	for i := range relayViews {
		relayViews[i] = &netView{links: map[string]netLink{}}
	}
	s := seed * 1000
	next := func() int64 { s++; return s }
	if spec.wan {
		a, b := addrs[0], addrs[1]
		legs := []struct {
			v      *netView
			addr   string
			oneWay time.Duration
		}{
			{gwView, dest, wanLong}, {gwView, probe, wanLong},
			{gwView, a, wanShort}, {gwView, b, wanLong},
			{relayViews[0], dest, wanLong}, {relayViews[0], probe, wanLong}, {relayViews[0], b, wanShort},
			{relayViews[1], dest, wanShort}, {relayViews[1], probe, wanShort}, {relayViews[1], a, wanLong},
		}
		for _, l := range legs {
			if err := t.link(l.v, l.addr, l.oneWay, true, next()); err != nil {
				closeAll(lns)
				return nil, err
			}
		}
		t.fleet = addrs
	} else {
		for _, d := range []string{dest, probe} {
			if err := t.link(gwView, d, spec.accessDelay, false, next()); err != nil {
				closeAll(lns)
				return nil, err
			}
		}
		t.fleet = make([]string, spec.relays)
		for i, a := range addrs {
			t.fleet[i] = a
			if i == 0 && hk.preferredFaults != nil {
				t.fleet[i], err = t.proxy(a, 0, *hk.preferredFaults, next())
			} else if i > 0 {
				t.fleet[i], err = t.proxy(a, spec.accessDelay, netem.FaultPlan{}, next())
			}
			if err != nil {
				closeAll(lns)
				return nil, err
			}
		}
	}

	dialer := func(tag string, v *netView) relay.Dialer {
		var d relay.Dialer
		if len(v.links) > 0 {
			d = v
		}
		if hk.wrapDialer != nil {
			if d == nil {
				d = &net.Dialer{}
			}
			d = hk.wrapDialer(tag, d)
		}
		return d
	}
	for i, l := range lns {
		reg := obs.NewRegistry()
		r := relay.New(l, relay.Config{
			IdleTimeout:      idleTimeout,
			MaxConns:         1024,
			BufferBytes:      bufferBytes,
			Obs:              reg,
			DialRetries:      2,
			DialRetryBackoff: 50 * time.Millisecond,
			Dialer:           dialer("relay", relayViews[i]),
		})
		t.relays = append(t.relays, r)
		t.relayRegs = append(t.relayRegs, reg)
		t.serve(func() { _ = r.Serve() })
	}

	t.gwDialer = dialer("gateway", gwView)
	t.mon, err = pathmon.New(pathmon.Config{
		Dest:            probe,
		Fleet:           t.fleet,
		Interval:        spec.probeInterval,
		Objective:       pathmon.ObjectiveLatency,
		BurstEvery:      1,
		SwitchMargin:    switchMargin,
		SwitchRounds:    switchRounds,
		MaxHops:         spec.maxHops,
		ChainCandidates: 3,
		Obs:             t.reg,
		Dialer:          dialer("pathmon", gwView),
	})
	if err != nil {
		return nil, err
	}
	var ranker gateway.Ranker = t.mon
	if hk.wrapRanker != nil {
		ranker = hk.wrapRanker(ranker)
	}
	t.gw, err = gateway.New(gateway.Config{
		Dest:        dest,
		Monitor:     ranker,
		IdleTimeout: idleTimeout,
		BufferBytes: bufferBytes,
		Obs:         t.reg,
		PoolSize:    poolSize,
		PoolIdleTTL: poolIdleTTL,
		PoolRelays:  poolRelays,
		Dialer:      t.gwDialer,
	})
	if err != nil {
		return nil, err
	}
	if ln, err = listen(); err != nil {
		return nil, err
	}
	t.gwAddr = ln.Addr().String()
	t.serve(func() { _ = t.gw.Serve(ln) })
	t.mon.Start()
	return t, nil
}

func closeAll(lns []net.Listener) {
	for _, l := range lns {
		_ = l.Close()
	}
}

// close tears every component down, front to back, and waits for every
// accept loop to return.
func (t *topo) close() {
	if t.gw != nil {
		_ = t.gw.Close()
	}
	if t.mon != nil {
		_ = t.mon.Close()
	}
	for _, r := range t.relays {
		_ = r.Close()
	}
	for _, p := range t.proxies {
		_ = p.Close()
	}
	if t.probe != nil {
		_ = t.probe.Close()
	}
	if t.dest != nil {
		t.dest.close()
	}
	t.wg.Wait()
}

// snap is one read of every program registry: the gateway's (which
// holds pathmon, connpool and the pipe pool) plus the relays' summed.
type snap struct {
	vals   map[string]float64
	hists  map[string]obs.HistogramSnapshot
	events uint64
}

func (t *topo) snapshot() snap {
	m := snap{vals: map[string]float64{}, hists: map[string]obs.HistogramSnapshot{}}
	add := func(reg *obs.Registry, prefix string) {
		for k, v := range reg.Snapshot() {
			switch x := v.(type) {
			case int64:
				m.vals[prefix+k] += float64(x)
			case obs.HistogramSnapshot:
				h := m.hists[prefix+k]
				h.Count += x.Count
				h.Sum += x.Sum
				if h.Buckets == nil {
					h.Buckets = map[string]int64{}
				}
				for b, c := range x.Buckets {
					h.Buckets[b] += c
				}
				m.hists[prefix+k] = h
			}
		}
	}
	add(t.reg, "")
	m.events = t.reg.Events().Total()
	for _, r := range t.relayRegs {
		add(r, "")
		m.events += r.Events().Total()
	}
	add(t.emuReg, "emu:")
	return m
}

// delta returns after-before for one series.
func delta(before, after snap, name string) float64 {
	return after.vals[name] - before.vals[name]
}

// dialsByKind is the gateway's successful dials in a window, by the path
// kind cronets_gateway_dials_total labels them with.
func dialsByKind(before, after snap) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{"direct", "relay_pooled", "relay_cold", "chain"} {
		out[k] = delta(before, after, obs.Label("cronets_gateway_dials_total", "path", k))
	}
	return out
}

// routeGuard checks a window's route mix: every dial took the designed
// route kind and no switch was committed. A loopback route flip then
// marks the run invalid instead of passing for a regression.
func routeGuard(kind string, before, after snap) error {
	var bad []string
	for k, n := range dialsByKind(before, after) {
		if n > 0 && routeKind(k) != kind {
			bad = append(bad, fmt.Sprintf("%g %s dial(s)", n, k))
		}
	}
	if sw := delta(before, after, "cronets_pathmon_switches_total"); sw > 0 {
		bad = append(bad, fmt.Sprintf("%g route switch(es)", sw))
	}
	if len(bad) > 0 {
		return fmt.Errorf("route mix left the designed %s route: %s", kind, strings.Join(bad, ", "))
	}
	return nil
}

// routeKind folds the dial counter's path label into a route kind.
func routeKind(label string) string {
	if strings.HasPrefix(label, "relay_") {
		return "relay"
	}
	return label
}
