// Package gateway is the overlay control plane's forwarding half: a
// client-side entry point that consults pathmon on every new connection
// and dials the destination either directly or through the chosen relay
// (the split-TCP CONNECT protocol from internal/relay). Dial failures
// fall back to the next-ranked path, and re-ranking is live: established
// flows stay pinned to the path they were dialed on, only new
// connections follow the table — the CRONets client gateway of Fig. 1.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"cronets/internal/chain"
	"cronets/internal/connpool"
	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pathmon"
	"cronets/internal/pipe"
	"cronets/internal/relay"
)

// Ranker supplies the control-plane route ranking a Gateway follows; it
// is the warm pool's contract, since the gateway hands it straight to the
// pool. A *pathmon.View picks the objective per listener: a bulk listener
// on mon.View(pathmon.ObjectiveThroughput) and an interactive one on the
// monitor share one probe budget but commit to their own best routes.
type Ranker = connpool.Ranker

// Config parameterizes a Gateway. Dest is required.
type Config struct {
	// Dest is the destination address as reachable from the relays — the
	// CONNECT target sent through the overlay.
	Dest string
	// DirectAddr is the client's direct route to Dest (defaults to Dest;
	// emulations point it at a netem proxy).
	DirectAddr string
	// Monitor supplies route rankings: usually the *pathmon.Monitor
	// itself, or one objective's *pathmon.View of it when several
	// listeners share a monitor. With a nil Monitor the gateway always
	// dials direct.
	Monitor Ranker
	// DialTimeout bounds each path attempt (default 10 s).
	DialTimeout time.Duration
	// IdleTimeout closes listener-mode flows with no traffic in either
	// direction (default 5 min; negative disables). Without it a dead
	// peer holds a gateway flow — and its relay slot — forever.
	IdleTimeout time.Duration
	// BufferBytes sizes each direction's pooled copy buffer in listener
	// mode (default pipe.DefaultBufferBytes).
	BufferBytes int
	// MaxAttempts caps how many ranked paths one Dial tries before
	// giving up (default 3). The direct path always stays inside the
	// cap as the guaranteed last resort.
	MaxAttempts int
	// PoolSize enables the warm relay-connection pool when > 0: each
	// warmed relay keeps PoolSize pre-established TCP connections, and
	// relay dials send the CONNECT preamble on a pooled socket —
	// collapsing overlay connection setup from two round trips to one.
	// 0 disables the pool; every relay dial is cold and wire behaviour
	// is unchanged. The pool needs a Monitor (relays come from its
	// ranking).
	PoolSize int
	// PoolIdleTTL bounds the idle age of a pooled connection (default
	// 60 s — keep it under the relay fleet's pre-CONNECT IdleTimeout).
	PoolIdleTTL time.Duration
	// PoolRelays is how many top-ranked relays the pool keeps warm
	// (default 2); the committed best path is always warmed.
	PoolRelays int
	// PoolFillInterval overrides the pool's background re-warm cadence
	// (default 1 s; tests and benchmarks shorten it).
	PoolFillInterval time.Duration
	// Dialer overrides the underlying dialer (tests).
	Dialer relay.Dialer
	// Obs receives gateway metrics and flow events (nil disables
	// instrumentation).
	Obs *obs.Registry
	// Tracer makes the gateway a trace origin: sampled flows get a root
	// span, a path-selection dial span, and their context is propagated
	// to relays in the CONNECT preamble. Nil disables tracing; unsampled
	// flows stay allocation-free.
	Tracer *flowtrace.Tracer
}

// Gateway dials (and optionally fronts) a fixed destination over the
// current best overlay path.
type Gateway struct {
	cfg     Config
	scope   *obs.Scope
	flowDur *obs.Histogram
	pool    *connpool.Pool // nil when pooling is disabled

	// Registry instruments, resolved once by instrument (nil, and so
	// no-ops, without an Obs registry).
	accepted, acceptErrors           *obs.Counter
	dialsDirect, dialsChain          *obs.Counter
	dialsRelayPooled, dialsRelayCold *obs.Counter
	fallbacks, dialFailures          *obs.Counter
	bytesUp, bytesDown               *obs.Counter
	active                           *obs.Gauge

	// group owns listener mode's lifecycle: the listener Serve hands it,
	// live conns and handler goroutines.
	group *pipe.Group
}

// ErrGatewayClosed is returned by Serve after Close.
var ErrGatewayClosed = errors.New("gateway: closed")

// New creates a Gateway.
func New(cfg Config) (*Gateway, error) {
	if cfg.Dest == "" {
		return nil, errors.New("gateway: Config.Dest is required")
	}
	if cfg.DirectAddr == "" {
		cfg.DirectAddr = cfg.Dest
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout < 0 {
		cfg.IdleTimeout = 0
	} else if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	g := &Gateway{cfg: cfg}
	if cfg.PoolSize > 0 && cfg.Monitor != nil {
		g.pool = connpool.New(connpool.Config{
			SizePerRelay: cfg.PoolSize,
			TopK:         cfg.PoolRelays,
			IdleTTL:      cfg.PoolIdleTTL,
			FillInterval: cfg.PoolFillInterval,
			DialTimeout:  cfg.DialTimeout,
			Ranker:       cfg.Monitor,
			Dialer:       cfg.Dialer,
			Obs:          cfg.Obs,
		})
	}
	g.instrument(cfg.Obs)
	g.group = pipe.NewGroup(ErrGatewayClosed, g.acceptErrors, g.scope.Logger())
	return g, nil
}

// Pool returns the gateway's warm relay-connection pool, or nil when
// pooling is disabled.
func (g *Gateway) Pool() *connpool.Pool { return g.pool }

func (g *Gateway) instrument(reg *obs.Registry) {
	g.scope = reg.Scope("gateway")
	g.flowDur = reg.Histogram("cronets_gateway_flow_duration_seconds",
		"Wall-clock lifetime of finished listener-mode flows.", obs.LatencyBuckets)
	g.accepted = reg.Counter("cronets_gateway_accepted_total",
		"Downstream connections accepted in listener mode.")
	g.active = reg.Gauge("cronets_gateway_active",
		"Flows currently being piped.")
	dials := func(path string) *obs.Counter {
		return reg.Counter(obs.Label("cronets_gateway_dials_total", "path", path),
			"Successful destination dials by path kind.")
	}
	g.dialsDirect = dials("direct")
	g.dialsRelayPooled = dials("relay_pooled")
	g.dialsRelayCold = dials("relay_cold")
	g.dialsChain = dials("chain")
	g.fallbacks = reg.Counter("cronets_gateway_fallbacks_total",
		"Dials that succeeded only on a non-first-choice path.")
	g.dialFailures = reg.Counter("cronets_gateway_dial_failures_total",
		"Dials that exhausted every candidate path.")
	g.acceptErrors = reg.Counter("cronets_gateway_accept_errors_total",
		"Transient listener accept failures survived with backoff.")
	g.bytesUp = reg.Counter(obs.Label("cronets_gateway_bytes_total", "dir", "up"),
		"Piped bytes by direction (up = client to destination).")
	g.bytesDown = reg.Counter(obs.Label("cronets_gateway_bytes_total", "dir", "down"),
		"Piped bytes by direction (up = client to destination).")
}

// candidates returns the ordered list of routes a dial should try: the
// hysteresis-committed best route first, then the remaining usable routes
// score-ordered. Without a monitor (or before its first round) it is the
// direct route alone.
func (g *Gateway) candidates() []pathmon.Route {
	if g.cfg.Monitor == nil {
		return []pathmon.Route{pathmon.Direct}
	}
	best, ok := g.cfg.Monitor.Best()
	if !ok {
		return []pathmon.Route{pathmon.Direct}
	}
	out := []pathmon.Route{best}
	haveDirect := best.IsDirect()
	for _, st := range g.cfg.Monitor.Ranked() {
		if st.Route == best || st.Down {
			continue
		}
		out = append(out, st.Route)
		haveDirect = haveDirect || st.Route.IsDirect()
	}
	if !haveDirect {
		// The direct Internet path needs no overlay cooperation; keep it
		// as the last resort even when probes call it down.
		out = append(out, pathmon.Direct)
	}
	return out
}

// Dial opens one connection to the destination over the current best
// route, falling back to the next-ranked routes on dial failure. It
// returns the connection and the route it actually took.
//
// Tracing: with a Tracer configured, Dial records a gateway.dial span
// covering route selection and every attempt. The span parents under the
// flow context carried in ctx (flowtrace.NewGoContext) or, absent one,
// starts a new trace subject to the sampling rate; relay attempts
// propagate the span's context in the CONNECT preamble.
func (g *Gateway) Dial(ctx context.Context) (net.Conn, pathmon.Route, error) {
	span := g.cfg.Tracer.Start("gateway.dial", flowtrace.FromGoContext(ctx))
	defer span.End()
	if span != nil {
		ctx = flowtrace.NewGoContext(ctx, span.Context())
	}
	cands := g.candidates()
	if len(cands) > g.cfg.MaxAttempts {
		// Truncate to the attempt cap, but never slice off the direct
		// path: candidates() appends it as the guaranteed last resort,
		// and with >= MaxAttempts ranked relay paths a plain cut would
		// silently drop it — a relay-fleet outage would then fail flows
		// that direct would have served.
		kept := cands[:g.cfg.MaxAttempts:g.cfg.MaxAttempts]
		hasDirect := false
		for _, p := range kept {
			if p.IsDirect() {
				hasDirect = true
				break
			}
		}
		if !hasDirect {
			kept[len(kept)-1] = pathmon.Direct
		}
		cands = kept
	}
	var lastErr error
	for i, p := range cands {
		conn, pooled, err := g.dialRoute(ctx, p)
		if err != nil {
			lastErr = err
			g.scope.Event(obs.EventDial, fmt.Sprintf("fail %s: %v", p, err))
			if ctx.Err() != nil {
				break
			}
			continue
		}
		detail := p.String()
		if p.IsDirect() {
			g.dialsDirect.Inc()
		} else if p.IsChain() {
			g.dialsChain.Inc()
			if pooled {
				detail += " (pooled)"
			}
			g.scope.Event(obs.EventChainDial, detail)
		} else if pooled {
			g.dialsRelayPooled.Inc()
			detail += " (pooled)"
		} else {
			g.dialsRelayCold.Inc()
		}
		if i > 0 {
			g.fallbacks.Inc()
			g.scope.Event(obs.EventFallback,
				fmt.Sprintf("%s after %d failed path(s)", p, i))
		} else {
			g.scope.Event(obs.EventDial, "ok "+detail)
		}
		if span != nil {
			span.SetDetail(detail)
		}
		return conn, p, nil
	}
	g.dialFailures.Inc()
	if lastErr == nil {
		lastErr = errors.New("no candidate paths")
	}
	if span != nil {
		span.SetDetail(fmt.Sprintf("failed after %d route(s)", len(cands)))
	}
	return nil, pathmon.Route{}, fmt.Errorf("gateway: all %d route(s) failed: %w", len(cands), lastErr)
}

// dialRoute opens one connection over a specific route — the single dial
// seam for every depth. The zero-hop route is a plain direct dial; any
// deeper route is a chain handshake, one CONNECT per hop sent in one
// write (one hop is exactly the classic single-relay path). Overlay
// routes first try a warm pooled socket to the first hop — sending the
// CONNECT preamble on an already-open connection skips the TCP-handshake
// round trip — and cold dial when the pool misses (or a checked-out
// socket dies mid handshake), so behaviour degrades to exactly the
// unpooled route.
func (g *Gateway) dialRoute(ctx context.Context, r pathmon.Route) (conn net.Conn, pooled bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.DialTimeout)
	defer cancel()
	hops := r.Hops()
	if len(hops) == 0 {
		conn, err = g.cfg.Dialer.DialContext(ctx, "tcp", g.cfg.DirectAddr)
		return conn, false, err
	}
	copts := chain.Options{Dialer: g.cfg.Dialer, Tracer: g.cfg.Tracer}
	if g.pool != nil {
		if warm, ok := g.pool.Get(hops[0]); ok {
			if conn, err = chain.Connect(ctx, warm, hops, g.cfg.Dest, copts); err == nil {
				return conn, true, nil
			}
			// The warm leg died between health check and handshake: fall
			// through to a cold dial rather than failing the flow.
			g.scope.Event(obs.EventDial,
				fmt.Sprintf("pooled leg to %s died, cold dialing: %v", hops[0], err))
		}
	}
	conn, err = chain.Dial(ctx, hops, g.cfg.Dest, copts)
	return conn, false, err
}

// Serve runs listener mode: every accepted connection is dialed through
// Dial and piped to the destination. Established flows keep their path;
// re-ranking only steers subsequent accepts. It always returns a non-nil
// error (ErrGatewayClosed after a clean shutdown).
func (g *Gateway) Serve(ln net.Listener) error {
	for {
		down, err := g.group.Accept(ln)
		if err != nil {
			return err
		}
		g.accepted.Inc()
		if !pipe.Go(g.group, (*Gateway).handle, g, down) {
			return ErrGatewayClosed
		}
	}
}

// Addr returns the listener address (nil outside listener mode).
func (g *Gateway) Addr() net.Addr { return g.group.Addr() }

// Close stops the listener (if any), closes live flows, and retires the
// warm connection pool.
func (g *Gateway) Close() error {
	if g.pool != nil {
		_ = g.pool.Close()
	}
	return g.group.Close(nil)
}

// handle pipes one accepted connection to the destination. Each flow is
// a trace root: the sampling decision happens here, and every downstream
// hop's spans parent (transitively) under this flow span.
func (g *Gateway) handle(down net.Conn) {
	flow := g.cfg.Tracer.Start("gateway.flow", flowtrace.Context{})
	defer flow.End()
	ctx := flowtrace.NewGoContext(g.group.Context(), flow.Context())

	up, route, err := g.Dial(ctx)
	if err != nil {
		flow.SetDetail("dial failed")
		g.scope.Logger().Warn("gateway dial failed", "err", err)
		return
	}
	if !g.group.Track(up) {
		// The gateway closed while we were dialing: Track closed the
		// upstream leg; drop the flow.
		flow.SetDetail("closed during dial")
		return
	}
	defer g.group.Untrack(up)
	if flow != nil {
		// Route.String() already carries the "via" prefix for overlay
		// routes ("direct", "via a", "via a>b>c").
		flow.SetDetail(route.String())
	}

	g.active.Add(1)
	defer g.active.Add(-1)

	// The shared data-plane loop: pooled buffers, live byte counters,
	// half-close propagation, and the idle timeout a dead peer would
	// otherwise evade forever.
	opts := pipe.Options{
		BufferBytes: g.cfg.BufferBytes,
		IdleTimeout: g.cfg.IdleTimeout,
		OnIdle: func() {
			g.scope.Event(obs.EventIdleClose, down.RemoteAddr().String())
		},
		CountAToB: g.bytesUp,
		CountBToA: g.bytesDown,
	}
	if flow != nil {
		// TTFB at the gateway: the first byte the destination sends back
		// toward the client, measured from flow start (which includes
		// path selection and the overlay dial).
		opts.OnFirstByte = func(dir pipe.Dir) {
			if dir == pipe.BToA {
				flow.MarkFirstByte()
			}
		}
	}
	res, err := pipe.Bidirectional(context.Background(), down, up, opts)
	flow.AddBytes(res.AToB + res.BToA)
	g.flowDur.ObserveDuration(res.Duration)
	if err != nil {
		g.scope.Logger().Debug("gateway flow ended with error", "err", err)
	}
}
