// Package relay implements the overlay node's stream-level services over
// real sockets: a fixed-target TCP forwarder and a split-TCP proxy with a
// one-line CONNECT handshake. The split proxy is the userspace equivalent
// of the paper's split-overlay configuration: it terminates the client's
// TCP connection and opens its own toward the destination, so each half
// runs an independent congestion-control loop over roughly half the RTT.
package relay

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// Dialer abstracts net.Dialer for tests.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Config holds relay parameters. The zero value is usable; defaults are
// filled in by New.
type Config struct {
	// Target is the fixed destination for forward mode ("" enables the
	// CONNECT handshake instead).
	Target string
	// DialTimeout bounds each upstream dial attempt (default 10 s).
	DialTimeout time.Duration
	// DialRetries is how many extra upstream dial attempts follow a
	// transient failure (connection refused, timeout) before the relay
	// gives up (default 0: fail fast).
	DialRetries int
	// DialRetryBackoff is the pause before the first retry, doubling
	// each attempt (default 50 ms).
	DialRetryBackoff time.Duration
	// IdleTimeout closes connections with no traffic in either direction
	// (default 5 min; 0 disables).
	IdleTimeout time.Duration
	// BufferBytes sizes each direction's copy buffer (default
	// pipe.DefaultBufferBytes) — the relay buffer of a split-TCP proxy.
	BufferBytes int
	// MaxConns caps concurrent relayed connections (default 1024).
	MaxConns int
	// ACL restricts CONNECT-mode targets (nil allows everything; a relay
	// without an ACL is an open proxy).
	ACL *ACL
	// Dialer overrides the upstream dialer (tests).
	Dialer Dialer
	// Obs receives the relay's metrics and flow events (nil disables
	// instrumentation at zero cost).
	Obs *obs.Registry
	// Tracer records relay dial + splice spans for flows whose CONNECT
	// preamble carries a sampled trace context (nil disables tracing at
	// zero cost; unsampled flows cost one nil check).
	Tracer *flowtrace.Tracer
}

// Relay is a running overlay relay listening for downstream connections.
type Relay struct {
	cfg Config
	ln  net.Listener

	// active is the number of connections currently being relayed. It is
	// the one counter kept outside the registry: its compare-and-swap
	// enforces MaxConns, so it must exist with or without an Obs.
	active atomic.Int64

	// Registry instruments, resolved once by instrument (nil, and so
	// no-ops, without an Obs registry).
	accepted, acceptErrors, errs, rejected *obs.Counter
	overloaded, dialRetries                *obs.Counter
	bytesUp, bytesDown                     *obs.Counter
	dialLatency                            *obs.Histogram
	scope                                  *obs.Scope

	// group owns the listener lifecycle: live conns, handler goroutines,
	// and the context Close cancels so handlers parked in dial-retry
	// backoff unblock immediately instead of sleeping out their schedule.
	group *pipe.Group

	// pending counts CONNECT-mode sockets accepted but still waiting for
	// their preamble. They do not burn a MaxConns slot (a warm
	// connection pool keeps idle pre-CONNECT sockets open), but they are
	// capped at 2x MaxConns themselves so an open-socket flood stays
	// bounded without idle warm legs starving fresh arrivals.
	pending atomic.Int64
}

// ErrRelayClosed is returned by Serve after Close.
var ErrRelayClosed = errors.New("relay: closed")

// errACLRejected marks a CONNECT refusal so Serve can count it as
// rejected rather than as an error.
var errACLRejected = errors.New("relay: target forbidden by ACL")

// New creates a relay on the listener. Close the relay to release it.
func New(ln net.Listener, cfg Config) *Relay {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.DialRetries < 0 {
		cfg.DialRetries = 0
	}
	if cfg.DialRetryBackoff <= 0 {
		cfg.DialRetryBackoff = 50 * time.Millisecond
	}
	if cfg.IdleTimeout < 0 {
		cfg.IdleTimeout = 0
	} else if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	r := &Relay{cfg: cfg, ln: ln}
	r.instrument(cfg.Obs)
	r.group = pipe.NewGroup(ErrRelayClosed, r.acceptErrors, r.scope.Logger())
	return r
}

// instrument resolves the relay's registry instruments. All obs calls
// are nil-safe, so a nil registry disables instrumentation.
func (r *Relay) instrument(reg *obs.Registry) {
	r.scope = reg.Scope("relay")
	r.dialLatency = reg.Histogram("cronets_relay_dial_latency_seconds",
		"Upstream dial latency of successful dials.", obs.LatencyBuckets)
	r.accepted = reg.Counter("cronets_relay_accepted_total",
		"Downstream connections accepted.")
	r.acceptErrors = reg.Counter("cronets_relay_accept_errors_total",
		"Transient listener accept failures survived with backoff.")
	reg.GaugeFunc("cronets_relay_active",
		"Connections currently being relayed.", r.active.Load)
	r.bytesUp = reg.Counter(obs.Label("cronets_relay_bytes_total", "dir", "up"),
		"Relayed bytes by direction (up = client to target).")
	r.bytesDown = reg.Counter(obs.Label("cronets_relay_bytes_total", "dir", "down"),
		"Relayed bytes by direction (up = client to target).")
	r.errs = reg.Counter("cronets_relay_errors_total",
		"Failed relay attempts (dials, broken pipes).")
	r.rejected = reg.Counter("cronets_relay_rejected_total",
		"CONNECT attempts refused by the ACL.")
	r.overloaded = reg.Counter("cronets_relay_overloaded_total",
		"Connections dropped at accept because MaxConns was reached.")
	r.dialRetries = reg.Counter("cronets_relay_dial_retries_total",
		"Upstream dial attempts retried after a transient failure.")
}

// Addr returns the relay's listen address.
func (r *Relay) Addr() net.Addr { return r.ln.Addr() }

// Serve accepts and relays connections until Close. It always returns a
// non-nil error (ErrRelayClosed after a clean shutdown).
func (r *Relay) Serve() error {
	// Claim capacity at accept time, since the handler goroutine may not
	// have run yet: a MaxConns slot in forward mode, a pending slot in
	// CONNECT mode, which claims its MaxConns slot once the preamble
	// arrives (see pending).
	slot, limit := &r.active, r.cfg.MaxConns
	if r.cfg.Target == "" {
		slot, limit = &r.pending, 2*r.cfg.MaxConns
	}
	for {
		conn, err := r.group.Accept(r.ln)
		if err != nil {
			return err
		}
		if !claim(slot, limit) {
			if r.cfg.Target == "" {
				// A CONNECT client waits for a reply: a typed refusal
				// tells it the relay is saturated, where a bare close
				// reads as a dead relay. The few bytes go into a fresh
				// socket's empty send buffer, so the write cannot block.
				_ = writeReply(conn, replyOverloaded)
			}
			r.group.Untrack(conn)
			r.overloaded.Inc()
			continue
		}
		r.accepted.Inc()
		if !pipe.Go(r.group, (*Relay).serveConn, r, conn) {
			slot.Add(-1)
			return ErrRelayClosed
		}
	}
}

// Close stops accepting, closes live connections, and waits for handlers.
func (r *Relay) Close() error { return r.group.Close(r.ln) }

// claim takes one unit of n below limit by compare-and-swap: checking
// without reserving would let a burst sail past the cap.
func claim(n *atomic.Int64, limit int) bool {
	for {
		cur := n.Load()
		if cur >= int64(limit) {
			return false
		}
		if n.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// serveConn relays one admitted connection and counts how it ended.
func (r *Relay) serveConn(conn net.Conn) {
	if err := r.handle(conn); err != nil {
		if errors.Is(err, errACLRejected) {
			r.rejected.Inc()
		} else {
			r.errs.Inc()
		}
	}
}

// handle relays one downstream connection. In forward mode the caller
// has already reserved MaxConns capacity (active); in CONNECT mode
// the caller reserved only a pending slot and the MaxConns reservation
// happens here, once the preamble arrives — an idle pre-CONNECT socket
// (a gateway's warm connection pool) does not burn a relay slot.
func (r *Relay) handle(down net.Conn) error {
	reserved := r.cfg.Target != ""
	defer func() {
		if reserved {
			r.active.Add(-1)
		}
	}()

	target := r.cfg.Target
	var tc flowtrace.Context
	var br *bufio.Reader
	if target == "" {
		// CONNECT handshake (wire.go). The read deadline is the relay's
		// IdleTimeout, not DialTimeout: a pooled pre-CONNECT socket
		// legitimately sits quiet until its owner checks it out, and only
		// then sends the preamble. The reader holds one maximal request
		// line: a client that sends that much with no LF gets a full
		// buffer, which the parser refuses as overlong.
		br = bufio.NewReaderSize(down, maxRequestLen)
		if r.cfg.IdleTimeout > 0 {
			_ = down.SetReadDeadline(time.Now().Add(r.cfg.IdleTimeout))
		}
		line, err := br.ReadSlice('\n')
		r.pending.Add(-1)
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			if errors.Is(err, io.EOF) && len(line) == 0 {
				// A warm socket closed cleanly before sending any
				// preamble: normal pool churn (TTL expiry, pool
				// shutdown), not an error.
				return nil
			}
			return fmt.Errorf("relay: read connect line: %w", err)
		}
		_ = down.SetReadDeadline(time.Time{})
		hostPort, lineCtx, err := ParseRequest(line)
		if err != nil {
			_ = writeReply(down, replyBadRequest)
			return err
		}
		t := string(hostPort)
		if !r.cfg.ACL.Allow(t) {
			_ = writeReply(down, replyForbidden)
			r.scope.Event(obs.EventACLReject, t)
			return fmt.Errorf("relay: ACL forbids %s: %w", t, errACLRejected)
		}
		// The preamble is in: this is a real flow now, so it must claim a
		// MaxConns slot like any forward-mode connection.
		if !claim(&r.active, r.cfg.MaxConns) {
			_ = writeReply(down, replyOverloaded)
			r.overloaded.Inc()
			return nil
		}
		reserved = true
		target = t
		tc = lineCtx
		r.scope.Event(obs.EventConnect, t)
	}

	// Dial under a context cancelled when the relay shuts down and — in
	// CONNECT mode — when the client hangs up mid-dial, so a caller that
	// gives up cannot pin this goroutine (and its MaxConns slot) through
	// the whole retry schedule.
	dialCtx, cancelDial := context.WithCancel(r.group.Context())
	stopWatch := r.watchAbort(down, br, cancelDial)
	dialSpan := r.cfg.Tracer.Continue("relay.dial", tc)
	up, err := r.dialUpstream(dialCtx, target)
	stopWatch()
	cancelDial()
	if err != nil {
		dialSpan.SetDetail("fail " + target)
		dialSpan.End()
		if br != nil {
			_ = writeReply(down, replyDialFailed)
		}
		r.scope.Event(obs.EventDial, "fail "+target)
		return fmt.Errorf("relay: dial %s: %w", target, err)
	}
	dialSpan.SetDetail(target)
	dialSpan.End()
	r.scope.Event(obs.EventDial, "ok "+target)
	if !r.group.Track(up) {
		return nil // closed while dialing; Track closed the upstream leg
	}
	defer r.group.Untrack(up)

	if br != nil {
		if err := writeReply(down, replyOK); err != nil {
			return fmt.Errorf("relay: write connect reply: %w", err)
		}
	}

	var pipelined []byte
	if br != nil {
		// Bytes a client pipelined behind its CONNECT line: at most one
		// request's worth, still in the preamble reader.
		pipelined, _ = br.Peek(br.Buffered())
	}
	return r.splice(down, up, tc, pipelined)
}

// watchAbort watches a CONNECT-mode downstream for the client hanging up
// while the upstream dial (and its retry schedule) is in flight, calling
// cancel if it does. Peek never consumes: bytes a client pipelines ahead
// of the OK reply stay buffered for the splice. It peeks one byte past
// what is already buffered, since a client that pipelined bytes behind
// its line (a chain's next hop's line) would otherwise satisfy the peek
// at once and go unwatched; a full buffer leaves no byte to watch with,
// and its client counts as alive. The returned stop func
// unblocks the watcher and waits for it to exit, so the caller regains
// exclusive use of the connection. In forward mode (nil br) there is
// nothing to watch and stop is a no-op.
func (r *Relay) watchAbort(down net.Conn, br *bufio.Reader, cancel context.CancelFunc) (stop func()) {
	if br == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := br.Peek(br.Buffered() + 1)
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) && !pipe.IsTimeout(err) {
			// EOF / reset: the client is gone. A timeout is stop()
			// reclaiming the connection, not a hangup.
			cancel()
		}
	}()
	return func() {
		_ = down.SetReadDeadline(aLongTimeAgo)
		<-done
		_ = down.SetReadDeadline(time.Time{})
	}
}

// aLongTimeAgo is an expired deadline used to unblock in-flight reads.
var aLongTimeAgo = time.Unix(1, 0)

// dialUpstream dials the target, retrying transient failures (refused,
// timeout) up to DialRetries times with jittered exponential backoff —
// the cloud overlay's answer to a relay or destination that is briefly
// unreachable while it restarts or fails over. The jitter desynchronizes
// the retry schedules of the many flows a relay dials on behalf of, so
// they cannot storm a recovering upstream in lockstep. Cancelling ctx
// (relay shutdown, client hangup) aborts both the dial and the backoff
// sleep immediately.
func (r *Relay) dialUpstream(ctx context.Context, target string) (net.Conn, error) {
	backoff := r.cfg.DialRetryBackoff
	for attempt := 0; ; attempt++ {
		dialCtx, cancel := context.WithTimeout(ctx, r.cfg.DialTimeout)
		dialStart := time.Now()
		up, err := r.cfg.Dialer.DialContext(dialCtx, "tcp", target)
		cancel()
		if err == nil {
			r.dialLatency.ObserveDuration(time.Since(dialStart))
			return up, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("relay: dial abandoned: %w", ctx.Err())
		}
		if attempt >= r.cfg.DialRetries || !transientDialError(err) {
			return nil, err
		}
		r.dialRetries.Inc()
		r.scope.Event(obs.EventDialRetry,
			fmt.Sprintf("%s attempt %d: %v", target, attempt+1, err))
		wait := backoff + backoffJitter(backoff)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("relay: dial abandoned: %w", ctx.Err())
		case <-time.After(wait):
		}
		backoff *= 2
	}
}

// backoffJitter draws a uniform [0, d/2] jitter so concurrent retry
// schedules spread out instead of synchronizing.
func backoffJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d)/2 + 1))
}

// transientDialError reports whether a dial failure is worth retrying:
// timeouts and refused connections pass, everything else (unreachable
// network, bad address) fails fast.
func transientDialError(err error) bool {
	return pipe.IsTimeout(err) || errors.Is(err, syscall.ECONNREFUSED)
}

// splice runs the shared data-plane loop over the connection pair: pooled
// buffers, live byte counters, TCP half-close propagation, and the idle
// timeout, all from internal/pipe. pipelined, the bytes a client sent
// behind its CONNECT line, go upstream first, so the loop reads the raw
// downstream socket and a bulk flow can move to kernel splice. For
// sampled flows it records a relay.splice span (bytes, first-byte
// latency); unsampled flows leave the loop's options exactly as before.
func (r *Relay) splice(down, up net.Conn, tc flowtrace.Context, pipelined []byte) error {
	opts := pipe.Options{
		BufferBytes: r.cfg.BufferBytes,
		IdleTimeout: r.cfg.IdleTimeout,
		OnIdle: func() {
			r.scope.Event(obs.EventIdleClose, down.RemoteAddr().String())
		},
		CountAToB: r.bytesUp,
		CountBToA: r.bytesDown,
	}
	span := r.cfg.Tracer.Continue("relay.splice", tc)
	if span != nil {
		// TTFB at the relay: the first byte coming back from the
		// upstream toward the client.
		opts.OnFirstByte = func(dir pipe.Dir) {
			if dir == pipe.BToA {
				span.MarkFirstByte()
			}
		}
	}
	var sent int
	if len(pipelined) > 0 {
		var err error
		sent, err = up.Write(pipelined)
		r.bytesUp.Add(int64(sent))
		if err != nil {
			span.AddBytes(int64(sent))
			span.End()
			return fmt.Errorf("relay: forward pipelined bytes: %w", err)
		}
	}
	res, err := pipe.Bidirectional(context.Background(), down, up, opts)
	span.AddBytes(int64(sent) + res.AToB + res.BToA)
	span.End()
	return err
}

// Connect runs the client half of the CONNECT handshake for target on an
// already-open connection to a relay, returning the relayed connection —
// the warm-pool checkout path: a gateway that keeps pre-established relay
// sockets skips the TCP handshake leg and pays only this one round trip.
// It is ConnectChain with one hop: ctx bounds the request write and the
// reply read, cancelling it mid-handshake force-expires the socket so the
// caller returns promptly, and the trace context ctx carries
// (flowtrace.NewGoContext) rides the request so the relay's spans join
// the trace. On error the connection is closed. The returned connection
// is conn itself: bytes the relay sends behind its OK and TCP half-close
// both pass through untouched.
func Connect(ctx context.Context, conn net.Conn, target string) (net.Conn, error) {
	req := [1]Request{{Target: target, Trace: flowtrace.FromGoContext(ctx)}}
	if _, err := ConnectChain(conn, req[:], func(int) context.Context { return ctx }); err != nil {
		return nil, err
	}
	return conn, nil
}

// Request is one hop's CONNECT request in a pipelined handshake.
type Request struct {
	// Target is what the hop connects to: the next hop's CONNECT
	// endpoint, or the destination at the last hop.
	Target string
	// Trace rides the request line when sampled.
	Trace flowtrace.Context
}

// ConnectChain runs the client half of a pipelined CONNECT handshake on
// conn, an open socket to the first relay of a chain: request i goes to
// hop i. Every request line goes out in one Write. A relay forwards the
// bytes behind its own line once its upstream dial completes, so hop
// i+1's line reaches hop i+1 as soon as hop i's dial to it completes,
// with no wait for the client to hear hop i's OK. The replies then come
// back in hop order over the same socket, each read to its last byte and
// no further, so after the last OK conn is the relayed connection itself.
//
// hop(i) is called as reply i's read begins and returns the context that
// bounds that read (and, for hop 0, the write): its deadline and
// cancellation apply as in Connect. ConnectChain returns the number of
// hops that answered OK; on error that is the index of the failing hop,
// and conn is closed.
func ConnectChain(conn net.Conn, reqs []Request, hop func(i int) context.Context) (int, error) {
	req := make([]byte, 0, len(reqs)*maxRequestLen)
	for _, r := range reqs {
		req = appendRequest(req, r.Target, r.Trace)
	}
	for i := range reqs {
		err := pipe.Bound(hop(i), conn, func() error {
			if i == 0 {
				if _, err := conn.Write(req); err != nil {
					return fmt.Errorf("relay: send connect: %w", err)
				}
			}
			return readReply(conn)
		})
		if err != nil {
			_ = conn.Close()
			return i, err
		}
	}
	return len(reqs), nil
}
