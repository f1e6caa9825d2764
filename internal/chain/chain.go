// Package chain composes multi-hop overlay paths for the real data
// plane: an ordered list of relay CONNECT endpoints is dialed as one
// socket carrying one CONNECT request per hop — relay N's upstream
// target is relay N+1's CONNECT endpoint, and the last relay's target is
// the destination. The chain's requests go out in one flight and the
// replies come back in hop order, so setup is one round trip to the last
// hop plus each hop's upstream dial. After the last OK the flow is an
// ordinary spliced connection: every relay runs its own split-TCP loop
// over its own segment, which is exactly how the paper's §VII-B two-hop
// configuration composes backbone path diversity.
//
// The wire format is the single-hop CONNECT handshake from
// internal/relay, pipelined — relays need no code or protocol change to
// serve as a middle hop; they see a perfectly normal CONNECT whose target
// happens to be another relay, and forward the bytes behind it once that
// relay answers.
package chain

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/relay"
)

// defaultPerHopTimeout bounds one hop's CONNECT exchange (and the first
// hop's TCP dial) when the caller's context carries no deadline of its
// own.
const defaultPerHopTimeout = 10 * time.Second

// Options parameterizes a chain dial. The zero value is usable.
type Options struct {
	// Dialer opens the TCP leg to the first hop (default net.Dialer).
	Dialer relay.Dialer
	// Tracer records one chain.hop span per relay, each parented under
	// the previous hop's span (hop 0 parents under the context carried
	// in ctx), so a trace nests the way the bytes travel. Nil
	// disables tracing at zero cost.
	Tracer *flowtrace.Tracer
}

// HopError reports which hop of a chain dial failed. Unwrap exposes the
// underlying cause (relay.ErrRefused, a dial error, a context error), so
// callers can classify with errors.Is/As while still seeing the hop.
type HopError struct {
	// Hop is the 0-based index of the failing hop.
	Hop int
	// Relay is the CONNECT endpoint of the relay serving that hop.
	Relay string
	// Target is what that hop was asked to connect to (the next relay,
	// or the final destination).
	Target string
	// Err is the underlying failure.
	Err error
}

func (e *HopError) Error() string {
	return fmt.Sprintf("chain: hop %d (%s -> %s): %v", e.Hop, e.Relay, e.Target, e.Err)
}

func (e *HopError) Unwrap() error { return e.Err }

// String renders a hop list as a display name ("a>b>c").
func String(hops []string) string { return strings.Join(hops, ">") }

// Dial establishes one connection to target through the ordered relay
// chain: a TCP dial to hops[0], then Connect's pipelined handshake, one
// CONNECT per hop. A single-hop chain is the classic single-relay path.
// The returned connection is the client's end of the fully spliced
// chain; per-hop failures return a *HopError and leave nothing open.
func Dial(ctx context.Context, hops []string, target string, opts Options) (net.Conn, error) {
	if len(hops) == 0 {
		return nil, errors.New("chain: no hops")
	}
	d := opts.Dialer
	if d == nil {
		d = &net.Dialer{}
	}
	dialCtx, cancel := hopContext(ctx)
	conn, err := d.DialContext(dialCtx, "tcp", hops[0])
	cancel()
	if err != nil {
		return nil, &HopError{Hop: 0, Relay: hops[0], Target: hops[0],
			Err: fmt.Errorf("dial first hop: %w", err)}
	}
	return Connect(ctx, conn, hops, target, opts)
}

// Connect sends the chain's CONNECT preamble down an already-open socket
// to the relay serving hops[0] — the warm-pool path: the gateway checks a
// pre-established first-hop leg out of its pool and pays only the
// handshake. Every hop's request goes out in one write (relay.ConnectChain)
// and the replies are read in hop order. Each reply read gets its own
// deadline, each hop one chain.hop span that ends when its reply arrives,
// and a failing hop a typed *HopError; the socket is closed on any error.
func Connect(ctx context.Context, conn net.Conn, hops []string, target string, opts Options) (net.Conn, error) {
	if len(hops) == 0 {
		_ = conn.Close()
		return nil, errors.New("chain: no hops")
	}
	// Arrays sized for the usual short chain keep a dial from allocating
	// these; a longer one grows onto the heap.
	var reqArr [maxInlineHops]relay.Request
	var spanArr [maxInlineHops]*flowtrace.Span
	reqs, spans := reqArr[:0], spanArr[:0]
	tc := flowtrace.FromGoContext(ctx)
	for i := range hops {
		next := target
		if i+1 < len(hops) {
			next = hops[i+1]
		}
		// Hop i's request travels through hop i-1's splice: its span
		// parents under hop i-1's, so the trace nests the way the bytes
		// do, and its line carries its own span context.
		span := opts.Tracer.Continue("chain.hop", tc)
		if span != nil {
			tc = span.Context()
		}
		reqs = append(reqs, relay.Request{Target: next, Trace: tc})
		spans = append(spans, span)
	}
	cancel := context.CancelFunc(func() {})
	ok, err := relay.ConnectChain(conn, reqs, func(i int) context.Context {
		cancel()
		if i > 0 {
			endHop(spans[i-1], hops[i-1], reqs[i-1].Target, "") // reply i-1 was OK
		}
		var hopCtx context.Context
		hopCtx, cancel = hopContext(ctx)
		return hopCtx
	})
	cancel()
	if err != nil {
		// Hops past the failing one never saw their line; their spans
		// stay unpublished.
		endHop(spans[ok], hops[ok], reqs[ok].Target, "fail ")
		return nil, &HopError{Hop: ok, Relay: hops[ok], Target: reqs[ok].Target, Err: err}
	}
	last := len(hops) - 1
	endHop(spans[last], hops[last], target, "")
	return conn, nil
}

// maxInlineHops is the chain length Connect handles without allocating
// its per-hop state.
const maxInlineHops = 4

// endHop ends one hop's span, naming the hop in its detail. The detail
// is built only for a sampled span.
func endHop(span *flowtrace.Span, hop, next, prefix string) {
	if span == nil {
		return
	}
	span.SetDetail(prefix + hop + " -> " + next)
	span.End()
}

// hopContext bounds one hop: the caller's deadline governs when ctx
// carries one, else defaultPerHopTimeout.
func hopContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, defaultPerHopTimeout)
}
