package pipe

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"cronets/internal/obs"
)

// Group is the connection lifecycle every listening layer (gateway,
// relay, measure server, netem link) shares: the accept loop, the live
// connections Close must reach, the handler goroutines Close waits for,
// and a context Close cancels. The closed flag, the connection set and
// the WaitGroup sit under one mutex, so a connection accepted or dialed
// while Close runs is closed on the spot instead of outliving it, and no
// handler starts once Close is waiting.
type Group struct {
	closedErr error
	errs      *obs.Counter
	log       *slog.Logger
	ctx       context.Context
	cancel    context.CancelFunc

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewGroup returns an open group. Accept returns closedErr once Close has
// begun, and counts transient accept failures in errs (nil counts
// nothing) and logs them on log.
func NewGroup(closedErr error, errs *obs.Counter, log *slog.Logger) *Group {
	g := &Group{closedErr: closedErr, errs: errs, log: log, conns: make(map[net.Conn]struct{})}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	return g
}

// Accept waits for the next connection on ln and tracks it; ln becomes
// the listener Close closes. Transient failures (ECONNABORTED, or EMFILE
// when the process runs out of descriptors under load) are counted,
// logged and retried after a backoff of 5 ms doubling to 1 s,
// net/http.Server-style, instead of taking the listener down. Once Close
// has begun, Accept closes whatever it got and returns the closed error.
func (g *Group) Accept(ln net.Listener) (net.Conn, error) {
	g.mu.Lock()
	closed := g.closed
	g.ln = ln
	g.mu.Unlock()
	if closed {
		return nil, g.closedErr
	}
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil {
			if !g.Track(conn) {
				return nil, g.closedErr
			}
			return conn, nil
		}
		if ne, ok := err.(net.Error); !ok || !ne.Temporary() { //nolint:staticcheck // the net/http.Server accept-retry idiom
			if g.ctx.Err() != nil {
				return nil, g.closedErr
			}
			return nil, fmt.Errorf("accept: %w", err)
		}
		g.errs.Inc()
		if delay == 0 {
			delay = 5 * time.Millisecond
		} else if delay *= 2; delay > time.Second {
			delay = time.Second
		}
		g.log.Warn("accept failed, retrying", "err", err, "backoff", delay.String())
		time.Sleep(delay)
	}
}

// Go runs serve(s, c) on a goroutine Close waits for, then untracks and
// closes c. Once Close has begun it starts nothing, closes c and reports
// false. serve is a method expression and s its receiver, so the go
// statement's closure is the only allocation a connection adds.
func Go[S any](g *Group, serve func(S, net.Conn), s S, c net.Conn) bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.Untrack(c)
		return false
	}
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		defer g.Untrack(c)
		serve(s, c)
	}()
	return true
}

// Track registers c (an upstream leg) for Close's sweep. Once Close has
// begun it closes c and reports false: registered after the sweep, c
// would stay open with nothing left to reap it.
func (g *Group) Track(c net.Conn) bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		_ = c.Close()
		return false
	}
	g.conns[c] = struct{}{}
	g.mu.Unlock()
	return true
}

// Untrack removes c from the sweep and closes it.
func (g *Group) Untrack(c net.Conn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
	_ = c.Close()
}

// Context returns a context Close cancels, for handlers' dials and waits.
func (g *Group) Context() context.Context { return g.ctx }

// Addr returns the address of the listener last handed to Accept, or nil.
func (g *Group) Addr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ln == nil {
		return nil
	}
	return g.ln.Addr()
}

// Close closes every tracked connection, cancels the context, closes ln
// (nil: the listener Accept serves) and waits for every handler Go
// started. It returns the listener's close error; later calls return nil.
func (g *Group) Close(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	if ln == nil {
		ln = g.ln
	}
	for c := range g.conns {
		_ = c.Close()
	}
	g.mu.Unlock()
	g.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	g.wg.Wait()
	return err
}
