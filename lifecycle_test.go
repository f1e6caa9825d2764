package cronets_test

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"cronets/internal/gateway"
	"cronets/internal/leakcheck"
	"cronets/internal/measure"
	"cronets/internal/netem"
	"cronets/internal/relay"
)

// lateListener hands out exactly one connection, and only once Close has
// been called on it: the connection a real listener returns when a
// server's Close races an accept already in flight.
type lateListener struct {
	net.Listener // a real listener, for Addr
	conn         net.Conn
	accepting    chan struct{} // closed on the first Accept call
	closed       chan struct{}
	acceptOnce   sync.Once
	closeOnce    sync.Once
	mu           sync.Mutex
}

func (l *lateListener) Accept() (net.Conn, error) {
	l.acceptOnce.Do(func() { close(l.accepting) })
	<-l.closed
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.conn
	l.conn = nil
	if c == nil {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *lateListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

// TestCloseReapsConnAcceptedDuringClose (regression): for every listening
// layer, a connection the listener hands out while Close runs must be
// closed, not served: Close returns promptly, the peer sees the conn
// closed, and Serve reports the layer's closed error. Pre-fix, the relay
// registered such a conn after Close's sweep, so Close returned with it
// open and its handler waited out the 5-minute idle timeout for a
// CONNECT preamble.
func TestCloseReapsConnAcceptedDuringClose(t *testing.T) {
	type server struct {
		serve func() error
		close func() error
	}
	cases := []struct {
		name      string
		closedErr error
		start     func(t *testing.T, ln net.Listener) server
	}{
		{"gateway", gateway.ErrGatewayClosed, func(t *testing.T, ln net.Listener) server {
			g, err := gateway.New(gateway.Config{Dest: ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			return server{func() error { return g.Serve(ln) }, g.Close}
		}},
		{"relay", relay.ErrRelayClosed, func(t *testing.T, ln net.Listener) server {
			r := relay.New(ln, relay.Config{})
			return server{r.Serve, r.Close}
		}},
		{"netem", netem.ErrProxyClosed, func(t *testing.T, ln net.Listener) server {
			p := netem.New(ln, ln.Addr().String(), netem.Config{})
			return server{p.Serve, p.Close}
		}},
		{"measure", measure.ErrServerClosed, func(t *testing.T, ln net.Listener) server {
			s := measure.NewServer(ln)
			return server{s.Serve, s.Close}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			real, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer real.Close()
			peer, err := net.Dial("tcp", real.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			conn, err := real.Accept()
			if err != nil {
				t.Fatal(err)
			}
			ln := &lateListener{Listener: real, conn: conn,
				accepting: make(chan struct{}), closed: make(chan struct{})}

			srv := tc.start(t, ln)
			served := make(chan error, 1)
			go func() { served <- srv.serve() }()
			<-ln.accepting

			closed := make(chan error, 1)
			go func() { closed <- srv.close() }()
			select {
			case <-closed:
			case <-time.After(time.Second):
				t.Fatal("Close did not return within 1s")
			}

			_ = peer.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := peer.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("peer read after Close = %v, want EOF: the conn accepted during Close was left open", err)
			}
			select {
			case err := <-served:
				if !errors.Is(err, tc.closedErr) {
					t.Errorf("Serve returned %v, want %v", err, tc.closedErr)
				}
			case <-time.After(time.Second):
				t.Error("Serve did not return within 1s of Close")
			}
		})
	}
}
