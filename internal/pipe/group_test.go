package pipe

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"testing"
	"time"
)

var errTestClosed = errors.New("test group closed")

// TestGroupCloseReapsHandlers: Close closes every tracked conn, which
// unblocks the handlers reading them, cancels the context, and returns
// only once every handler Go started has finished.
func TestGroupCloseReapsHandlers(t *testing.T) {
	g := NewGroup(errTestClosed, nil, slog.Default())
	finished := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		local, remote := net.Pipe()
		defer remote.Close()
		if !g.Track(local) {
			t.Fatal("Track refused before Close")
		}
		ok := Go(g, func(done chan struct{}, c net.Conn) {
			_, _ = c.Read(make([]byte, 1))
			<-g.Context().Done()
			done <- struct{}{}
		}, finished, local)
		if !ok {
			t.Fatal("Go refused before Close")
		}
	}
	if err := g.Close(nil); err != nil {
		t.Fatal(err)
	}
	if len(finished) != 2 {
		t.Fatalf("Close returned with %d of 2 handlers finished", len(finished))
	}
}

// TestGroupRefusesAfterClose: once Close has begun, Accept returns the
// closed error without blocking, and Go starts nothing and closes the
// conn it was handed. (Track's refusal is pinned by the gateway's
// TestTrackAfterCloseClosesConn.)
func TestGroupRefusesAfterClose(t *testing.T) {
	g := NewGroup(errTestClosed, nil, slog.Default())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(ln); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Accept(ln); err != errTestClosed {
		t.Errorf("Accept after Close = %v, want the group's closed error", err)
	}
	local, remote := net.Pipe()
	defer remote.Close()
	if Go(g, func(*testing.T, net.Conn) { t.Error("handler ran after Close") }, t, local) {
		t.Error("Go started a handler after Close")
	}
	_ = remote.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := remote.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("Go after Close left the conn open: peer read %v", err)
	}
}
