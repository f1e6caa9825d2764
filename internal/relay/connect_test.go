package relay

// Error-path coverage for the client half of the CONNECT handshake:
// preamble write failure, short/garbled replies, refusal classification,
// and context cancellation mid-preamble. Connect promises the socket is
// closed on every error — each test asserts that too.

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cronets/internal/pipe"
)

// failWriteConn fails every write; Close is observable.
type failWriteConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *failWriteConn) Write([]byte) (int, error) {
	return 0, errors.New("wire cut")
}

func (c *failWriteConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func TestConnectPreambleWriteFailure(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	conn := &failWriteConn{Conn: a}
	_, err := Connect(context.Background(), conn, "192.0.2.1:9")
	if err == nil {
		t.Fatal("Connect succeeded through a dead writer")
	}
	if !strings.Contains(err.Error(), "send connect") {
		t.Errorf("err = %v, want a send-connect failure", err)
	}
	if !conn.closed.Load() {
		t.Error("Connect left the socket open after a write failure")
	}
}

// connectServer accepts one connection, reads the preamble line, and
// runs reply against the raw socket (sending a response, closing early,
// or stalling).
func connectServer(t *testing.T, reply func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil || buf[0] == '\n' {
				break
			}
		}
		reply(c)
	}()
	return ln.Addr().String()
}

func dialConnect(t *testing.T, ctx context.Context, addr string) (net.Conn, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return Connect(ctx, conn, "192.0.2.1:9")
}

func TestConnectShortReply(t *testing.T) {
	// The relay dies mid-reply: a partial line with no newline is a read
	// error (EOF before the terminator), not a refusal.
	addr := connectServer(t, func(c net.Conn) {
		_, _ = c.Write([]byte("O")) // short: no terminator
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := dialConnect(t, ctx, addr)
	if err == nil {
		t.Fatal("Connect succeeded on a truncated reply")
	}
	if !strings.Contains(err.Error(), "read connect reply") {
		t.Errorf("err = %v, want a read-reply failure", err)
	}
	if errors.Is(err, ErrRefused) {
		t.Errorf("truncated reply misclassified as refusal: %v", err)
	}
}

func TestConnectGarbledReply(t *testing.T) {
	// A complete line that is not "OK" is a refusal carrying the relay's
	// words, classifiable with errors.Is(err, ErrRefused).
	addr := connectServer(t, func(c net.Conn) {
		_, _ = io.WriteString(c, "ERR forbidden\n")
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := dialConnect(t, ctx, addr)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if !strings.Contains(err.Error(), "ERR forbidden") {
		t.Errorf("err = %v, want the relay's ERR line preserved", err)
	}
}

func TestConnectRefusedByRealRelay(t *testing.T) {
	// End-to-end refusal: a real relay whose ACL forbids the target
	// answers ERR, and the client error matches ErrRefused.
	acl, err := NewACL([]string{"10.0.0.0/8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := startRelay(t, Config{ACL: acl})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = dialVia(ctx, r.Addr().String(), "192.0.2.1:9")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("ACL rejection err = %v, want ErrRefused", err)
	}
}

func TestConnectCancelMidPreamble(t *testing.T) {
	// The relay accepts, swallows the preamble, and never answers.
	// Cancelling the context must force-expire the socket so Connect
	// returns promptly with the context's error, not hang on the read.
	stall := make(chan struct{})
	defer close(stall)
	addr := connectServer(t, func(c net.Conn) { <-stall })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := dialConnect(t, ctx, addr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pipe.IsTimeout(err) {
		t.Errorf("cancellation misclassified as a timeout: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("Connect took %v to honor cancellation", waited)
	}
}

func TestConnectDeadlineMidPreamble(t *testing.T) {
	// Same stall, but via a context deadline: the error surfaces as
	// context.DeadlineExceeded so pathmon classifies it as a timeout,
	// not a refusal.
	stall := make(chan struct{})
	defer close(stall)
	addr := connectServer(t, func(c net.Conn) { <-stall })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := dialConnect(t, ctx, addr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrRefused) {
		t.Errorf("timeout misclassified as refusal: %v", err)
	}
	if !pipe.IsTimeout(err) {
		t.Errorf("deadline not classified as a timeout: %v", err)
	}
}

// TestConnectBannerKeepsHalfClose (regression): when destination bytes
// (a server-first banner) arrive in the same segment as the relay's OK,
// the connection Connect returns must replay them and still forward TCP
// half-close. Pre-fix it returned a wrapper without CloseWrite, so the
// client's EOF never reached the destination through a relay or chain.
func TestConnectBannerKeepsHalfClose(t *testing.T) {
	sawEOF := make(chan error, 1)
	addr := connectServer(t, func(c net.Conn) {
		_, _ = io.WriteString(c, "OK\nbanner")
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.Copy(io.Discard, c)
		sawEOF <- err
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialConnect(t, ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	banner := make([]byte, len("banner"))
	if _, err := io.ReadFull(conn, banner); err != nil || string(banner) != "banner" {
		t.Fatalf("banner = %q, %v", banner, err)
	}
	cw, ok := conn.(interface{ CloseWrite() error })
	if !ok {
		t.Fatalf("Connect returned %T, which cannot half-close", conn)
	}
	if err := cw.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := <-sawEOF; err != nil {
		t.Errorf("far end read %v after CloseWrite, want EOF", err)
	}
}
