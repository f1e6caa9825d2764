package netem

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cronets/internal/leakcheck"
)

// echoServer echoes bytes back.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

func startProxy(t *testing.T, target string, cfg Config) *Proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := New(ln, target, cfg)
	go p.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestPassThrough(t *testing.T) {
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := "unimpaired"
	if _, err := io.WriteString(conn, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != msg {
		t.Errorf("echo = %q", buf)
	}
}

func TestLatencyAdded(t *testing.T) {
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{
		Up:   Impairment{Latency: 30 * time.Millisecond},
		Down: Impairment{Latency: 30 * time.Millisecond},
	})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("ping")
	buf := make([]byte, len(msg))
	start := time.Now()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 55*time.Millisecond {
		t.Errorf("RTT = %v, want >= ~60ms with 30ms each way", rtt)
	}
}

func TestRateLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("timed shaping test is skipped in -short mode")
	}
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{
		Up: Impairment{RateMbps: 20},
	})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Send 2 MB upstream; at 20 Mbps that takes ~0.8 s.
	const total = 2 << 20
	go func() {
		chunk := make([]byte, 64<<10)
		sent := 0
		for sent < total {
			n, err := conn.Write(chunk)
			if err != nil {
				return
			}
			sent += n
		}
	}()
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	mbps := float64(total) * 8 / elapsed.Seconds() / 1e6
	if mbps > 26 {
		t.Errorf("measured %v Mbps through a 20 Mbps shaper", mbps)
	}
	// The cap is the contract; the floor only guards against a stuck
	// shaper and must tolerate heavily loaded CI machines, where the
	// sleep-based pacing overshoots.
	if mbps < 1 {
		t.Errorf("measured %v Mbps, shaper appears stuck", mbps)
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := New(ln, "127.0.0.1:1", Config{})
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrProxyClosed {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}
}

func TestDeadTargetDropsClient(t *testing.T) {
	p := startProxy(t, "127.0.0.1:1", Config{})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection to dead target should close")
	}
}

// TestJitterReproducible: proxies built with the same seed draw identical
// jitter sequences from their per-proxy source, and a different seed
// diverges — impairment runs are replayable.
func TestJitterReproducible(t *testing.T) {
	mk := func(seed int64) *Proxy {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		return New(ln, "127.0.0.1:1", Config{Seed: seed})
	}
	draw := func(p *Proxy) []time.Duration {
		out := make([]time.Duration, 64)
		for i := range out {
			out[i] = p.jitter(10 * time.Millisecond)
		}
		return out
	}
	a, b, c := draw(mk(42)), draw(mk(42)), draw(mk(7))
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v != %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical jitter sequences")
	}
	if z := mk(1).jitter(0); z != 0 {
		t.Errorf("jitter(0) = %v, want 0", z)
	}
}

func TestSetImpairmentLive(t *testing.T) {
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{})

	rtt := func() time.Duration {
		conn, err := net.Dial("tcp", p.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		msg := []byte("ping")
		buf := make([]byte, len(msg))
		start := time.Now()
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	before := rtt()
	if before > 40*time.Millisecond {
		t.Fatalf("unimpaired RTT = %v on loopback; environment too noisy", before)
	}
	p.SetImpairment(
		Impairment{Latency: 40 * time.Millisecond},
		Impairment{Latency: 40 * time.Millisecond},
	)
	if up, down := p.Impairments(); up.Latency != 40*time.Millisecond || down.Latency != 40*time.Millisecond {
		t.Fatalf("Impairments() = %v/%v after SetImpairment", up, down)
	}
	after := rtt()
	if after < 75*time.Millisecond {
		t.Errorf("RTT after live degradation = %v, want >= ~80ms", after)
	}
}

// TestSetImpairmentAffectsInFlightConn verifies an established connection
// picks up a mid-run impairment change at its next chunk.
func TestSetImpairmentAffectsInFlightConn(t *testing.T) {
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	roundTrip := func() time.Duration {
		msg := []byte("ping")
		buf := make([]byte, len(msg))
		start := time.Now()
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	if before := roundTrip(); before > 40*time.Millisecond {
		t.Fatalf("unimpaired RTT = %v; environment too noisy", before)
	}
	p.SetImpairment(
		Impairment{Latency: 40 * time.Millisecond},
		Impairment{Latency: 40 * time.Millisecond},
	)
	if after := roundTrip(); after < 75*time.Millisecond {
		t.Errorf("in-flight RTT after degradation = %v, want >= ~80ms", after)
	}
}

// flakyListener returns one temporary accept error — EMFILE or
// ECONNABORTED under load — before delegating to the real listener.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (f *flakyListener) Accept() (net.Conn, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, tempErr{}
	}
	return f.Listener.Accept()
}

// TestServeSurvivesTemporaryAcceptError (regression): one transient
// accept failure must not cut the emulated link — Serve backs off,
// retries, and shapes the connection that arrives next. Pre-fix, Serve
// returned on the first accept error of any kind and the link went dark.
func TestServeSurvivesTemporaryAcceptError(t *testing.T) {
	echo := echoServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := New(&flakyListener{Listener: ln}, echo.Addr().String(), Config{})
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	defer p.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	msg := "after EMFILE"
	buf := make([]byte, len(msg))
	_, err = io.WriteString(conn, msg)
	if err == nil {
		_, err = io.ReadFull(conn, buf)
	}
	if err != nil {
		select {
		case serveErr := <-done:
			t.Fatalf("echo after a temporary accept error: %v (Serve returned %v)", err, serveErr)
		default:
			t.Fatalf("echo after a temporary accept error: %v", err)
		}
	}
	if string(buf) != msg {
		t.Errorf("echo = %q, want %q", buf, msg)
	}
}
