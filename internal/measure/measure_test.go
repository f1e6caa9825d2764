package measure

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cronets/internal/leakcheck"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln)
	go s.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestThroughputSink(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := SinkClient(conn); err != nil {
		t.Fatal(err)
	}
	res, err := Throughput(conn, 200*time.Millisecond, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps <= 0 || res.Bytes <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Elapsed < 200*time.Millisecond {
		t.Errorf("elapsed = %v", res.Elapsed)
	}
}

func TestProbeRTT(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stats, err := ProbeRTT(conn, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 5 {
		t.Errorf("samples = %d", stats.Samples)
	}
	if stats.Min <= 0 || stats.Avg < stats.Min || stats.Max < stats.Avg {
		t.Errorf("ordering broken: %+v", stats)
	}
	// Loopback RTT should be far below a millisecond-scale bound.
	if stats.Avg > 100*time.Millisecond {
		t.Errorf("loopback RTT = %v", stats.Avg)
	}
}

func TestProbeRTTDefaultCount(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stats, err := ProbeRTT(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 10 {
		t.Errorf("default samples = %d, want 10", stats.Samples)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}
}

func TestUnknownModeIgnored(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'?'}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("unknown mode should close the connection")
	}
}

// TestThroughputBurstFullWindow: a healthy path yields a full-duration
// measurement.
func TestThroughputBurstFullWindow(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := ThroughputBurst(ctx, conn, 150*time.Millisecond, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 150*time.Millisecond || res.Mbps <= 0 {
		t.Errorf("burst result = %+v, want a full >=150ms window with positive Mbps", res)
	}
}

// TestThroughputBurstTruncatedIsError: a deadline that expires inside the
// measurement window must yield ErrTruncatedBurst, never an Mbps number
// measured over a shorter interval than configured.
func TestThroughputBurstTruncatedIsError(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := ThroughputBurst(ctx, conn, 10*time.Second, 64<<10)
	if !errors.Is(err, ErrTruncatedBurst) {
		t.Fatalf("err = %v (result %+v), want ErrTruncatedBurst", err, res)
	}
	if res.Mbps != 0 {
		t.Errorf("truncated burst still reported Mbps = %v", res.Mbps)
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
// accept failure must not take the probe target down — Serve backs off,
// retries, and answers the connection that arrives next. Pre-fix, Serve
// returned on the first accept error of any kind and every later probe
// round against this server failed.
func TestServeSurvivesTemporaryAcceptError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(&flakyListener{Listener: ln})
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	defer s.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := ProbeRTT(conn, 2); err != nil {
		select {
		case serveErr := <-done:
			t.Fatalf("probe after a temporary accept error: %v (Serve returned %v)", err, serveErr)
		default:
			t.Fatalf("probe after a temporary accept error: %v", err)
		}
	}
}
