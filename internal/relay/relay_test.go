package relay

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/leakcheck"
	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// dialVia opens a connection to target through the CONNECT-mode relay at
// relayAddr (chain.Dial with one hop; the chain package imports this one).
func dialVia(ctx context.Context, relayAddr, target string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", relayAddr)
	if err != nil {
		return nil, err
	}
	return Connect(ctx, conn, target)
}

// echoServer accepts connections and echoes everything back.
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

// startRelay serves a relay for the test's lifetime, giving it a registry
// of its own unless cfg brings one, so its counters are readable.
func startRelay(t *testing.T, cfg Config) *Relay {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(ln, cfg)
	go r.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// waitFor polls cond until it holds or a 5 s deadline expires (counters
// are incremented by handler goroutines after the client sees a reply).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cond() {
		t.Error("condition not reached within deadline")
	}
}

func roundtrip(t *testing.T, conn net.Conn, msg string) string {
	t.Helper()
	if _, err := io.WriteString(conn, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestFixedTargetForward(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String()})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "through the overlay"); got != "through the overlay" {
		t.Errorf("echo = %q", got)
	}
	if metric(r.cfg.Obs, "cronets_relay_accepted_total") != 1 {
		t.Errorf("accepted = %d", metric(r.cfg.Obs, "cronets_relay_accepted_total"))
	}
	// Each direction counts its bytes once its write returns, which can
	// land after the client has read the echo.
	waitFor(t, func() bool {
		return metric(r.cfg.Obs, `cronets_relay_bytes_total{dir="up"}`) > 0 &&
			metric(r.cfg.Obs, `cronets_relay_bytes_total{dir="down"}`) > 0
	})
}

func TestConnectMode(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "split tcp hop"); got != "split tcp hop" {
		t.Errorf("echo = %q", got)
	}
}

func TestConnectModeBadRequest(t *testing.T) {
	r := startRelay(t, Config{})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR") {
		t.Errorf("reply = %q, want ERR", line)
	}
}

func TestConnectModeDialFailure(t *testing.T) {
	r := startRelay(t, Config{DialTimeout: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Port 1 on localhost should refuse.
	_, err := dialVia(ctx, r.Addr().String(), "127.0.0.1:1")
	if err == nil {
		t.Fatal("expected dial failure via relay")
	}
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_errors_total") > 0 })
}

// TestParseConnectTrace: the CONNECT request parser returns the target
// and, when present and well formed, the propagated trace context; a bad
// trace token never fails the handshake.
func TestParseConnectTrace(t *testing.T) {
	tc := flowtrace.Context{Trace: flowtrace.TraceID{1}, Span: 2, Sampled: true}
	unsampled := tc
	unsampled.Sampled = false
	tests := []struct {
		line    string
		want    string
		wantTC  flowtrace.Context
		wantErr bool
	}{
		{line: "CONNECT 10.0.0.1:80\n", want: "10.0.0.1:80"},
		{line: "CONNECT example.com:443", want: "example.com:443"},
		{line: "CONNECT [::1]:80\n", want: "[::1]:80"},
		{line: "CONNECT 10.0.0.1:80\r\n", want: "10.0.0.1:80"},
		{line: "CONNECT 10.0.0.1:80\npipelined bytes", want: "10.0.0.1:80"},
		{line: "CONNECT 10.0.0.1:80 TP=" + string(tc.AppendText(nil)) + "\n", want: "10.0.0.1:80", wantTC: tc},
		{line: "CONNECT 10.0.0.1:80 TP=" + string(unsampled.AppendText(nil)) + "\n", want: "10.0.0.1:80"},
		{line: "CONNECT 10.0.0.1:80 TP=garbage\n", want: "10.0.0.1:80"},
		{line: "CONNECT 10.0.0.1:80 extra\n", want: "10.0.0.1:80"},
		{line: "CONNECT " + strings.Repeat("a", 253) + ":65535 TP=" + string(tc.AppendText(nil)) + "\n",
			want: strings.Repeat("a", 253) + ":65535", wantTC: tc},
		{line: "CONNECT " + strings.Repeat("a", maxRequestLen) + ":80\n", wantErr: true},
		// A full read buffer with no LF, even one ending in CR.
		{line: "CONNECT a:1 " + strings.Repeat("x", maxRequestLen-13) + "\r", wantErr: true},
		{line: "CONNECT nohost\n", wantErr: true},
		{line: "CONNECT :80\n", wantErr: true},
		{line: "CONNECT a\x00b:80\n", wantErr: true},
		{line: "FETCH 10.0.0.1:80\n", wantErr: true},
		{line: "", wantErr: true},
	}
	for _, tt := range tests {
		got, gotTC, err := ParseRequest([]byte(tt.line))
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseRequest(%.40q) err = %v", tt.line, err)
			continue
		}
		if string(got) != tt.want || gotTC != tt.wantTC {
			t.Errorf("ParseRequest(%.40q) = %q, %+v; want %q, %+v", tt.line, got, gotTC, tt.want, tt.wantTC)
		}
	}
}

func TestMaxConns(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String(), MaxConns: 1})

	first, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if got := roundtrip(t, first, "hold"); got != "hold" {
		t.Fatal("first connection broken")
	}

	// Second connection should be dropped by the relay.
	second, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	_, _ = io.WriteString(second, "x")
	if _, err := second.Read(buf); err == nil {
		t.Error("second connection should have been closed")
	}
}

func TestIdleTimeout(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String(), IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "warm"); got != "warm" {
		t.Fatal("initial echo failed")
	}
	// Stay idle past the timeout; the relay should cut the connection.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("idle connection not closed")
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(ln, Config{Target: "127.0.0.1:1"})
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrRelayClosed) {
			t.Errorf("Serve returned %v, want ErrRelayClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestChainedRelays(t *testing.T) {
	// Two overlay hops in sequence (multi-hop overlay, Section VII-B).
	echo := echoServer(t)
	inner := startRelay(t, Config{Target: echo.Addr().String()})
	outer := startRelay(t, Config{Target: inner.Addr().String()})
	conn, err := net.Dial("tcp", outer.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "two hops"); got != "two hops" {
		t.Errorf("echo = %q", got)
	}
}

func TestLargeTransferThroughRelay(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{Target: echo.Addr().String()})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const total = 4 << 20
	go func() {
		chunk := make([]byte, 64<<10)
		for i := range chunk {
			chunk[i] = byte(i)
		}
		sent := 0
		for sent < total {
			n, err := conn.Write(chunk)
			if err != nil {
				return
			}
			sent += n
		}
	}()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	got, err := io.ReadAll(io.LimitReader(conn, total))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Errorf("read %d bytes, want %d", len(got), total)
	}
	for i := 0; i < 64<<10; i++ {
		if got[i] != byte(i) {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestConnectModePipelinedData(t *testing.T) {
	// Data written immediately after the CONNECT line must not be lost.
	echo := echoServer(t)
	r := startRelay(t, Config{})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "CONNECT %s\nearly", echo.Addr().String()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("handshake: %q, %v", line, err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(br, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "early" {
		t.Errorf("pipelined data = %q", buf)
	}
}

// TestPipelinedFlowCountedAndSpliced: bytes a client pipelines behind its
// CONNECT line are forwarded ahead of the flow and counted into bytes_up
// with it, and the downstream socket reaches the data plane unwrapped, so
// a bulk flow still moves to kernel splice where the platform has it.
func TestPipelinedFlowCountedAndSpliced(t *testing.T) {
	const bulk = 16 << 20
	echo := echoServer(t)
	reg := obs.NewRegistry()
	pipe.InstrumentPool(reg)
	r := startRelay(t, Config{Obs: reg})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "CONNECT %s\nearly", echo.Addr().String()); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 3)
	if _, err := io.ReadFull(conn, reply); err != nil || string(reply) != "OK\n" {
		t.Fatalf("handshake: %q, %v", reply, err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), bulk/16)
	errc := make(chan error, 1)
	go func() {
		_, err := conn.Write(payload)
		if err == nil {
			err = conn.(*net.TCPConn).CloseWrite()
		}
		errc <- err
	}()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("early"), payload...); !bytes.Equal(got, want) {
		t.Fatalf("echo: got %d bytes, want %d byte-exact", len(got), len(want))
	}
	up := obs.Label("cronets_relay_bytes_total", "dir", "up")
	waitFor(t, func() bool { return metric(reg, up) == bulk+5 })
	if got := metric(reg, up); got != bulk+5 {
		t.Errorf("%s = %d, want %d", up, got, bulk+5)
	}
	if n := metric(reg, "cronets_pipe_splices_total"); runtime.GOOS == "linux" && n == 0 {
		t.Error("cronets_pipe_splices_total = 0: the pipelined bulk flow never reached kernel splice")
	}
}

// flakyDialer fails its first n dials with ECONNREFUSED, then delegates
// to a real dialer — a target that refuses until it finishes restarting.
type flakyDialer struct {
	mu       sync.Mutex
	failures int
	attempts int
	inner    net.Dialer
}

func (d *flakyDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.attempts++
	refuse := d.attempts <= d.failures
	d.mu.Unlock()
	if refuse {
		return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
	}
	return d.inner.DialContext(ctx, network, addr)
}

// TestDialRetrySucceeds: a target refusing the first N connects is still
// reached once the bounded retry loop outlasts the refusals, and the
// retries are counted.
func TestDialRetrySucceeds(t *testing.T) {
	echo := echoServer(t)
	dialer := &flakyDialer{failures: 2}
	r := startRelay(t, Config{
		Target:           echo.Addr().String(),
		Dialer:           dialer,
		DialRetries:      3,
		DialRetryBackoff: 5 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "after restart"); got != "after restart" {
		t.Errorf("echo = %q", got)
	}
	if got := metric(r.cfg.Obs, "cronets_relay_dial_retries_total"); got != 2 {
		t.Errorf("dial retries = %d, want 2", got)
	}
	if got := metric(r.cfg.Obs, "cronets_relay_errors_total"); got != 0 {
		t.Errorf("errors = %d, want 0 (retries are not errors)", got)
	}
}

// TestDialRetryExhausted: when refusals outlast the retry budget the
// relay gives up and counts one error.
func TestDialRetryExhausted(t *testing.T) {
	echo := echoServer(t)
	dialer := &flakyDialer{failures: 10}
	r := startRelay(t, Config{
		Target:           echo.Addr().String(),
		Dialer:           dialer,
		DialRetries:      2,
		DialRetryBackoff: time.Millisecond,
	})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection should drop once retries are exhausted")
	}
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_errors_total") == 1 })
	if got := metric(r.cfg.Obs, "cronets_relay_dial_retries_total"); got != 2 {
		t.Errorf("dial retries = %d, want 2", got)
	}
}

// TestNonTransientDialNotRetried: an unreachable-network style failure
// fails fast even with retries configured.
func TestNonTransientDialNotRetried(t *testing.T) {
	if transientDialError(errors.New("no such host")) {
		t.Error("generic error classified transient")
	}
	if !transientDialError(&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}) {
		t.Error("ECONNREFUSED should be transient")
	}
	if !transientDialError(context.DeadlineExceeded) {
		t.Error("deadline exceeded should be transient")
	}
}

// holdServer accepts connections and holds them open without answering,
// so relayed connections stay Active for the duration of the test.
func holdServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range held {
			_ = c.Close()
		}
		mu.Unlock()
	})
	return ln
}

// TestMaxConnsAcceptBurst (regression): a burst of simultaneous connects
// must never overshoot MaxConns. Pre-fix, Serve checked the active count
// — which the handler goroutine increments later — so a burst sailed
// through; capacity is now reserved atomically at accept time and the
// shed connections count as overloaded, not as errors.
func TestMaxConnsAcceptBurst(t *testing.T) {
	const maxConns, burst = 4, 32
	hold := holdServer(t)
	r := startRelay(t, Config{Target: hold.Addr().String(), MaxConns: maxConns})

	var wg sync.WaitGroup
	conns := make([]net.Conn, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", r.Addr().String())
			if err == nil {
				conns[i] = c
			}
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	}()

	waitFor(t, func() bool {
		return metric(r.cfg.Obs, "cronets_relay_accepted_total")+metric(r.cfg.Obs, "cronets_relay_overloaded_total") == burst
	})
	if got := metric(r.cfg.Obs, "cronets_relay_accepted_total"); got != maxConns {
		t.Errorf("accepted = %d, want exactly %d (cap overshot)", got, maxConns)
	}
	if got := metric(r.cfg.Obs, "cronets_relay_active"); got > maxConns {
		t.Errorf("active = %d, want <= %d", got, maxConns)
	}
	if got := metric(r.cfg.Obs, "cronets_relay_overloaded_total"); got != burst-maxConns {
		t.Errorf("overloaded = %d, want %d", got, burst-maxConns)
	}
	if got := metric(r.cfg.Obs, "cronets_relay_errors_total"); got != 0 {
		t.Errorf("errors = %d, want 0 (shedding is not an error)", got)
	}
}

// refuseDialer fails every dial with ECONNREFUSED (a transient error, so
// the retry schedule engages) and counts attempts.
type refuseDialer struct{ calls atomic.Int64 }

func (d *refuseDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	d.calls.Add(1)
	return nil, &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
}

// TestDialRetryBackoffAbortsOnClose (regression): Close must interrupt a
// handler parked in dial-retry backoff. Pre-fix, dialUpstream slept with
// time.Sleep, so Close blocked on wg.Wait for the rest of the schedule
// (here several seconds).
func TestDialRetryBackoffAbortsOnClose(t *testing.T) {
	leakcheck.Check(t)
	d := &refuseDialer{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := New(ln, Config{
		Obs:              obs.NewRegistry(),
		Dialer:           d,
		DialRetries:      1000,
		DialRetryBackoff: 300 * time.Millisecond,
	})
	go r.Serve() //nolint:errcheck

	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "CONNECT 127.0.0.1:1\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_dial_retries_total") >= 1 })

	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v; handler slept through its retry backoff", elapsed)
	}
}

// TestDialRetryAbortsWhenClientHangsUp (regression): a client that gives
// up mid-retry-schedule must release the relay goroutine and its MaxConns
// slot immediately, not after the remaining backoff (several seconds
// here). The pipelined case is a client with bytes behind its CONNECT
// line — a chain's next hop's line, at a middle hop: before its fix, the
// abort watcher's one-byte peek returned at once on the buffered line, so
// that hangup went unwatched and the retry schedule kept the slot.
func TestDialRetryAbortsWhenClientHangsUp(t *testing.T) {
	for _, tt := range []struct{ name, preamble string }{
		{"single", "CONNECT 127.0.0.1:1\n"},
		{"pipelined", "CONNECT 127.0.0.1:1\nCONNECT 127.0.0.1:2\n"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			d := &refuseDialer{}
			r := startRelay(t, Config{
				Dialer:           d,
				DialRetries:      1000,
				DialRetryBackoff: 300 * time.Millisecond,
			})

			conn, err := net.Dial("tcp", r.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.WriteString(conn, tt.preamble); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_active") == 1 })
			waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_dial_retries_total") >= 1 })

			// Hang up. The abort watcher must cancel the dial context and the
			// handler must release its slot well inside waitFor's 5 s budget.
			_ = conn.Close()
			waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_active") == 0 })
			attempts := d.calls.Load()
			time.Sleep(50 * time.Millisecond)
			if got := d.calls.Load(); got != attempts {
				t.Errorf("dial attempts kept coming after the client hung up: %d -> %d", attempts, got)
			}
		})
	}
}

// TestPendingCapShedRefuses: a CONNECT-mode socket shed at the pending
// cap gets the typed ERR overloaded line before the close, so the client
// sees a refusal (ErrRefused), not a bare EOF.
func TestPendingCapShedRefuses(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{MaxConns: 1})
	// Two idle pre-CONNECT sockets fill the 2×MaxConns pending cap.
	for i := 0; i < 2; i++ {
		idle, err := net.Dial("tcp", r.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer idle.Close()
	}
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_accepted_total") == 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("err = %v, want an ERR overloaded refusal (ErrRefused)", err)
	}
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_overloaded_total") == 1 })
	if got := metric(r.cfg.Obs, "cronets_relay_accepted_total"); got != 2 {
		t.Errorf("accepted = %d, want 2 (the shed socket is not admitted)", got)
	}
}

// TestIdlePreconnectDoesNotBurnSlot (regression): a connected socket that
// has not yet sent its CONNECT preamble — a gateway's warm pool leg —
// must not consume a MaxConns slot, and must be tolerated for longer than
// DialTimeout.
func TestIdlePreconnectDoesNotBurnSlot(t *testing.T) {
	echo := echoServer(t)
	r := startRelay(t, Config{MaxConns: 1, DialTimeout: 200 * time.Millisecond})

	// A warm, idle, pre-CONNECT socket...
	idle, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_accepted_total") == 1 })

	// ...must leave the single MaxConns slot free for a real flow, and
	// must itself survive past DialTimeout (pre-fix the preamble read
	// deadline was DialTimeout, which would kill pooled sockets).
	time.Sleep(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
	if err != nil {
		t.Fatalf("real flow blocked by an idle pre-CONNECT socket: %v", err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "warm leg"); got != "warm leg" {
		t.Errorf("echo = %q", got)
	}

	// The idle socket is still usable: late preamble, same slot dance.
	_ = conn.Close()
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_active") == 0 })
	late, err := Connect(ctx, idle, echo.Addr().String())
	if err != nil {
		t.Fatalf("late CONNECT on the warm socket: %v", err)
	}
	if got := roundtrip(t, late, "late leg"); got != "late leg" {
		t.Errorf("echo = %q", got)
	}
}

// TestPreconnectEOFIsNotAnError: a warm socket closed before sending any
// preamble is normal pool churn and must not count as a relay error.
func TestPreconnectEOFIsNotAnError(t *testing.T) {
	r := startRelay(t, Config{})
	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_accepted_total") == 1 })
	_ = conn.Close()
	time.Sleep(50 * time.Millisecond)
	if got := metric(r.cfg.Obs, "cronets_relay_errors_total"); got != 0 {
		t.Errorf("errors = %d, want 0 (pre-preamble EOF is pool churn)", got)
	}
}

// TestConnectModeOverloadAtPreamble: with the MaxConns reservation
// deferred to preamble arrival, an over-capacity CONNECT is refused with
// ERR overloaded and counted in cronets_relay_overloaded_total.
func TestConnectModeOverloadAtPreamble(t *testing.T) {
	hold := holdServer(t)
	r := startRelay(t, Config{MaxConns: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	first, err := dialVia(ctx, r.Addr().String(), hold.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	_, err = dialVia(ctx, r.Addr().String(), hold.Addr().String())
	if err == nil {
		t.Fatal("second CONNECT succeeded past MaxConns=1")
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Errorf("err = %v, want ERR overloaded refusal", err)
	}
	waitFor(t, func() bool { return metric(r.cfg.Obs, "cronets_relay_overloaded_total") == 1 })
	if got := metric(r.cfg.Obs, "cronets_relay_overloaded_total"); got != 1 {
		t.Errorf("overloaded = %d, want 1", got)
	}
	if got := metric(r.cfg.Obs, "cronets_relay_errors_total"); got != 0 {
		t.Errorf("errors = %d, want 0 (shedding is not an error)", got)
	}
}

// metric reads one series from a registry snapshot — the store /metrics
// serves — as an int64 (0 when the series does not exist).
func metric(reg *obs.Registry, name string) int64 {
	v, _ := reg.Snapshot()[name].(int64)
	return v
}

// flakyListener returns one temporary accept error — EMFILE or
// ECONNABORTED under load — before delegating to the real listener.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: transient resource exhaustion" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (f *flakyListener) Accept() (net.Conn, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, tempErr{}
	}
	return f.Listener.Accept()
}

// TestServeSurvivesTemporaryAcceptError (regression): a temporary Accept
// failure must not stop the relay — Serve backs off, retries, counts it,
// and relays the connection that arrives next. Pre-fix, Serve returned on
// the first accept error of any kind and the relay went dark.
func TestServeSurvivesTemporaryAcceptError(t *testing.T) {
	echo := echoServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := New(&flakyListener{Listener: ln}, Config{Target: echo.Addr().String(), Obs: reg})
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "after EMFILE"); got != "after EMFILE" {
		t.Errorf("echo = %q", got)
	}
	if got := metric(reg, "cronets_relay_accept_errors_total"); got != 1 {
		t.Errorf("accept errors = %d, want 1", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrRelayClosed {
		t.Fatalf("Serve returned %v, want ErrRelayClosed", err)
	}
}

// TestRelaysShareRegistry: relays sharing one registry count into the
// same series. Pre-fix each relay mirrored private counters into the
// registry through a CounterFunc, re-registration replaced the function,
// and /metrics reported only the relay constructed last.
func TestRelaysShareRegistry(t *testing.T) {
	echo := echoServer(t)
	reg := obs.NewRegistry()
	relays := []*Relay{startRelay(t, Config{Obs: reg}), startRelay(t, Config{Obs: reg})}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, r := range relays {
		conn, err := dialVia(ctx, r.Addr().String(), echo.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if got := roundtrip(t, conn, "one flow"); got != "one flow" {
			t.Errorf("echo = %q", got)
		}
		_ = conn.Close()
	}
	waitFor(t, func() bool { return metric(reg, "cronets_relay_accepted_total") == 2 })
	if got := metric(reg, "cronets_relay_accepted_total"); got != 2 {
		t.Errorf("cronets_relay_accepted_total = %d, want 2 (one flow per relay)", got)
	}
}
