package netem

import (
	"io"
	"net"
	"testing"
	"time"

	"cronets/internal/leakcheck"
	"cronets/internal/obs"
)

// sinkServer counts bytes it receives per connection and reports them.
func sinkServer(t *testing.T) (net.Listener, chan int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counts := make(chan int, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				n, _ := io.Copy(io.Discard, conn)
				counts <- int(n)
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln, counts
}

// TestFaultKillAtByteOffset: the shaper cuts the connection after
// forwarding exactly AfterBytes upstream — the server sees the prefix and
// nothing more, and the fault is observable in metrics and events.
func TestFaultKillAtByteOffset(t *testing.T) {
	const offset = 64 << 10
	reg := obs.NewRegistry()
	sink, counts := sinkServer(t)
	p := startProxy(t, sink.Addr().String(), Config{
		Obs: reg,
		Faults: FaultPlan{Rules: []FaultRule{
			{Conn: 0, Dir: DirUp, AfterBytes: offset, Action: FaultKill},
		}},
	})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := make([]byte, 256<<10)
	for {
		if _, err := conn.Write(payload); err != nil {
			break // the kill severed the path
		}
	}
	select {
	case got := <-counts:
		if got != offset {
			t.Errorf("server received %d bytes, want exactly %d", got, offset)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the connection end")
	}
	if v := reg.Counter("cronets_netem_faults_total", "").Value(); v != 1 {
		t.Errorf("faults counter = %d, want 1", v)
	}
	found := false
	for _, e := range reg.Events().Snapshot() {
		if e.Type == obs.EventFaultInjected {
			found = true
		}
	}
	if !found {
		t.Error("no fault-injected event recorded")
	}
}

// TestFaultKillAfterDuration: a duration trigger severs an otherwise idle
// connection.
func TestFaultKillAfterDuration(t *testing.T) {
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{
		Faults: FaultPlan{Rules: []FaultRule{
			{Conn: -1, After: 50 * time.Millisecond, Action: FaultKill},
		}},
	})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection survived the duration kill")
	}
}

// TestFaultBlackhole: a blackholed direction stalls without closing — the
// client's read times out rather than seeing EOF.
func TestFaultBlackhole(t *testing.T) {
	leakcheck.Check(t)
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{
		Faults: FaultPlan{Rules: []FaultRule{
			{Conn: -1, Dir: DirDown, AfterBytes: 4, Action: FaultBlackhole},
		}},
	})
	conn, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "ping-pong"); err != nil {
		t.Fatal(err)
	}
	// The first 4 echoed bytes arrive; the rest are swallowed silently.
	buf := make([]byte, 4)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("prefix before blackhole: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	_, err = conn.Read(make([]byte, 1))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Errorf("read after blackhole = %v, want timeout (stall, not close)", err)
	}
}

// TestFaultRefuseConns: the first N connects are refused (immediate close,
// no upstream dial), then service resumes.
func TestFaultRefuseConns(t *testing.T) {
	echo := echoServer(t)
	p := startProxy(t, echo.Addr().String(), Config{
		Faults: FaultPlan{RefuseConns: 2},
	})
	dialAndProbe := func() error {
		conn, err := net.Dial("tcp", p.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "hi"); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = io.ReadFull(conn, make([]byte, 2))
		return err
	}
	for i := 0; i < 2; i++ {
		if err := dialAndProbe(); err == nil {
			t.Errorf("connect %d should have been refused", i)
		}
	}
	if err := dialAndProbe(); err != nil {
		t.Errorf("connect after refuse budget spent: %v", err)
	}
}

// TestFaultProbabilityReproducible: with the same seed, sequential
// connections arm probabilistic rules identically across proxies.
func TestFaultProbabilityReproducible(t *testing.T) {
	outcomes := func(seed int64) []bool {
		echo := echoServer(t)
		p := startProxy(t, echo.Addr().String(), Config{
			Seed: seed,
			Faults: FaultPlan{Rules: []FaultRule{
				{Conn: -1, Probability: 0.5, Action: FaultKill},
			}},
		})
		var out []bool
		for i := 0; i < 8; i++ {
			conn, err := net.Dial("tcp", p.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.WriteString(conn, "x"); err != nil {
				out = append(out, true)
				_ = conn.Close()
				continue
			}
			_, err = io.ReadFull(conn, make([]byte, 1))
			out = append(out, err != nil)
			_ = conn.Close()
		}
		return out
	}
	a, b := outcomes(99), outcomes(99)
	killed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at conn %d: %v != %v", i, a[i], b[i])
		}
		if a[i] {
			killed++
		}
	}
	if killed == 0 || killed == len(a) {
		t.Errorf("probability 0.5 killed %d/%d conns; want a mix", killed, len(a))
	}
}
