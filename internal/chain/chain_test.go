package chain

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/leakcheck"
	"cronets/internal/relay"
)

// echoServer accepts connections and echoes everything back.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// startRelay runs a real CONNECT-mode relay and returns its address.
func startRelay(t *testing.T, cfg relay.Config) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := relay.New(ln, cfg)
	go r.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(func() { _ = r.Close() })
	return ln.Addr().String()
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

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestChainDialOneHop(t *testing.T) {
	dest := echoServer(t)
	r := startRelay(t, relay.Config{})
	conn, err := Dial(testCtx(t), []string{r}, dest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "one hop"); got != "one hop" {
		t.Errorf("echo = %q", got)
	}
}

func TestChainDialTwoHops(t *testing.T) {
	dest := echoServer(t)
	r1 := startRelay(t, relay.Config{})
	r2 := startRelay(t, relay.Config{})
	conn, err := Dial(testCtx(t), []string{r1, r2}, dest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := roundtrip(t, conn, "two real split-TCP hops"); got != "two real split-TCP hops" {
		t.Errorf("echo = %q", got)
	}
}

func TestChainDialNoHops(t *testing.T) {
	if _, err := Dial(testCtx(t), nil, "192.0.2.1:9", Options{}); err == nil {
		t.Fatal("Dial accepted an empty chain")
	}
}

func TestChainDialFirstHopUnreachable(t *testing.T) {
	// A closed listener port: the TCP dial to hop 0 fails and the error
	// names that hop.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	_, err = Dial(testCtx(t), []string{dead}, "192.0.2.1:9", Options{})
	var he *HopError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HopError", err)
	}
	if he.Hop != 0 || he.Relay != dead {
		t.Errorf("HopError = %+v, want hop 0 at %s", he, dead)
	}
}

func TestChainSecondHopRefused(t *testing.T) {
	// Relay 2's ACL forbids the destination: hop 0 (the CONNECT to relay
	// 1 targeting relay 2) succeeds, hop 1 is refused — the error names
	// hop 1 and unwraps to relay.ErrRefused.
	acl, err := relay.NewACL([]string{"10.0.0.0/8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1 := startRelay(t, relay.Config{})
	r2 := startRelay(t, relay.Config{ACL: acl})
	_, err = Dial(testCtx(t), []string{r1, r2}, "192.0.2.1:9", Options{})
	var he *HopError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HopError", err)
	}
	if he.Hop != 1 || he.Relay != r2 {
		t.Errorf("HopError = %+v, want hop 1 at %s", he, r2)
	}
	if !errors.Is(err, relay.ErrRefused) {
		t.Errorf("err = %v, want to unwrap to relay.ErrRefused", err)
	}
}

func TestChainPerHopTimeout(t *testing.T) {
	// A fake hop-1 relay that swallows the CONNECT and never answers
	// (okHops = 0: the only preamble it ever sees is hop 1's — hop 0's
	// goes to the real relay in front of it): the caller's deadline fires
	// and the error names hop 1 as a timeout.
	stall := newStallRelay(t, 0)
	r1 := startRelay(t, relay.Config{})
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := Dial(ctx, []string{r1, stall}, "192.0.2.1:9", Options{})
	var he *HopError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HopError", err)
	}
	if he.Hop != 1 {
		t.Errorf("HopError hop = %d, want 1", he.Hop)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("chain dial took %v to honor the per-hop timeout", waited)
	}
}

// newStallRelay runs a single-socket fake relay that answers okHops
// CONNECT preambles with OK and then swallows everything (a hop that
// accepted the splice but whose next CONNECT never completes).
func newStallRelay(t *testing.T, okHops int) string {
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
		br := bufio.NewReader(c)
		for i := 0; i < okHops; i++ {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			if _, err := io.WriteString(c, "OK\n"); err != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, br) // stall until the client gives up
	}()
	return ln.Addr().String()
}

func TestChainTraceParentage(t *testing.T) {
	// A sampled flow dialing a 2-hop chain records one chain.hop span per
	// hop, nested the way the bytes travel: hop 0 parents under the flow
	// span, hop 1 under hop 0 (its preamble rides hop 0's splice).
	dest := echoServer(t)
	r1 := startRelay(t, relay.Config{})
	r2 := startRelay(t, relay.Config{})
	tracer := flowtrace.New(flowtrace.Config{Node: "client", SampleRate: 1})
	root := tracer.Start("flow", flowtrace.Context{})
	ctx := flowtrace.NewGoContext(testCtx(t), root.Context())
	conn, err := Dial(ctx, []string{r1, r2}, dest, Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	root.End()

	var hops []*flowtrace.Span
	for _, s := range tracer.Snapshot() {
		if s.Name == "chain.hop" {
			hops = append(hops, s)
		}
	}
	if len(hops) != 2 {
		t.Fatalf("chain.hop spans = %d, want 2", len(hops))
	}
	// Snapshot order is ring order; identify hops by parentage.
	if hops[0].Parent == root.ID && hops[1].Parent == hops[0].ID {
		// hop 0 then hop 1.
	} else if hops[1].Parent == root.ID && hops[0].Parent == hops[1].ID {
		hops[0], hops[1] = hops[1], hops[0]
	} else {
		t.Fatalf("span parentage broken: root=%d hop spans %d<-%d, %d<-%d",
			root.ID, hops[0].ID, hops[0].Parent, hops[1].ID, hops[1].Parent)
	}
	if hops[0].Trace != root.Trace || hops[1].Trace != root.Trace {
		t.Error("hop spans left the flow's trace")
	}
	if !strings.Contains(hops[0].Detail, r1) || !strings.Contains(hops[1].Detail, r2) {
		t.Errorf("hop details %q / %q don't name relays %s / %s",
			hops[0].Detail, hops[1].Detail, r1, r2)
	}
}

func TestChainPipelinesPreambles(t *testing.T) {
	// A fake first hop takes one read before it answers anything: that
	// read must already hold every hop's request line, in hop order, each
	// carrying its own hop's span context.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	first := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4096)
		n, _ := c.Read(buf)
		first <- buf[:n]
		_, _ = io.WriteString(c, "OK\nOK\nOK\n")
		_, _ = io.Copy(io.Discard, c)
	}()

	hops := []string{ln.Addr().String(), "relay-b:1", "relay-c:2"}
	const dest = "192.0.2.1:9"
	tracer := flowtrace.New(flowtrace.Config{Node: "client", SampleRate: 1})
	root := tracer.Start("flow", flowtrace.Context{})
	ctx := flowtrace.NewGoContext(testCtx(t), root.Context())
	conn, err := Dial(ctx, hops, dest, Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	spans := map[uint64]*flowtrace.Span{}
	for _, s := range tracer.Snapshot() {
		if s.Name == "chain.hop" {
			spans[s.ID] = s
		}
	}
	lines := strings.SplitAfter(string(<-first), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("first read = %q, want all 3 request lines", lines)
	}
	parent := root.ID
	for i, want := range []string{hops[1], hops[2], dest} {
		target, tc, err := relay.ParseRequest([]byte(lines[i]))
		if err != nil || string(target) != want {
			t.Fatalf("line %d = %q (%v), want a CONNECT to %s", i, lines[i], err, want)
		}
		span := spans[tc.Span]
		if span == nil || span.Parent != parent {
			t.Fatalf("line %d carries span %d, want hop %d's span under %d", i, tc.Span, i, parent)
		}
		parent = span.ID
	}
}

func TestChainThirdHopRefused(t *testing.T) {
	// Hop 2's ACL forbids the destination, while hops 0 and 1 answer OK:
	// the error names hop 2 with its relay and target, unwraps to
	// relay.ErrRefused, and leaves neither the socket nor a goroutine
	// behind.
	leakcheck.Check(t)
	acl, err := relay.NewACL([]string{"10.0.0.0/8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1 := startRelay(t, relay.Config{})
	r2 := startRelay(t, relay.Config{})
	r3 := startRelay(t, relay.Config{ACL: acl})
	const dest = "192.0.2.1:9"
	conn, err := net.Dial("tcp", r1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Connect(testCtx(t), conn, []string{r1, r2, r3}, dest, Options{})
	var he *HopError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HopError", err)
	}
	if he.Hop != 2 || he.Relay != r3 || he.Target != dest {
		t.Errorf("HopError = %+v, want hop 2 at %s -> %s", he, r3, dest)
	}
	if !errors.Is(err, relay.ErrRefused) {
		t.Errorf("err = %v, want to unwrap to relay.ErrRefused", err)
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Error("Connect left the socket open on a hop failure")
	}
}

func TestChainHopDiesAfterPriorOK(t *testing.T) {
	// Hop 0 (a real relay) answers OK; hop 1 accepts the splice and then
	// dies without a reply. The EOF on reply 1 names hop 1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = bufio.NewReader(c).ReadString('\n')
		_ = c.Close()
	}()
	r1 := startRelay(t, relay.Config{})
	_, err = Dial(testCtx(t), []string{r1, ln.Addr().String()}, "192.0.2.1:9", Options{})
	var he *HopError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HopError", err)
	}
	if he.Hop != 1 || he.Relay != ln.Addr().String() {
		t.Errorf("HopError = %+v, want hop 1 at %s", he, ln.Addr())
	}
	if !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want the EOF of a hop that died", err)
	}
}

func TestChainConnectClosesOnEmptyHops(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	if _, err := Connect(testCtx(t), a, nil, "192.0.2.1:9", Options{}); err == nil {
		t.Fatal("Connect accepted an empty chain")
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("Connect left the socket open on the empty-hops error")
	}
}

// TestChainSpliceAllocs is the bench-smoke guard from ISSUE 8: once a
// chain is established, the client-side conn must not allocate per
// write/read roundtrip — the splice path is the same zero-alloc pooled
// forwarding as a single hop, and the chain package must not wrap the
// conn in anything that allocates.
func TestChainSpliceAllocs(t *testing.T) {
	// A single-socket fake two-hop chain: both CONNECTs answered on one
	// conn, then a preallocated echo loop — so the measurement sees only
	// the client side's work.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for i := 0; i < 2; i++ {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			if _, err := io.WriteString(c, "OK\n"); err != nil {
				return
			}
		}
		buf := make([]byte, 64)
		for {
			n, err := br.Read(buf)
			if n > 0 {
				if _, werr := c.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()

	conn, err := Dial(testCtx(t), []string{ln.Addr().String(), "fake-hop-2:9"},
		"192.0.2.1:9", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))

	msg := []byte("0123456789abcdef")
	reply := make([]byte, len(msg))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("established chain flow allocates %.1f allocs per roundtrip, want 0", allocs)
	}
}
