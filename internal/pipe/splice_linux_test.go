package pipe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"cronets/internal/leakcheck"
	"cronets/internal/obs"
)

// spliceCount reads cronets_pipe_splices_total the way an operator does.
func spliceCount() int64 {
	v, _ := poolReg.Snapshot()["cronets_pipe_splices_total"].(int64)
	return v
}

// streamLen is the period of a test stream. It is no power of two, so a
// dropped or repeated buffer-sized chunk shifts the pattern and fails the
// byte-exact check rather than landing on identical bytes.
const streamLen = 1<<20 + 7

// stream returns the repeating content of test stream id; distinct ids
// differ at every offset, so crossed directions fail too.
func stream(id byte) []byte {
	b := make([]byte, streamLen)
	for i := range b {
		b[i] = byte(i*131+i>>11) ^ id
	}
	return b
}

// sendStream writes the first n bytes of the endless repetition of s.
func sendStream(w io.Writer, s []byte, n int64) error {
	for off := int64(0); off < n; {
		i := int(off % streamLen)
		chunk := s[i:min(len(s), i+int(min(n-off, 1<<20)))]
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		off += int64(len(chunk))
	}
	return nil
}

// recvStream reads r to EOF, checking every byte against the endless
// repetition of s, and returns how many bytes matched.
func recvStream(r io.Reader, s []byte) (int64, error) {
	buf := make([]byte, 64<<10)
	var off int64
	for {
		k, err := r.Read(buf)
		for got := buf[:k]; len(got) > 0; {
			i := int(off % streamLen)
			want := s[i:min(len(s), i+len(got))]
			if !bytes.Equal(got[:len(want)], want) {
				return off, fmt.Errorf("stream mismatch in the %d bytes after offset %d", len(want), off)
			}
			off += int64(len(want))
			got = got[len(want):]
		}
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, err
		}
	}
}

// exchange sends n bytes of out and half-closes while it verifies that
// in arrives up to EOF; it returns the verified byte count.
func exchange(c net.Conn, out, in []byte, n int64) (int64, error) {
	errc := make(chan error, 1)
	go func() {
		err := sendStream(c, out, n)
		if err == nil {
			err = c.(*net.TCPConn).CloseWrite()
		}
		errc <- err
	}()
	got, err := recvStream(c, in)
	return got, errors.Join(err, <-errc)
}

// sendThenRecv half-closes first: it sends n bytes of out, half-closes,
// then verifies in up to EOF.
func sendThenRecv(c net.Conn, out, in []byte, n int64) (int64, error) {
	if err := sendStream(c, out, n); err != nil {
		return 0, err
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		return 0, err
	}
	return recvStream(c, in)
}

// recvThenSend waits for the peer's half-close: it verifies in up to
// EOF, then sends n bytes of out and half-closes.
func recvThenSend(c net.Conn, out, in []byte, n int64) (int64, error) {
	got, err := recvStream(c, in)
	if err != nil {
		return got, err
	}
	if err := sendStream(c, out, n); err != nil {
		return got, err
	}
	return got, c.(*net.TCPConn).CloseWrite()
}

// flowDeadline bounds every test flow, so a lost FIN or a stuck
// direction fails the test instead of hanging it.
const flowDeadline = 20 * time.Second

type streamResult struct {
	n   int64
	err error
}

// serveOnce runs fn on the first connection a fresh listener accepts and
// reports its result.
func serveOnce(t *testing.T, fn func(net.Conn) (int64, error)) (addr string, res <-chan streamResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan streamResult, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			out <- streamResult{err: err}
			return
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(flowDeadline))
		n, err := fn(c)
		out <- streamResult{n, err}
	}()
	return ln.Addr().String(), out
}

// TestSpliceBulkByteExact: 64 MiB each way at once moves to kernel splice
// and arrives byte-exact, with Result and the live counters agreeing with
// what was sent, and every pooled buffer returned.
func TestSpliceBulkByteExact(t *testing.T) {
	const n = 64 << 20
	up, down := stream(1), stream(2)
	var cntA, cntB obs.Counter
	before := spliceCount()
	gets, returns := poolDelta(t, func() {
		srvAddr, srv := serveOnce(t, func(c net.Conn) (int64, error) { return exchange(c, down, up, n) })
		addr, done, errc := startSplice(t, srvAddr, Options{CountAToB: &cntA, CountBToA: &cntB})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(flowDeadline))
		got, err := exchange(conn, up, down, n)
		if err != nil || got != n {
			t.Fatalf("client received %d verified bytes, err %v; want %d", got, err, n)
		}
		if r := <-srv; r.err != nil || r.n != n {
			t.Fatalf("server received %d verified bytes, err %v; want %d", r.n, r.err, n)
		}
		res := <-done
		if err := <-errc; err != nil {
			t.Fatalf("Bidirectional: %v", err)
		}
		if res.AToB != n || res.BToA != n {
			t.Errorf("Result = %d/%d bytes, want %d both ways", res.AToB, res.BToA, n)
		}
	})
	if cntA.Value() != n || cntB.Value() != n {
		t.Errorf("counters = %d/%d, want %d both ways", cntA.Value(), cntB.Value(), n)
	}
	if spliceCount() == before {
		t.Error("cronets_pipe_splices_total did not rise: the bulk flow never left the copy loop")
	}
	if gets != returns {
		t.Errorf("pool leak: %d gets, %d returns", gets, returns)
	}
}

// TestSpliceConcurrentFlows: several bulk flows splicing at once stay
// byte-exact and independent.
func TestSpliceConcurrentFlows(t *testing.T) {
	const flows, n = 4, 8 << 20
	before := spliceCount()
	var wg sync.WaitGroup
	errs := make(chan error, flows)
	for i := range flows {
		up, down := stream(byte(2*i+1)), stream(byte(2*i+2))
		srvAddr, srv := serveOnce(t, func(c net.Conn) (int64, error) { return exchange(c, down, up, n) })
		addr, done, errc := startSplice(t, srvAddr, Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(flowDeadline))
			if got, err := exchange(conn, up, down, n); err != nil || got != n {
				errs <- fmt.Errorf("flow %d: client verified %d bytes, err %v", i, got, err)
			}
			if r := <-srv; r.err != nil || r.n != n {
				errs <- fmt.Errorf("flow %d: server verified %d bytes, err %v", i, r.n, r.err)
			}
			res := <-done
			if err := <-errc; err != nil {
				errs <- fmt.Errorf("flow %d: Bidirectional: %v", i, err)
			}
			if res.AToB != n || res.BToA != n {
				errs <- fmt.Errorf("flow %d: Result = %d/%d bytes", i, res.AToB, res.BToA)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if spliceCount() == before {
		t.Error("cronets_pipe_splices_total did not rise")
	}
}

// TestSpliceHalfClose: a direction that half-closes after switching
// forwards its FIN while the other direction keeps flowing, whichever
// side half-closes first.
func TestSpliceHalfClose(t *testing.T) {
	const n = 32 << 20
	up, down := stream(1), stream(2)
	for _, tt := range []struct {
		name           string
		client, server func(net.Conn, []byte, []byte, int64) (int64, error)
	}{
		{"client first", sendThenRecv, recvThenSend},
		{"server first", recvThenSend, sendThenRecv},
	} {
		t.Run(tt.name, func(t *testing.T) {
			before := spliceCount()
			srvAddr, srv := serveOnce(t, func(c net.Conn) (int64, error) { return tt.server(c, down, up, n) })
			addr, done, errc := startSplice(t, srvAddr, Options{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(flowDeadline))
			if got, err := tt.client(conn, up, down, n); err != nil || got != n {
				t.Fatalf("client verified %d bytes, err %v; want %d", got, err, n)
			}
			if r := <-srv; r.err != nil || r.n != n {
				t.Fatalf("server verified %d bytes, err %v; want %d", r.n, r.err, n)
			}
			res := <-done
			if err := <-errc; err != nil {
				t.Fatalf("Bidirectional: %v", err)
			}
			if res.AToB != n || res.BToA != n {
				t.Errorf("Result = %d/%d bytes, want %d both ways", res.AToB, res.BToA, n)
			}
			if spliceCount() == before {
				t.Error("cronets_pipe_splices_total did not rise")
			}
		})
	}
}

// bulkEcho pushes n bytes through conn to an echo server and reads the
// echo back in full.
func bulkEcho(t *testing.T, conn net.Conn, n int64) {
	t.Helper()
	s := stream(1)
	errc := make(chan error, 1)
	go func() { errc <- sendStream(conn, s, n) }()
	if _, err := recvStream(io.LimitReader(conn, n), s); err != nil {
		t.Fatalf("bulk echo: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("bulk send: %v", err)
	}
}

// TestSpliceTrickleKeepsIdleAlive: once a flow has switched to splice, a
// byte every IdleTimeout/3 still holds the idle timer off, and when the
// trickle stops the idle timeout fires.
func TestSpliceTrickleKeepsIdleAlive(t *testing.T) {
	const idle = 300 * time.Millisecond
	echo := echoAccept(t)
	idled := make(chan struct{})
	before := spliceCount()
	addr, done, errc := startSplice(t, echo.Addr().String(), Options{
		IdleTimeout: idle,
		OnIdle:      func() { close(idled) },
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bulkEcho(t, conn, 16<<20)
	if spliceCount() == before {
		t.Fatal("cronets_pipe_splices_total did not rise after the bulk phase")
	}

	b := make([]byte, 1)
	for i := range 9 { // 3x the timeout in sum
		time.Sleep(idle / 3)
		if _, err := conn.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("trickle write %d: %v", i, err)
		}
		if _, err := io.ReadFull(conn, b); err != nil || b[0] != byte(i) {
			t.Fatalf("trickle echo %d = %v, %v", i, b, err)
		}
	}
	select {
	case <-idled:
		t.Fatal("idle timeout fired while the flow trickled")
	default:
	}
	select {
	case <-idled:
	case <-time.After(5 * idle):
		t.Fatal("idle timeout did not fire after the trickle stopped")
	}
	res := <-done
	if err := <-errc; err != nil {
		t.Errorf("Bidirectional: %v", err)
	}
	if !res.IdleClosed {
		t.Error("Result.IdleClosed = false")
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// TestSpliceTeardownMidFlow: a context cancel or a caller Close while
// both directions are splicing ends Bidirectional promptly and cleanly,
// leaves no goroutine behind, and releases every socket and pipe fd.
func TestSpliceTeardownMidFlow(t *testing.T) {
	for _, viaCtx := range []bool{true, false} {
		name := "close"
		if viaCtx {
			name = "ctx cancel"
		}
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			echo := echoAccept(t)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			baseline := openFDs(t)

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			down, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			up, err := net.Dial("tcp", echo.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			before := spliceCount()
			done := make(chan error, 1)
			go func() {
				_, err := Bidirectional(ctx, down, up, Options{})
				done <- err
			}()

			// Keep bulk flowing both ways until the teardown.
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				_ = sendStream(conn, stream(1), 1<<40)
			}()
			go func() {
				defer wg.Done()
				_, _ = io.Copy(io.Discard, conn)
			}()
			for deadline := time.Now().Add(10 * time.Second); spliceCount() == before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("cronets_pipe_splices_total did not rise")
				}
			}

			start := time.Now()
			if viaCtx {
				cancel()
			} else {
				_ = down.Close()
				_ = up.Close()
			}
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("Bidirectional after %s = %v, want clean", name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Bidirectional did not return after %s", name)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("Bidirectional took %v to return after %s", d, name)
			}
			_ = down.Close()
			_ = up.Close()
			_ = conn.Close()
			wg.Wait()
			for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				fds := openFDs(t)
				if fds <= baseline {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d fds open after teardown, %d before the flow", fds, baseline)
				}
			}
		})
	}
}

// TestNoSpliceWithHookOrPipe: a hooked TCP flow (the hook owns delivery)
// and a flow over net.Pipe (no kernel socket) stay on the copy loop even
// when every read fills the buffer, and still deliver every byte.
func TestNoSpliceWithHookOrPipe(t *testing.T) {
	const n = 16 << 20
	up, down := stream(1), stream(2)
	before := spliceCount()

	t.Run("hook", func(t *testing.T) {
		srvAddr, srv := serveOnce(t, func(c net.Conn) (int64, error) { return exchange(c, down, up, n) })
		addr, done, errc := startSplice(t, srvAddr, Options{
			Hook: func(_ Dir, chunk []byte, write WriteFunc) error { return write(chunk) },
		})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(flowDeadline))
		if got, err := exchange(conn, up, down, n); err != nil || got != n {
			t.Fatalf("client verified %d bytes, err %v; want %d", got, err, n)
		}
		if r := <-srv; r.err != nil || r.n != n {
			t.Fatalf("server verified %d bytes, err %v; want %d", r.n, r.err, n)
		}
		<-done
		if err := <-errc; err != nil {
			t.Fatalf("Bidirectional: %v", err)
		}
	})

	t.Run("net.Pipe", func(t *testing.T) {
		client, downEnd := net.Pipe()
		upEnd, server := net.Pipe()
		defer client.Close()
		defer server.Close()
		done := make(chan Result, 1)
		go func() {
			// net.Pipe cannot half-close, so the flow ends when the
			// client closes; the result still counts what moved.
			res, _ := Bidirectional(context.Background(), downEnd, upEnd, Options{})
			done <- res
		}()
		s := stream(1)
		errc := make(chan error, 1)
		go func() { errc <- sendStream(client, s, n) }() // 1 MiB writes fill every read
		if _, err := recvStream(io.LimitReader(server, n), s); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		_ = client.Close()
		_ = server.Close()
		if res := <-done; res.AToB != n {
			t.Errorf("Result.AToB = %d, want %d", res.AToB, n)
		}
	})

	if got := spliceCount(); got != before {
		t.Errorf("cronets_pipe_splices_total rose by %d, want 0", got-before)
	}
}
