package relay

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"cronets/internal/flowtrace"
	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// countingListener hands out connections that count the bytes the relay
// reads from them.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.read}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestOverlongRequestRefused (regression): a client that streams a
// request line with no LF is refused once it has sent one maximal
// request, not buffered for as long as it keeps sending. Pre-fix the
// relay read the whole 1 MiB and kept waiting for the LF.
func TestOverlongRequestRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	reg := obs.NewRegistry()
	r := New(cl, Config{Obs: reg})
	go r.Serve() //nolint:errcheck // closed in cleanup
	t.Cleanup(func() { _ = r.Close() })

	conn, err := net.Dial("tcp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		_, _ = conn.Write(bytes.Repeat([]byte("A"), 1<<20))
	}()
	defer func() { _ = conn.Close(); <-wrote }()

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); pipe.IsTimeout(err) {
		t.Fatal("relay kept the connection open on an unterminated request line")
	}
	waitFor(t, func() bool {
		return metric(reg, "cronets_relay_errors_total") == 1 && r.pending.Load() == 0
	})
	if got := cl.read.Load(); got > int64(maxRequestLen) {
		t.Errorf("relay read %d bytes of an unterminated request, want <= %d", got, maxRequestLen)
	}
}

// TestConnectEndlessReplyRefused (regression): a peer that answers the
// CONNECT with a line that never ends is a refusal as soon as the reply
// bound is read. Pre-fix Connect read until the context deadline.
func TestConnectEndlessReplyRefused(t *testing.T) {
	addr := connectServer(t, func(c net.Conn) {
		line := bytes.Repeat([]byte("x"), 4096)
		for {
			if _, err := c.Write(line); err != nil {
				return
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := dialConnect(t, ctx, addr)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("Connect took %v to refuse an endless reply", waited)
	}
}

// TestConnectWireBytes pins the handshake's bytes on the wire: the
// request, untraced and traced, and every reply line.
func TestConnectWireBytes(t *testing.T) {
	tc := flowtrace.Context{Trace: flowtrace.TraceID{0xab, 1}, Span: 7, Sampled: true}
	for _, tt := range []struct {
		ctx  context.Context
		want string
	}{
		{context.Background(), "CONNECT 10.0.0.1:80\n"},
		{flowtrace.NewGoContext(context.Background(), tc),
			"CONNECT 10.0.0.1:80 TP=ab01" + string(bytes.Repeat([]byte("00"), 14)) + "8000000000000007\n"},
	} {
		a, b := net.Pipe()
		got := make(chan []byte, 1)
		go func() {
			defer b.Close()
			line := make([]byte, len(tt.want))
			_, _ = io.ReadFull(b, line)
			got <- line
			_ = writeReply(b, replyOK)
		}()
		conn, err := Connect(tt.ctx, a, "10.0.0.1:80")
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
		if line := <-got; string(line) != tt.want {
			t.Errorf("request = %q, want %q", line, tt.want)
		}
	}
	for r, want := range map[reply]string{
		replyOK:         "OK\n",
		replyBadRequest: "ERR bad request\n",
		replyForbidden:  "ERR forbidden\n",
		replyOverloaded: "ERR overloaded\n",
		replyDialFailed: "ERR dial failed\n",
	} {
		if string(r) != want || len(r) > maxReplyLen {
			t.Errorf("reply %q, want %q within %d bytes", r, want, maxReplyLen)
		}
	}
}

// TestParseRequestAllocs: netem's sniffer runs the parser on the first
// chunk of every traced connection, so a request, traced or not, and a
// line that is no request must parse without allocating.
func TestParseRequestAllocs(t *testing.T) {
	tc := flowtrace.Context{Trace: flowtrace.TraceID{1}, Span: 2, Sampled: true}
	for _, line := range [][]byte{
		[]byte("CONNECT 10.0.0.1:80\n"),
		appendRequest(nil, "10.0.0.1:80", tc),
		[]byte("SSH-2.0-OpenSSH_9.6\r\n"),
	} {
		if n := testing.AllocsPerRun(100, func() { _, _, _ = ParseRequest(line) }); n != 0 {
			t.Errorf("ParseRequest(%q) allocates %.0f times", line, n)
		}
	}
}

// FuzzParseRequest: any request line the parser accepts re-encodes
// within the length bound to a line that parses to the same target and
// trace context, and the target check agrees with net.SplitHostPort.
func FuzzParseRequest(f *testing.F) {
	tc := flowtrace.Context{Trace: flowtrace.TraceID{1}, Span: 2, Sampled: true}
	f.Add([]byte("CONNECT 10.0.0.1:80\n"))
	f.Add([]byte("CONNECT [::1]:443\r\nearly"))
	f.Add(appendRequest(nil, "example.com:443", tc))
	f.Add([]byte("CONNECT a:1 TP=garbage extra\n"))
	f.Add([]byte("GET / HTTP/1.1\n"))
	f.Add([]byte("[fe80::1%eth0]:80"))
	f.Add([]byte("[a]b:80"))
	f.Fuzz(func(t *testing.T, b []byte) {
		host, port, splitErr := net.SplitHostPort(string(b))
		printable := bytes.IndexFunc(b, func(r rune) bool { return r <= ' ' || r > '~' }) < 0
		if want := splitErr == nil && host != "" && port != "" && printable; validHostPort(b) != want {
			t.Fatalf("validHostPort(%q) = %v, net.SplitHostPort says %v", b, !want, want)
		}
		target, tc, err := ParseRequest(b)
		if err != nil {
			return
		}
		line := appendRequest(nil, string(target), tc)
		if len(line) > maxRequestLen {
			t.Fatalf("accepted %q re-encodes to %d bytes, over %d", b, len(line), maxRequestLen)
		}
		target2, tc2, err := ParseRequest(line)
		if err != nil || !bytes.Equal(target2, target) || tc2 != tc {
			t.Fatalf("re-parse of %q = %q, %+v, %v; want %q, %+v", line, target2, tc2, err, target, tc)
		}
	})
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadReply: the reply reader accepts exactly a leading "OK\n",
// reading those 3 bytes and no more; anything else that arrives whole is
// a refusal, and no reply costs more than maxReplyLen bytes.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("OK\nbanner"))
	f.Add([]byte("ERR forbidden\n"))
	f.Add([]byte("OK"))
	f.Add(bytes.Repeat([]byte("x"), 2*maxReplyLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, r := range []io.Reader{bytes.NewReader(b), iotest.OneByteReader(bytes.NewReader(b))} {
			cr := &countReader{r: r}
			err := readReply(cr)
			if cr.n > maxReplyLen {
				t.Fatalf("read %d bytes of %q, over %d", cr.n, b, maxReplyLen)
			}
			if ok := bytes.HasPrefix(b, []byte(replyOK)); ok != (err == nil) {
				t.Fatalf("readReply(%q) = %v", b, err)
			}
			if err == nil && cr.n != len(replyOK) {
				t.Fatalf("OK reply consumed %d bytes, want %d", cr.n, len(replyOK))
			}
			if err != nil && len(b) >= len(replyOK) && !errors.Is(err, ErrRefused) {
				t.Fatalf("readReply(%q) = %v, want ErrRefused", b, err)
			}
		}
	})
}

// FuzzReadReplies: a pipelined chain reads its replies with successive
// readReply calls on one stream. Each OK consumes exactly its 3 bytes,
// so reply i starts at byte 3i, and the first reply that is not OK is
// reported at its own index, never at a later one.
func FuzzReadReplies(f *testing.F) {
	f.Add([]byte("OK\nOK\nOK\nOK\n"))
	f.Add([]byte("OK\nERR forbidden\nOK\n"))
	f.Add([]byte("OK\nOK\nERR dial failed\n"))
	f.Add([]byte("OK\nOK"))
	f.Add([]byte("OK\nOK\r\nOK\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		const hops = 4
		want := 0 // index of the first reply that is not OK
		for want < hops && bytes.HasPrefix(b[min(3*want, len(b)):], []byte(replyOK)) {
			want++
		}
		for _, r := range []io.Reader{bytes.NewReader(b), iotest.OneByteReader(bytes.NewReader(b))} {
			cr := &countReader{r: r}
			got := 0
			for ; got < hops; got++ {
				before := cr.n
				if err := readReply(cr); err != nil {
					break
				}
				if cr.n-before != len(replyOK) {
					t.Fatalf("reply %d of %q: OK consumed %d bytes, want %d", got, b, cr.n-before, len(replyOK))
				}
			}
			if got != want {
				t.Fatalf("replies %q: first failure at %d, want %d", b, got, want)
			}
		}
	})
}
