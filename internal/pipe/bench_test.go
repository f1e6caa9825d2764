package pipe

import (
	"context"
	"fmt"
	"net"
	"testing"
)

// BenchmarkPipeBidirectional measures one spliced connection per
// iteration: dial a splice bridging to an echo server, push the payload
// through both directions, tear down. The copy loop's buffers come from
// the pool and a direction that switches to kernel splice returns its
// buffer first, so a flow must not allocate beyond fixed goroutine and
// per-switch overhead. A direction switches once a read fills the
// buffer, which 64 MiB always does and 1 MiB often does; splices/op
// reports how many of the two directions switched.
func BenchmarkPipeBidirectional(b *testing.B) {
	echoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer echoLn.Close()
	go func() {
		for {
			c, err := echoLn.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						closeWrite(c)
						return
					}
				}
			}(c)
		}
	}()

	spliceLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer spliceLn.Close()
	go func() {
		for {
			down, err := spliceLn.Accept()
			if err != nil {
				return
			}
			go func(down net.Conn) {
				defer down.Close()
				up, err := net.Dial("tcp", echoLn.Addr().String())
				if err != nil {
					return
				}
				defer up.Close()
				_, _ = Bidirectional(context.Background(), down, up, Options{})
			}(down)
		}
	}()

	for _, total := range []int{1 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("%dMiB", total>>20), func(b *testing.B) {
			benchFlows(b, spliceLn.Addr().String(), total)
		})
	}
}

// benchFlows runs b.N flows of total bytes each way through the splice
// at addr.
func benchFlows(b *testing.B, addr string, total int) {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	drain := make([]byte, 64<<10)

	before := splices.Load()
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		var sent, rcvd int
		done := make(chan error, 1)
		go func() {
			for rcvd < total {
				n, err := conn.Read(drain)
				rcvd += n
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for sent < total {
			n := len(payload)
			if total-sent < n {
				n = total - sent
			}
			if _, err := conn.Write(payload[:n]); err != nil {
				b.Fatal(err)
			}
			sent += n
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		_ = conn.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(splices.Load()-before)/float64(b.N), "splices/op")
}
