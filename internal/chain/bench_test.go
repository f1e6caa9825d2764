package chain

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"cronets/internal/relay"
)

// benchChainDial measures one full chain dial per iteration — TCP to the
// first hop plus the pipelined CONNECT handshake, verified with a 16-byte
// echo — so the 1-hop vs 2-hop delta is the incremental cost of one more
// hop: its upstream dial and its reply through the established prefix.
func benchChainDial(b *testing.B, nHops int) {
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
			}(c)
		}
	}()

	hops := make([]string, 0, nHops)
	for i := 0; i < nHops; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		r := relay.New(ln, relay.Config{})
		go r.Serve() //nolint:errcheck
		defer r.Close()
		hops = append(hops, ln.Addr().String())
	}

	msg := []byte("0123456789abcdef")
	reply := make([]byte, len(msg))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := Dial(ctx, hops, echoLn.Addr().String(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			b.Fatal(err)
		}
		_ = conn.Close()
	}
}

func BenchmarkChainDial1Hop(b *testing.B) { benchChainDial(b, 1) }
func BenchmarkChainDial2Hop(b *testing.B) { benchChainDial(b, 2) }
func BenchmarkChainDial3Hop(b *testing.B) { benchChainDial(b, 3) }
