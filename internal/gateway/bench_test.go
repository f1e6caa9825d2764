package gateway

import (
	"context"
	"net"
	"testing"
	"time"

	"cronets/internal/obs"
	"cronets/internal/pathmon"
)

// benchHandshakeRTT emulates the client→relay TCP-handshake round trip
// that loopback hides. A cold relay dial pays it on every Dial; a pooled
// dial paid it off the critical path when the filler warmed the socket.
const benchHandshakeRTT = time.Millisecond

// delayDialer sleeps for delay before every dial — a stand-in for the
// SYN/SYN-ACK round trip to a WAN relay.
type delayDialer struct {
	net.Dialer
	delay time.Duration
}

func (d *delayDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.Dialer.DialContext(ctx, network, addr)
}

// newBenchGateway builds a relay + fixed ranking + gateway whose relay
// leg costs benchHandshakeRTT to establish. poolSize 0 = pooling off.
func newBenchGateway(b *testing.B, poolSize int) *Gateway {
	b.Helper()
	dest := echoServer(b).String()
	rl := liveRelay(b, nil)

	g, err := New(Config{
		Dest:             dest,
		Monitor:          &scriptedRanker{best: pathmon.MakeRoute(rl.Addr().String()), chosen: true},
		Dialer:           &delayDialer{delay: benchHandshakeRTT},
		PoolSize:         poolSize,
		PoolFillInterval: time.Hour, // warm-up is explicit via Fill
		Obs:              obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = g.Close() })
	return g
}

// BenchmarkGatewayDialPooled measures relay dials riding warm pooled
// sockets: the handshake RTT is prepaid by the filler (off-timer), so
// each Dial costs one CONNECT round trip.
func BenchmarkGatewayDialPooled(b *testing.B) {
	g := newBenchGateway(b, 4)
	g.Pool().Fill()
	if g.Pool().TotalIdle() == 0 {
		b.Fatal("pool failed to warm")
	}

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Pool().TotalIdle() == 0 {
			b.StopTimer()
			g.Pool().Fill()
			b.StartTimer()
		}
		conn, _, err := g.Dial(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = conn.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if cold := metric(g.cfg.Obs, `cronets_gateway_dials_total{path="relay_cold"}`); cold != 0 {
		b.Fatalf("%d dials fell back to cold; benchmark did not measure the pooled path", cold)
	}
}

// BenchmarkGatewayDialCold is the baseline: pooling off, every relay
// dial pays the handshake RTT plus the CONNECT round trip.
func BenchmarkGatewayDialCold(b *testing.B) {
	g := newBenchGateway(b, 0)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, _, err := g.Dial(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = conn.Close()
		b.StartTimer()
	}
}
