// Package measure provides iperf-style throughput measurement and
// application-level RTT probing over real sockets — the measurement side
// of the real-socket overlay stack (the simulated experiments use
// internal/tcpsim's instrumentation instead).
//
// Protocol: the client sends a one-byte mode ('S' sink, 'E' echo). In sink
// mode the server discards everything it reads. In echo mode the server
// echoes fixed-size 16-byte probe frames back.
package measure

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// Mode bytes of the measurement protocol.
const (
	modeSink = 'S'
	modeEcho = 'E'
)

// probeSize is the echo frame size.
const probeSize = 16

// Server is a measurement responder (sink + echo).
type Server struct {
	ln    net.Listener
	group *pipe.Group
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("measure: server closed")

// NewServer wraps a listener as a measurement server.
func NewServer(ln net.Listener) *Server {
	return &Server{ln: ln, group: pipe.NewGroup(ErrServerClosed, nil, slog.Default())}
}

// Addr returns the server's listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts and handles measurement connections until Close,
// retrying transient accept failures (pipe.Group.Accept).
func (s *Server) Serve() error {
	for {
		conn, err := s.group.Accept(s.ln)
		if err != nil {
			return err
		}
		if !pipe.Go(s.group, (*Server).handle, s, conn) {
			return ErrServerClosed
		}
	}
}

// Close stops the server and closes live connections.
func (s *Server) Close() error { return s.group.Close(s.ln) }

func (s *Server) handle(conn net.Conn) {
	var mode [1]byte
	if _, err := io.ReadFull(conn, mode[:]); err != nil {
		return
	}
	switch mode[0] {
	case modeSink:
		buf := pipe.Get(256 << 10)
		defer pipe.Put(buf)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	case modeEcho:
		frame := pipe.Get(probeSize)
		defer pipe.Put(frame)
		for {
			if _, err := io.ReadFull(conn, frame); err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}
}

// Result is one throughput measurement.
type Result struct {
	// Mbps is the achieved goodput in megabits per second.
	Mbps float64
	// Bytes is the payload volume sent.
	Bytes int64
	// Elapsed is the wall-clock measurement duration.
	Elapsed time.Duration
}

// Throughput runs an iperf-style timed upload over an established
// connection (which may pass through relays or a multipath channel):
// random-ish payload is written for the duration and the goodput reported.
//
// A stalled peer can block a Write indefinitely; callers that need a hard
// time bound should use ThroughputContext instead.
func Throughput(conn io.Writer, duration time.Duration, chunkBytes int) (Result, error) {
	if chunkBytes <= 0 {
		chunkBytes = 128 << 10
	}
	buf := pipe.Get(chunkBytes)
	defer pipe.Put(buf)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	start := time.Now()
	var sent int64
	for time.Since(start) < duration {
		n, err := conn.Write(buf)
		sent += int64(n)
		if err != nil {
			return Result{}, fmt.Errorf("measure: throughput write: %w", err)
		}
	}
	elapsed := time.Since(start)
	return Result{
		Mbps:    float64(sent) * 8 / elapsed.Seconds() / 1e6,
		Bytes:   sent,
		Elapsed: elapsed,
	}, nil
}

// ThroughputContext is Throughput with a hard time bound: the connection's
// deadline tracks the context, so a blackholed path (zero-window peer,
// silent middlebox) fails with a timeout instead of hanging the caller.
// The context error is surfaced when cancellation caused the failure.
func ThroughputContext(ctx context.Context, conn net.Conn, duration time.Duration, chunkBytes int) (res Result, err error) {
	err = pipe.Bound(ctx, conn, func() error {
		res, err = Throughput(conn, duration, chunkBytes)
		return err
	})
	return res, err
}

// ErrTruncatedBurst reports a throughput burst that could not sustain its
// full configured window — the deadline expired or the path failed
// mid-upload. A truncated window measures goodput over a shorter interval
// than configured (a systematic underestimate on slow-start-dominated
// windows), so it is a failure, never a sample.
var ErrTruncatedBurst = errors.New("measure: throughput burst truncated")

// ThroughputBurst runs one complete sink-mode throughput burst over an
// established connection to a measure.Server: the sink preamble, then a
// timed upload of exactly duration under the context's hard bound. Any
// upload error — including the context deadline expiring mid-window — is
// reported as ErrTruncatedBurst wrapping the cause; callers get a full
// window's Mbps or an error, never a number measured over less than
// duration.
func ThroughputBurst(ctx context.Context, conn net.Conn, duration time.Duration, chunkBytes int) (Result, error) {
	if _, err := SinkClient(conn); err != nil {
		return Result{}, err
	}
	res, err := ThroughputContext(ctx, conn, duration, chunkBytes)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrTruncatedBurst, err)
	}
	if res.Elapsed < duration {
		return Result{}, fmt.Errorf("%w: measured %v of %v window", ErrTruncatedBurst, res.Elapsed, duration)
	}
	return res, nil
}

// SinkClient prefixes the sink-mode byte on a connection to a
// measure.Server, returning the same connection ready for Throughput.
func SinkClient(conn net.Conn) (net.Conn, error) {
	if _, err := conn.Write([]byte{modeSink}); err != nil {
		return nil, fmt.Errorf("measure: sink preamble: %w", err)
	}
	return conn, nil
}

// RTTStats summarizes an RTT probe run.
type RTTStats struct {
	Min, Avg, Max time.Duration
	Samples       int
}

// ProbeRTT measures application-level round-trip time with count echo
// probes over a connection to a measure.Server.
//
// A hung peer can block a probe read indefinitely; callers that need a
// hard time bound should use ProbeRTTContext instead.
func ProbeRTT(conn net.Conn, count int) (RTTStats, error) {
	return ProbeRTTWith(conn, count, nil)
}

// ProbeRTTContext is ProbeRTTWith with a hard time bound: the connection's
// deadline tracks the context, so a dead or blackholed path fails within
// the context budget instead of blocking a probe round forever. The
// context error is surfaced when cancellation caused the failure.
func ProbeRTTContext(ctx context.Context, conn net.Conn, count int, hist *obs.Histogram) (stats RTTStats, err error) {
	err = pipe.Bound(ctx, conn, func() error {
		stats, err = ProbeRTTWith(conn, count, hist)
		return err
	})
	return stats, err
}

// ProbeRTTWith is ProbeRTT recording each sample into an obs histogram
// (typically cronets_measure_probe_rtt_seconds); a nil histogram is
// ignored.
func ProbeRTTWith(conn net.Conn, count int, hist *obs.Histogram) (RTTStats, error) {
	if count <= 0 {
		count = 10
	}
	if _, err := conn.Write([]byte{modeEcho}); err != nil {
		return RTTStats{}, fmt.Errorf("measure: echo preamble: %w", err)
	}
	frame := make([]byte, probeSize)
	var stats RTTStats
	var total time.Duration
	for i := 0; i < count; i++ {
		frame[0] = byte(i)
		start := time.Now()
		if _, err := conn.Write(frame); err != nil {
			return RTTStats{}, fmt.Errorf("measure: probe write: %w", err)
		}
		if _, err := io.ReadFull(conn, frame); err != nil {
			return RTTStats{}, fmt.Errorf("measure: probe read: %w", err)
		}
		rtt := time.Since(start)
		hist.ObserveDuration(rtt)
		total += rtt
		if stats.Samples == 0 || rtt < stats.Min {
			stats.Min = rtt
		}
		if rtt > stats.Max {
			stats.Max = rtt
		}
		stats.Samples++
	}
	stats.Avg = total / time.Duration(stats.Samples)
	return stats, nil
}
