package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// opTimeout bounds one op, so a stalled overlay fails the op instead of
// hanging the run.
const opTimeout = 20 * time.Second

// dialFunc opens one client connection into the system under test.
type dialFunc func(ctx context.Context) (net.Conn, error)

// dialTCP returns a dialFunc for a plain TCP address.
func dialTCP(addr string) dialFunc {
	d := net.Dialer{Timeout: opTimeout}
	return func(ctx context.Context) (net.Conn, error) { return d.DialContext(ctx, "tcp", addr) }
}

// opShape is what one op carries.
type opShape int

const (
	// shapeBulk: even workers download, odd workers upload bulkBytes per
	// flow.
	shapeBulk opShape = iota
	// shapeRR: one flow sends reqLen bytes and reads a respLen reply.
	shapeRR
	// shapeEcho: one message round trip on a persistent connection.
	shapeEcho
)

const (
	bulkBytes    = 64 << 20
	echoMinBytes = 64
	echoMaxBytes = 1024
)

// outcome is one op's timeline. start is when the op began (connect, or
// its due time in an open loop); first and last are the first and last
// verified reply bytes.
type outcome struct {
	start, connected, first, last time.Time
	bytes                         int64 // verified payload bytes, both directions
	err                           error
}

// session is one client worker: at most one connection open at a time.
type session struct {
	shape           opShape
	w               int
	dial            dialFunc
	pat             *pattern
	rng             *rand.Rand
	reqLen, respLen int64
	buf             []byte
	conn            net.Conn // shapeEcho's persistent connection
}

func newSession(shape opShape, w int, dial dialFunc, pat *pattern, reqLen, respLen int64) *session {
	return &session{shape: shape, w: w, dial: dial, pat: pat, reqLen: reqLen, respLen: respLen,
		buf: make([]byte, 256<<10)}
}

// seed resets the session's input stream: the same seed gives the same
// ops.
func (s *session) seed(seed int64) { s.rng = rand.New(rand.NewSource(seed*7919 + int64(s.w))) }

func (s *session) close() {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
}

// do runs one op.
func (s *session) do() outcome {
	switch s.shape {
	case shapeBulk:
		if s.w%2 == 0 {
			return s.download(uint64(s.rng.Int63()), bulkBytes)
		}
		return s.upload(uint64(s.rng.Int63()), bulkBytes)
	case shapeRR:
		return s.request(uint64(s.rng.Int63()), s.rng.Uint32())
	default:
		n := echoMinBytes + s.rng.Intn(echoMaxBytes-echoMinBytes+1)
		return s.echo(uint64(s.rng.Int63()), n)
	}
}

// open dials one flow under the op deadline.
func (s *session) open(o *outcome) (net.Conn, error) {
	o.start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	c, err := s.dial(ctx)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	o.connected = time.Now()
	_ = c.SetDeadline(o.start.Add(opTimeout))
	return c, nil
}

func (s *session) download(off uint64, n int64) (o outcome) {
	c, err := s.open(&o)
	if err != nil {
		o.err = err
		return o
	}
	defer c.Close()
	var h [headerLen]byte
	putHeader(h[:], opDownload, 0, uint32(n), uint32(off))
	if _, err := c.Write(h[:]); err != nil {
		o.err = fmt.Errorf("send header: %w", err)
		return o
	}
	if o.err = verifyStream(c, s.pat, s.buf, uint64(uint32(off)), n, &o); o.err == nil {
		o.bytes = n
	}
	return o
}

func (s *session) upload(off uint64, n int64) (o outcome) {
	c, err := s.open(&o)
	if err != nil {
		o.err = err
		return o
	}
	defer c.Close()
	var h [headerLen]byte
	putHeader(h[:], opUpload, uint32(n), 0, 0)
	if _, err := c.Write(h[:]); err != nil {
		o.err = fmt.Errorf("send header: %w", err)
		return o
	}
	crc, err := s.pat.write(c, off, n, true)
	if err != nil {
		o.err = fmt.Errorf("send upload: %w", err)
		return o
	}
	var got [4]byte
	if _, err := io.ReadFull(c, got[:]); err != nil {
		o.err = fmt.Errorf("%w: digest: %v", errShort, err)
		return o
	}
	// An upload has no first reply byte worth timing: the digest is its
	// last byte, so it gives no TTFB sample.
	o.last = time.Now()
	if binary.LittleEndian.Uint32(got[:]) != crc {
		o.err = fmt.Errorf("%w: upload digest mismatch", errWrongBytes)
		return o
	}
	if k, _ := c.Read(s.buf[:1]); k > 0 {
		o.err = errLong
		return o
	}
	o.bytes = n
	return o
}

func (s *session) request(reqOff uint64, respOff uint32) (o outcome) {
	c, err := s.open(&o)
	if err != nil {
		o.err = err
		return o
	}
	defer c.Close()
	msg := s.buf[:headerLen+int(s.reqLen)]
	putHeader(msg, opRequest, uint32(s.reqLen), uint32(s.respLen), respOff)
	req := msg[headerLen:]
	for filled := 0; filled < len(req); {
		filled += copy(req[filled:], s.pat.at(reqOff+uint64(filled), len(req)-filled))
	}
	crc := crc32c(req)
	if _, err := c.Write(msg); err != nil {
		o.err = fmt.Errorf("send request: %w", err)
		return o
	}
	if o.err = verifyStream(c, s.pat, s.buf, replyOffset(crc, respOff), s.respLen, &o); o.err == nil {
		o.bytes = s.reqLen + s.respLen
	}
	return o
}

func (s *session) echo(off uint64, n int) (o outcome) {
	if s.conn == nil {
		c, err := s.open(&o)
		if err != nil {
			o.err = err
			return o
		}
		var h [headerLen]byte
		putHeader(h[:], opEcho, 0, 0, 0)
		if _, err := c.Write(h[:]); err != nil {
			_ = c.Close()
			o.err = fmt.Errorf("send header: %w", err)
			return o
		}
		s.conn = c
	}
	o.start = time.Now()
	o.connected = o.start
	_ = s.conn.SetDeadline(o.start.Add(opTimeout))
	msg := s.buf[:4+n]
	binary.LittleEndian.PutUint32(msg, uint32(n))
	for filled := 4; filled < len(msg); {
		filled += copy(msg[filled:], s.pat.at(off+uint64(filled-4), len(msg)-filled))
	}
	if _, err := s.conn.Write(msg); err != nil {
		o.err = fmt.Errorf("send message: %w", err)
		s.close()
		return o
	}
	got := s.buf[4+n : 4+2*n]
	for k := 0; k < n; {
		m, err := s.conn.Read(got[k:])
		if m > 0 && k == 0 {
			o.first = time.Now()
		}
		k += m
		if err != nil {
			o.err = fmt.Errorf("%w: echo after %d of %d bytes: %v", errShort, k, n, err)
			s.close()
			return o
		}
	}
	o.last = time.Now()
	if !s.pat.matches(got, off) {
		o.err = fmt.Errorf("%w: echo differs", errWrongBytes)
		s.close()
		return o
	}
	o.bytes = 2 * int64(n)
	return o
}

// sample is one verified op: when it completed, its latency, its TTFB
// (negative when the op has no first reply byte to time) and its payload.
// It is kept small and preallocated (see newTally), so storing samples
// adds little to the process's memory or its garbage.
type sample struct {
	end       int64   // Unix ns
	lat, ttfb float32 // ms
	bytes     int64
}

func (s sample) endTime() time.Time { return time.Unix(0, s.end) }

// tally is what a set of workers measured.
type tally struct {
	attempted, failed int64
	samples           []sample  // failed ops are never samples
	late              []float64 // open-loop generator lateness, ms
	errs              map[string]int
	spans             []outcome // kept only when tracing
}

func (t *tally) add(o outcome, keep bool) {
	t.attempted++
	if o.err != nil {
		t.failed++
		if t.errs == nil {
			t.errs = map[string]int{}
		}
		msg := o.err.Error()
		if len(msg) > 120 {
			msg = msg[:120]
		}
		t.errs[msg]++
		return
	}
	sm := sample{end: o.last.UnixNano(), lat: float32(ms(o.last.Sub(o.start))), ttfb: -1, bytes: o.bytes}
	if !o.first.IsZero() {
		sm.ttfb = float32(ms(o.first.Sub(o.start)))
	}
	t.samples = append(t.samples, sm)
	if keep {
		t.spans = append(t.spans, o)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.samples = append(t.samples, o.samples...)
	t.late = append(t.late, o.late...)
	t.spans = append(t.spans, o.spans...)
	for k, v := range o.errs {
		if t.errs == nil {
			t.errs = map[string]int{}
		}
		t.errs[k] += v
	}
}

// lats and ttfbs return the samples' latencies and TTFBs in ms.
func lats(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat)
	}
	return out
}

func ttfbs(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ttfb >= 0 {
			out = append(out, float64(s.ttfb))
		}
	}
	return out
}

func payload(ss []sample) int64 {
	var n int64
	for _, s := range ss {
		n += s.bytes
	}
	return n
}

func (t *tally) firstErrors() string {
	var out []string
	for k, v := range t.errs {
		out = append(out, fmt.Sprintf("%dx %s", v, k))
		if len(out) == 3 {
			break
		}
	}
	return fmt.Sprint(out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs every session back to back until the deadline; each
// session's next op starts only after its previous one completes.
func closedLoop(sessions []*session, until time.Time, keep bool, capHint int) *tally {
	out := make([]tally, len(sessions))
	for i := range out {
		out[i].samples = make([]sample, 0, capHint)
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				out[i].add(s.do(), keep)
			}
		}()
	}
	wg.Wait()
	t := tally{samples: make([]sample, 0, len(out)*capHint)}
	for i := range out {
		t.merge(&out[i])
	}
	return &t
}

// poissonSchedule draws seeded arrival offsets of a Poisson process at
// rate per second over d, conditioned on its expected count: that many
// uniform arrival times, sorted. Every seed then offers the same load.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(rate*d.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop issues ops at their scheduled due times to at most
// len(sessions) workers. Each op is timed from its due time, so a stall
// charges the wait it imposes on later ops; how late the generator itself
// ran is recorded in tally.late.
func openLoop(sessions []*session, start time.Time, schedule []time.Duration, keep bool) *tally {
	due := make(chan time.Time, len(schedule)) // holds the whole schedule: the generator never blocks
	var gen tally
	go func() {
		defer close(due)
		for _, off := range schedule {
			at := start.Add(off)
			time.Sleep(time.Until(at))
			gen.late = append(gen.late, ms(time.Since(at)))
			due <- at
		}
	}()
	out := make([]tally, len(sessions))
	for i := range out {
		out[i].samples = make([]sample, 0, len(schedule))
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := range due {
				o := s.do()
				o.start = at
				out[i].add(o, keep)
			}
		}()
	}
	wg.Wait()
	t := &gen
	t.samples = make([]sample, 0, len(schedule))
	for i := range out {
		t.merge(&out[i])
	}
	return t
}
