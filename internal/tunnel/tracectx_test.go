package tunnel

import (
	"bytes"
	"net/netip"
	"testing"

	"cronets/internal/flowtrace"
)

func sampleCtx() flowtrace.Context {
	var c flowtrace.Context
	for i := range c.Trace {
		c.Trace[i] = byte(0xA0 + i)
	}
	c.Span = 0x0102_0304_0506_0708
	c.Sampled = true
	return c
}

// TestFramerTraceContextRoundTrip: a traced frame carries its context to
// the reader; untraced frames decode with the zero context; the two kinds
// interleave freely on one stream.
func TestFramerTraceContextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf)
	tc := sampleCtx()

	if err := f.WriteFrameCtx([]byte("traced"), tc); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFrameCtx([]byte("plain"), flowtrace.Context{}); err != nil {
		t.Fatal(err)
	}
	unsampled := tc
	unsampled.Sampled = false
	if err := f.WriteFrameCtx([]byte("unsampled"), unsampled); err != nil {
		t.Fatal(err)
	}

	body, got, err := f.ReadFrameCtx()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "traced" || got != tc {
		t.Fatalf("traced frame = %q ctx %+v, want %q ctx %+v", body, got, "traced", tc)
	}
	body, got, err = f.ReadFrameCtx()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "plain" || !got.IsZero() {
		t.Fatalf("plain frame = %q ctx %+v, want zero ctx", body, got)
	}
	// An unsampled context never goes on the wire.
	body, got, err = f.ReadFrameCtx()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "unsampled" || !got.IsZero() {
		t.Fatalf("unsampled frame = %q ctx %+v, want zero ctx", body, got)
	}
}

// TestFramerUntracedWireUnchanged: without a sampled context the wire
// bytes are identical to the pre-tracing format (4-byte length + body).
func TestFramerUntracedWireUnchanged(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf)
	if err := f.WriteFrameCtx([]byte("abc"), flowtrace.Context{}); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 3, 'a', 'b', 'c'}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire = %v, want %v", buf.Bytes(), want)
	}
}

// TestEndpointSendRecvCtx: the context survives packet encapsulation
// through Endpoint.SendCtx / RecvCtx.
func TestEndpointSendRecvCtx(t *testing.T) {
	var buf bytes.Buffer
	a := NewEndpoint(&buf)
	tc := sampleCtx()
	pkt := Packet{
		Src:     netip.MustParseAddrPort("10.0.0.1:1234"),
		Dst:     netip.MustParseAddrPort("10.0.0.2:80"),
		Payload: []byte("hello"),
	}
	if err := a.SendCtx(pkt, tc); err != nil {
		t.Fatal(err)
	}
	got, gotCtx, err := a.RecvCtx()
	if err != nil {
		t.Fatal(err)
	}
	if gotCtx != tc {
		t.Fatalf("ctx = %+v, want %+v", gotCtx, tc)
	}
	if got.Src != pkt.Src || got.Dst != pkt.Dst || !bytes.Equal(got.Payload, pkt.Payload) {
		t.Fatalf("packet = %+v, want %+v", got, pkt)
	}
}
