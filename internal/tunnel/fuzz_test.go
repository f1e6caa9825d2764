package tunnel

import (
	"bytes"
	"net/netip"
	"testing"

	"cronets/internal/flowtrace"
)

// FuzzReadFrameCtx: the frame reader never returns a body over
// MaxFrameSize, and a frame it accepts re-writes to a frame that reads
// back the same body and sampled trace context.
func FuzzReadFrameCtx(f *testing.F) {
	tc := flowtrace.Context{Trace: flowtrace.TraceID{9}, Span: 3, Sampled: true}
	for _, seed := range []struct {
		body []byte
		tc   flowtrace.Context
	}{{[]byte("hello"), flowtrace.Context{}}, {[]byte("traced"), tc}, {nil, tc}} {
		var buf bytes.Buffer
		if err := NewFramer(&buf).WriteFrameCtx(seed.body, seed.tc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x80, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		body, tc, err := NewFramer(bytes.NewBuffer(b)).ReadFrameCtx()
		if err != nil {
			return
		}
		if len(body) > MaxFrameSize {
			t.Fatalf("accepted a %d-byte frame, over %d", len(body), MaxFrameSize)
		}
		var buf bytes.Buffer
		fr := NewFramer(&buf)
		if err := fr.WriteFrameCtx(body, tc); err != nil {
			t.Fatal(err)
		}
		body2, tc2, err := fr.ReadFrameCtx()
		want := tc
		if !tc.Sampled || tc.IsZero() {
			want = flowtrace.Context{} // an untraceable context is not re-sent
		}
		if err != nil || !bytes.Equal(body2, body) || tc2 != want {
			t.Fatalf("re-read = %q, %+v, %v; want %q, %+v", body2, tc2, err, body, want)
		}
	})
}

// FuzzUnmarshalPacket: a packet the decoder accepts marshals back to the
// bytes it was decoded from.
func FuzzUnmarshalPacket(f *testing.F) {
	for _, p := range []Packet{
		{Proto: ProtoTCP, Src: netip.MustParseAddrPort("10.0.0.1:1234"), Dst: netip.MustParseAddrPort("192.0.2.7:80"), Payload: []byte("GET /")},
		{Proto: ProtoUDP, Src: netip.MustParseAddrPort("[2001:db8::1]:53"), Dst: netip.MustParseAddrPort("[::1]:5353")},
	} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{6})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := UnmarshalPacket(b)
		if err != nil || len(b) > MaxFrameSize {
			return
		}
		out, err := p.Marshal()
		if err != nil || !bytes.Equal(out, b) {
			t.Fatalf("Marshal = %x, %v; want %x", out, err, b)
		}
	})
}
