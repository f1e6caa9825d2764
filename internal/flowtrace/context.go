package flowtrace

import (
	"encoding/binary"
	"encoding/hex"
)

// TraceID identifies one end-to-end flow trace.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String returns the ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// Context is the trace state propagated across overlay hops: which trace
// a flow belongs to, which span the next hop should parent under, and
// whether the flow is sampled. An unsampled (or zero) Context is never
// put on the wire — hops only see contexts worth recording.
type Context struct {
	Trace   TraceID
	Span    uint64
	Sampled bool
}

// WireSize is the binary encoding length: 16-byte trace ID plus an
// 8-byte span word whose top bit carries the sampling flag (span IDs are
// generated with that bit clear).
const WireSize = 24

// TextSize is the hex text encoding length (2 chars per wire byte).
const TextSize = 2 * WireSize

// sampledBit is bit 63 of the wire span word.
const sampledBit = uint64(1) << 63

// IsZero reports whether the context carries no trace.
func (c Context) IsZero() bool { return c.Trace.IsZero() }

// EncodeBinary writes the 24-byte wire form into dst, which must hold at
// least WireSize bytes, and returns WireSize.
func (c Context) EncodeBinary(dst []byte) int {
	_ = dst[WireSize-1]
	copy(dst[:16], c.Trace[:])
	word := c.Span &^ sampledBit
	if c.Sampled {
		word |= sampledBit
	}
	binary.BigEndian.PutUint64(dst[16:24], word)
	return WireSize
}

// DecodeBinary parses a 24-byte wire context. ok is false if b is short
// or the trace ID is zero.
func DecodeBinary(b []byte) (c Context, ok bool) {
	if len(b) < WireSize {
		return Context{}, false
	}
	copy(c.Trace[:], b[:16])
	word := binary.BigEndian.Uint64(b[16:24])
	c.Span = word &^ sampledBit
	c.Sampled = word&sampledBit != 0
	return c, !c.Trace.IsZero()
}

// AppendText appends the 48-hex-character text form used in the relay
// CONNECT preamble to dst.
func (c Context) AppendText(dst []byte) []byte {
	var wire [WireSize]byte
	c.EncodeBinary(wire[:])
	return hex.AppendEncode(dst, wire[:])
}

// DecodeText parses the text form produced by AppendText (either hex
// case). It allocates nothing, so transparent middleboxes (netem) can
// sniff passing handshakes at no cost.
func DecodeText(b []byte) (Context, bool) {
	if len(b) != TextSize {
		return Context{}, false
	}
	var wire [WireSize]byte
	if _, err := hex.Decode(wire[:], b); err != nil {
		return Context{}, false
	}
	return DecodeBinary(wire[:])
}
