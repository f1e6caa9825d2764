package multipath

import (
	"bytes"
	"testing"
)

// FuzzHeader: the header decoder passes only the frame types its reader
// accepts, never a data frame claiming more than MaxSegBytes, and every
// header it passes re-encodes to the bytes it was read from.
func FuzzHeader(f *testing.F) {
	const maxSeg = 32 << 10
	for _, h := range []header{
		{typ: frameData, seq: 7, n: maxSeg},
		{typ: frameData, n: 0xFFFFFFFF},
		{typ: frameFin, seq: 9},
		{typ: frameAck, seq: 3},
		{typ: frameSubAck, seq: 4},
		{typ: frameJoin, seq: 77, n: 1},
		{typ: 200},
	} {
		f.Add(h.put(make([]byte, headerSize)), uint8(dataFrames|ackFrames|joinFrames))
	}
	f.Fuzz(func(t *testing.T, b []byte, accept uint8) {
		var buf [headerSize]byte
		h, err := readHeader(bytes.NewReader(b), &buf, frameSet(accept), maxSeg)
		if err != nil {
			return
		}
		if accept&(1<<h.typ) == 0 {
			t.Fatalf("accepted frame type %d outside set %08b", h.typ, accept)
		}
		if h.typ == frameData && h.n > maxSeg {
			t.Fatalf("accepted a %d-byte data frame, over MaxSegBytes %d", h.n, maxSeg)
		}
		if got := h.put(make([]byte, headerSize)); !bytes.Equal(got, b[:headerSize]) {
			t.Fatalf("re-encoded %x, read %x", got, b[:headerSize])
		}
	})
}
