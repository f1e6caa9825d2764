package multipath

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame types.
const (
	frameData byte = 1
	// frameAck carries the connection-level cumulative in-order count
	// (frees retransmission state, gates Close).
	frameAck byte = 2
	frameFin byte = 3
	// frameSubAck carries the count of segments received on the subflow
	// it arrives on, regardless of ordering — the analog of subflow-level
	// TCP ACKs, which keep a fast subflow sending while the reassembly
	// point waits on a slow one.
	frameSubAck byte = 4
	// frameJoin is the reconnect handshake: seq carries the channel ID,
	// length the subflow index. The receiver echoes it to accept.
	frameJoin byte = 5
)

// headerSize is the frame header: type(1) + seq(8) + length(4), big
// endian. Only data frames carry a payload (length bytes after the
// header); the other types reuse seq and length as their fields.
const headerSize = 13

// header is one frame header. This file is its only encoder and decoder.
type header struct {
	typ byte
	seq uint64
	n   uint32
}

// put encodes h into b, which must hold headerSize bytes, and returns
// the encoded header.
func (h header) put(b []byte) []byte {
	b = b[:headerSize]
	b[0] = h.typ
	binary.BigEndian.PutUint64(b[1:9], h.seq)
	binary.BigEndian.PutUint32(b[9:13], h.n)
	return b
}

// frameSet is a set of frame types, bit t standing for type t.
type frameSet uint8

// The frame types each reader accepts.
const (
	dataFrames frameSet = 1<<frameData | 1<<frameFin   // receiver's subflow reader
	ackFrames  frameSet = 1<<frameAck | 1<<frameSubAck // sender's ack reader
	joinFrames frameSet = 1 << frameJoin               // both sides of a JOIN
)

// readHeader reads one header from r into buf and validates it before
// the caller acts on it: its type must be in accept, and a data frame
// may claim at most maxSeg payload bytes. The 32-bit length is the
// peer's to choose, so it is checked here, before any buffer is fetched:
// a 13-byte frame claiming 4 GiB must not cost a 4 GiB allocation.
func readHeader(r io.Reader, buf *[headerSize]byte, accept frameSet, maxSeg int) (header, error) {
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return header{}, err
	}
	h := header{
		typ: buf[0],
		seq: binary.BigEndian.Uint64(buf[1:9]),
		n:   binary.BigEndian.Uint32(buf[9:13]),
	}
	if h.typ > 7 || accept&(1<<h.typ) == 0 {
		return header{}, fmt.Errorf("multipath: unexpected frame type %d", h.typ)
	}
	if h.typ == frameData && int64(h.n) > int64(maxSeg) {
		return header{}, fmt.Errorf("multipath: %d-byte data frame exceeds MaxSegBytes %d", h.n, maxSeg)
	}
	return h, nil
}
