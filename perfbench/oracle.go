package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The oracle: every payload byte is a position in one seeded pattern
// block, read as a rotation (byte i of a stream at offset off is
// block[(off+i) mod len]). Producing a payload is a slice of the block and
// checking one is a memcmp against it, so the check costs the same on
// every commit and is cheap next to the bytes the overlay moves.
const blockBytes = 4 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type pattern struct{ b []byte }

// newPattern fills the block from seed with splitmix64.
func newPattern(seed int64) *pattern {
	b := make([]byte, blockBytes)
	x := uint64(seed)
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^(z>>31))
	}
	return &pattern{b: b}
}

// at returns the longest contiguous run of the rotation starting at off,
// at most n bytes (shorter where the rotation wraps).
func (p *pattern) at(off uint64, n int) []byte {
	o := int(off % uint64(len(p.b)))
	if o+n > len(p.b) {
		n = len(p.b) - o
	}
	return p.b[o : o+n]
}

// write sends n bytes of the rotation at off and, when withCRC is set,
// returns their CRC-32C.
func (p *pattern) write(w io.Writer, off uint64, n int64, withCRC bool) (uint32, error) {
	var crc uint32
	for n > 0 {
		chunk := p.at(off, int(min(n, 256<<10)))
		if _, err := w.Write(chunk); err != nil {
			return 0, err
		}
		if withCRC {
			crc = crc32.Update(crc, castagnoli, chunk)
		}
		off += uint64(len(chunk))
		n -= int64(len(chunk))
	}
	return crc, nil
}

// matches reports whether got equals the rotation at off.
func (p *pattern) matches(got []byte, off uint64) bool {
	for len(got) > 0 {
		want := p.at(off, len(got))
		if !bytes.Equal(got[:len(want)], want) {
			return false
		}
		got = got[len(want):]
		off += uint64(len(want))
	}
	return true
}

// Op kinds of the destination protocol. Every op opens with a 16-byte
// header: kind, 3 pad bytes, then little-endian reqLen, respLen, respOff.
const (
	opDownload = 'D' // dest sends respLen bytes of the rotation at respOff
	opUpload   = 'U' // client sends reqLen bytes; dest answers their CRC-32C
	opRequest  = 'R' // client sends reqLen bytes; dest answers respLen bytes at crc(req)^respOff
	opEcho     = 'E' // persistent: each u32-length-prefixed message is echoed back
	headerLen  = 16
)

func putHeader(b []byte, kind byte, reqLen, respLen, respOff uint32) {
	b[0] = kind
	b[1], b[2], b[3] = 0, 0, 0
	binary.LittleEndian.PutUint32(b[4:], reqLen)
	binary.LittleEndian.PutUint32(b[8:], respLen)
	binary.LittleEndian.PutUint32(b[12:], respOff)
}

// replyOffset is where a request op's reply starts: a function of the
// request bytes the destination actually received, so a corrupted request
// shows up as a wrong reply.
func replyOffset(reqCRC, respOff uint32) uint64 { return uint64(reqCRC ^ respOff) }

// destServer is the destination every flow ends at.
type destServer struct {
	ln  net.Listener
	pat *pattern
	// corruptEvery, when positive, flips one reply byte of every Nth
	// request op (the oracle self-test).
	corruptEvery int64
	reqOps       atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func newDest(ln net.Listener, pat *pattern) *destServer {
	return &destServer{ln: ln, pat: pat, conns: make(map[net.Conn]struct{})}
}

func (s *destServer) addr() string { return s.ln.Addr().String() }

func (s *destServer) serve() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			_ = c.Close()
		}()
	}
}

func (s *destServer) close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	s.wg.Wait()
}

func (s *destServer) handle(c net.Conn) {
	var h [headerLen]byte
	if _, err := io.ReadFull(c, h[:]); err != nil {
		return
	}
	reqLen := binary.LittleEndian.Uint32(h[4:])
	respLen := binary.LittleEndian.Uint32(h[8:])
	respOff := binary.LittleEndian.Uint32(h[12:])
	switch h[0] {
	case opDownload:
		_, _ = s.pat.write(c, uint64(respOff), int64(respLen), false)
	case opUpload:
		crc, err := readCRC(c, int64(reqLen))
		if err != nil {
			return
		}
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], crc)
		_, _ = c.Write(out[:])
	case opRequest:
		crc, err := readCRC(c, int64(reqLen))
		if err != nil {
			return
		}
		off := replyOffset(crc, respOff)
		if n := s.reqOps.Add(1); s.corruptEvery > 0 && n%s.corruptEvery == 0 {
			reply := make([]byte, 0, respLen)
			for len(reply) < int(respLen) {
				reply = append(reply, s.pat.at(off+uint64(len(reply)), int(respLen)-len(reply))...)
			}
			reply[len(reply)/2] ^= 0x40
			_, _ = c.Write(reply)
			return
		}
		_, _ = s.pat.write(c, off, int64(respLen), false)
	case opEcho:
		buf := make([]byte, 4+maxEchoBytes)
		for {
			if _, err := io.ReadFull(c, buf[:4]); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(buf[:4])
			if n > maxEchoBytes {
				return
			}
			if _, err := io.ReadFull(c, buf[4:4+n]); err != nil {
				return
			}
			if _, err := c.Write(buf[4 : 4+n]); err != nil {
				return
			}
		}
	}
}

const maxEchoBytes = 64 << 10

// readCRC reads exactly n bytes and returns their CRC-32C.
func readCRC(r io.Reader, n int64) (uint32, error) {
	buf := make([]byte, min(n, 256<<10))
	var crc uint32
	for n > 0 {
		k, err := io.ReadFull(r, buf[:min(n, int64(len(buf)))])
		crc = crc32.Update(crc, castagnoli, buf[:k])
		n -= int64(k)
		if err != nil {
			return 0, err
		}
	}
	return crc, nil
}

// Failure kinds an op can end with. A failed op is never a latency
// sample.
var (
	errWrongBytes = errors.New("wrong payload bytes")
	errShort      = errors.New("short payload")
	errLong       = errors.New("payload longer than sent")
)

// verifyStream reads the reply of n bytes at rotation offset off until
// EOF, comparing every byte, and stamps the first and last verified
// bytes' arrival on o.
func verifyStream(c net.Conn, pat *pattern, buf []byte, off uint64, n int64, o *outcome) error {
	var got int64
	for {
		k, err := c.Read(buf)
		if k > 0 {
			if got == 0 {
				o.first = time.Now()
			}
			if got+int64(k) > n {
				return errLong
			}
			if !pat.matches(buf[:k], off+uint64(got)) {
				return fmt.Errorf("%w at byte %d", errWrongBytes, got)
			}
			if got += int64(k); got == n {
				o.last = time.Now()
			}
		}
		if err == io.EOF {
			if got < n {
				return fmt.Errorf("%w: %d of %d bytes", errShort, got, n)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("read reply after %d of %d bytes: %w", got, n, err)
		}
	}
}

func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
