package relay

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"cronets/internal/flowtrace"
)

// The CONNECT handshake is one request line from the client and one reply
// line from the relay:
//
//	request = "CONNECT " host ":" port [" TP=" 48HEXDIG] LF
//	reply   = "OK" LF / "ERR " reason LF
//
// TP carries a sampled flowtrace context in its text form. This file is
// the only encoder and decoder of both lines.
const (
	connectVerb = "CONNECT "
	traceToken  = " TP="
	// maxHostPort is the longest host:port a request names: a 253-byte
	// DNS name, the colon, and a 5-digit port.
	maxHostPort = 253 + 1 + 5
	// maxRequestLen bounds a request line, LF included (320 bytes): the
	// relay reads no further looking for the LF.
	maxRequestLen = len(connectVerb) + maxHostPort + len(traceToken) + flowtrace.TextSize + 1
)

// reply is one CONNECT reply line.
type reply string

// The replies a relay sends.
const (
	replyOK         reply = "OK\n"
	replyBadRequest reply = "ERR bad request\n"
	replyForbidden  reply = "ERR forbidden\n"
	replyOverloaded reply = "ERR overloaded\n"
	replyDialFailed reply = "ERR dial failed\n"
)

// maxReplyLen bounds the reply line a client reads. Every reply above
// fits (TestConnectWireBytes checks).
const maxReplyLen = 64

// appendRequest appends the request line for target to dst, carrying tc
// when it is sampled (an unsampled context never goes on the wire).
func appendRequest(dst []byte, target string, tc flowtrace.Context) []byte {
	dst = append(dst, connectVerb...)
	dst = append(dst, target...)
	if tc.Sampled {
		dst = append(dst, traceToken...)
		dst = tc.AppendText(dst)
	}
	return append(dst, '\n')
}

// errMalformedRequest refuses a line with no CONNECT verb or no LF within
// maxRequestLen; preallocated, as netem's sniffer meets it often.
var errMalformedRequest = errors.New("relay: malformed request")

// ParseRequest parses the request line at the start of b, up to its LF
// or the end of b, and returns the target and the sampled trace context
// it carries. target aliases b. A line of maxRequestLen bytes or more
// before its LF is refused. A missing or malformed trace token yields
// the zero context, never an error: tracing is best-effort. It
// allocates nothing for a valid request or a non-CONNECT line. Exported
// for netem, which sniffs passing handshakes.
func ParseRequest(b []byte) (target []byte, tc flowtrace.Context, err error) {
	line := b
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	if len(line) >= maxRequestLen || !bytes.HasPrefix(line, []byte(connectVerb)) {
		return nil, flowtrace.Context{}, errMalformedRequest
	}
	line = bytes.TrimSuffix(line, []byte("\r"))
	target, rest := line[len(connectVerb):], []byte(nil)
	if i := bytes.IndexByte(target, ' '); i >= 0 {
		target, rest = target[:i], target[i:]
	}
	if !validHostPort(target) {
		return nil, flowtrace.Context{}, fmt.Errorf("relay: bad target %q", target)
	}
	if tok, ok := bytes.CutPrefix(rest, []byte(traceToken)); ok {
		if c, ok := flowtrace.DecodeText(tok); ok && c.Sampled {
			tc = c
		}
	}
	return target, tc, nil
}

// validHostPort reports whether b is a host:port with both parts present,
// in printable ASCII without spaces. It accepts what net.SplitHostPort
// accepts, but checks the bytes in place so it allocates nothing.
func validHostPort(b []byte) bool {
	i := bytes.LastIndexByte(b, ':')
	if i < 1 || i == len(b)-1 || bytes.ContainsAny(b[i+1:], "[]") ||
		bytes.IndexFunc(b, func(r rune) bool { return r <= ' ' || r > '~' }) >= 0 {
		return false
	}
	if i > 2 && b[0] == '[' && b[i-1] == ']' {
		return !bytes.ContainsAny(b[1:i-1], "[]") // an IPv6 literal may hold colons
	}
	return !bytes.ContainsAny(b[:i], ":[]")
}

// writeReply sends one reply line.
func writeReply(w io.Writer, r reply) error {
	_, err := io.WriteString(w, string(r))
	return err
}

// readReply reads a relay's reply without reading past it: exactly
// len(replyOK) bytes, then, when those are not OK, the rest of the ERR
// line up to maxReplyLen. Anything but OK is a refusal (ErrRefused),
// including a line with no LF within the bound.
func readReply(r io.Reader) error {
	var buf [maxReplyLen]byte
	n, err := io.ReadFull(r, buf[:len(replyOK)])
	if err != nil {
		return fmt.Errorf("relay: read connect reply: %w", err)
	}
	if reply(buf[:n]) == replyOK {
		return nil
	}
	for bytes.IndexByte(buf[:n], '\n') < 0 && n < len(buf) && err == nil {
		var m int
		m, err = r.Read(buf[n:])
		n += m
	}
	line, _, _ := bytes.Cut(buf[:n], []byte("\n"))
	return fmt.Errorf("%w: %q", ErrRefused, line)
}

// ErrRefused marks a CONNECT the relay answered with an ERR line: the
// relay's socket is alive but it declined the flow (ACL forbids the
// target, MaxConns overload, upstream dial failure). Callers classify it
// with errors.Is — it is path-down evidence of a different kind than a
// dead socket or a dial timeout, and pathmon counts it separately.
var ErrRefused = errors.New("relay: connect refused")
