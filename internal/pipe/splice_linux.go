//go:build linux

package pipe

import (
	"net"
	"os"
	"syscall"

	"cronets/internal/obs"
)

// splice(2) flags from linux/splice.h, which package syscall does not
// export.
const (
	spliceMove     = 0x1
	spliceNonblock = 0x2
)

// spliceHalf moves one direction from src to dst through a kernel pipe
// with splice(2), so the bytes never enter user space. It handles only
// TCP-to-TCP pairs; for anything else, or when the kernel refuses the
// first splice with EINVAL, it moves nothing and returns handled false,
// and the caller keeps copying.
//
// Each readiness event on src moves whatever the socket holds (up to
// bufBytes) into the pipe, then the pipe is drained into dst before the
// next read, so the loop keeps the copy loop's per-chunk semantics: the
// idle watch is touched per chunk read and counter grows per chunk
// written. EOF propagates the half-close exactly as the copy loop does;
// a close from ctx, the idle watch or the caller surfaces as
// net.ErrClosed from the raw conn. The pipe's two fds are closed on every
// return.
func spliceHalf(dst, src net.Conn, bufBytes int, counter *obs.Counter, idle *idleWatch) (n int64, handled bool, err error) {
	d, dok := dst.(*net.TCPConn)
	s, sok := src.(*net.TCPConn)
	if !dok || !sok {
		return 0, false, nil
	}
	rc, err := s.SyscallConn()
	if err != nil {
		return 0, false, nil
	}
	wc, err := d.SyscallConn()
	if err != nil {
		return 0, false, nil
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		return 0, false, nil
	}
	defer syscall.Close(p[0])
	defer syscall.Close(p[1])
	// Best effort: a pipe as deep as the copy buffer it replaces. Past
	// the per-user pipe budget the kernel refuses, and the 64 KiB
	// default pipe still works, only in smaller chunks.
	_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, uintptr(p[1]), syscall.F_SETPIPE_SZ, uintptr(bufBytes))

	// inPipe is what the last fill moved into the pipe; out is what the
	// last drain moved out of it. The callbacks run on this goroutine
	// inside the raw conn's Read/Write, which retry them on readiness
	// while they report EAGAIN.
	var inPipe, out int
	var serr error
	fill := func(fd uintptr) bool {
		var k int64
		for {
			k, serr = syscall.Splice(int(fd), nil, p[1], nil, bufBytes, spliceMove|spliceNonblock)
			if serr != syscall.EINTR {
				break
			}
		}
		inPipe = int(k)
		return serr != syscall.EAGAIN
	}
	drain := func(fd uintptr) bool {
		var k int64
		for {
			k, serr = syscall.Splice(p[0], nil, int(fd), nil, inPipe, spliceMove|spliceNonblock)
			if serr != syscall.EINTR {
				break
			}
		}
		out = int(max(k, 0))
		return serr != syscall.EAGAIN
	}
	spliceErr := func(op string, c net.Conn) error {
		return &net.OpError{Op: op, Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(),
			Err: os.NewSyscallError("splice", serr)}
	}

	for switched := false; ; {
		if err := rc.Read(fill); err != nil {
			return n, true, err
		}
		if serr == syscall.EINVAL && !switched {
			// The kernel cannot splice this socket; nothing was
			// consumed, so the copy loop takes over losslessly.
			return n, false, nil
		}
		if !switched {
			switched = true
			splices.Add(1)
		}
		if serr != nil {
			return n, true, spliceErr("read", src)
		}
		if inPipe <= 0 {
			// EOF: the same half-close propagation as the copy loop.
			closeWrite(dst)
			closeRead(src)
			return n, true, nil
		}
		idle.touch()
		for inPipe > 0 {
			if err := wc.Write(drain); err != nil {
				return n, true, err
			}
			if serr != nil {
				return n, true, spliceErr("write", dst)
			}
			inPipe -= out
			n += int64(out)
			counter.Add(int64(out))
		}
	}
}
