//go:build !linux

package pipe

import (
	"net"

	"cronets/internal/obs"
)

// spliceHalf is the kernel splice path, which exists only on Linux:
// elsewhere every direction stays on the copy loop.
func spliceHalf(dst, src net.Conn, bufBytes int, counter *obs.Counter, idle *idleWatch) (n int64, handled bool, err error) {
	return 0, false, nil
}
