package pipe

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"
)

// expired is a deadline long past, used to unblock in-flight I/O.
var expired = time.Unix(1, 0)

// Bound runs op, which does I/O on conn, under ctx: conn's deadline is
// pinned to ctx's deadline and cancelling ctx expires it at once, so a
// stalled peer cannot hold op past the caller's budget. An I/O error ctx
// induced is reported wrapping ctx's error (context.Canceled or
// context.DeadlineExceeded) and not the socket timeout, so callers
// classify it with errors.Is and a cancelled op is no timeout. The
// deadline is cleared before Bound returns, leaving conn usable.
func Bound(ctx context.Context, conn net.Conn, op func() error) error {
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = conn.SetDeadline(expired)
		close(fired)
	})
	err := op()
	if !stop() {
		// The expiry is running: let it finish, or it could land after
		// the clear below and break a connection op handed back.
		<-fired
	}
	_ = conn.SetDeadline(time.Time{})
	if err == nil {
		return nil
	}
	ctxErr := ctx.Err()
	if _, ok := ctx.Deadline(); ok && ctxErr == nil && errors.Is(err, os.ErrDeadlineExceeded) {
		// The socket deadline mirrors ctx's, and the I/O can expire a hair
		// before ctx's own timer fires: that timeout is still the deadline's.
		ctxErr = context.DeadlineExceeded
	}
	if ctxErr == nil {
		return err
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The timeout ctx induced: keep its text but wrap only ctx's
		// error, so a cancelled op is no timeout.
		return fmt.Errorf("%s: %w", err, ctxErr)
	}
	// Another error (a refusal, a reset) landing as ctx ended keeps both.
	return fmt.Errorf("%w: %w", err, ctxErr)
}

// IsTimeout reports whether err is a deadline expiry, at the socket
// (an I/O timeout) or at the context (context.DeadlineExceeded).
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
