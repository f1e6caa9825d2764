package pipe

import (
	"log/slog"
	"net"
	"time"

	"cronets/internal/obs"
)

// Accept waits for the next connection on ln — the one accept loop every
// listening layer (gateway, relay, measure server, netem link) shares.
// Transient failures (ECONNABORTED, or EMFILE when the process runs out of
// descriptors under load) must not take a whole listener down: each one
// is counted in errs (a nil counter counts nothing), logged on log, and
// retried after a bounded exponential backoff, 5 ms doubling to 1 s,
// net/http.Server-style. Any other error, including the one a closed
// listener returns, goes back to the caller.
func Accept(ln net.Listener, errs *obs.Counter, log *slog.Logger) (net.Conn, error) {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil {
			return conn, nil
		}
		if ne, ok := err.(net.Error); !ok || !ne.Temporary() { //nolint:staticcheck // the net/http.Server accept-retry idiom
			return nil, err
		}
		errs.Inc()
		if delay == 0 {
			delay = 5 * time.Millisecond
		} else if delay *= 2; delay > time.Second {
			delay = time.Second
		}
		log.Warn("accept failed, retrying", "err", err, "backoff", delay.String())
		time.Sleep(delay)
	}
}
