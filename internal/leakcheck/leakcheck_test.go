package leakcheck

import (
	"testing"
	"time"
)

// recorder is a testing.TB that collects cleanups and failures instead of
// acting on them.
type recorder struct {
	testing.TB
	cleanups []func()
	failed   bool
}

func (r *recorder) Helper()               {}
func (r *recorder) Cleanup(fn func())     { r.cleanups = append(r.cleanups, fn) }
func (r *recorder) Errorf(string, ...any) { r.failed = true }
func (r *recorder) runCleanups() (failed bool) {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
	return r.failed
}

// TestCheck: a goroutine that exits shortly after the test passes the
// check; one that never exits fails it.
func TestCheck(t *testing.T) {
	r := &recorder{TB: t}
	Check(r)
	go time.Sleep(50 * time.Millisecond)
	if r.runCleanups() {
		t.Error("a goroutine exiting within the timeout was reported as a leak")
	}

	r = &recorder{TB: t}
	Check(r)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	if !r.runCleanups() {
		t.Error("a goroutine blocked past the timeout was not reported")
	}
}
