// Package leakcheck fails a test whose goroutines outlive it.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// timeout bounds the wait for goroutines to exit after a test: a
// goroutine still running this long after Close is a leak, not a
// straggler.
const timeout = 3 * time.Second

// Check snapshots the running goroutines and registers a cleanup that
// fails t if any goroutine started since is still running timeout after
// the test. Call it first: cleanups run last-registered first, so every
// later helper's teardown runs before the check. Not for parallel tests,
// whose goroutines would count against each other.
func Check(t testing.TB) {
	t.Helper()
	before := make(map[string]bool)
	for _, g := range goroutines() {
		before[strings.SplitN(g, " [", 2)[0]] = true
	}
	t.Cleanup(func() {
		for deadline := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
			var leaked []string
			for _, g := range goroutines() {
				if !before[strings.SplitN(g, " [", 2)[0]] { // "goroutine N", never reused
					leaked = append(leaked, g)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("leakcheck: %d goroutine(s) outlived the test:\n\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
				return
			}
		}
	})
}

// goroutines returns the stacks of all goroutines but the caller's, which
// runtime.Stack lists first, and test runners'.
func goroutines() []string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
		if !strings.Contains(g, "testing.tRunner") && !strings.Contains(g, "testing.(*M).") {
			out = append(out, g)
		}
	}
	return out
}
