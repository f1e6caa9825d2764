package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pct returns the p-th percentile (nearest rank) of xs, 0 for none.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return pct(xs, 50) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}

// heapAllocs is the process's cumulative heap allocation count, tiny
// allocations included.
func heapAllocs() uint64 {
	metrics.Read(allocSamples)
	var n uint64
	for _, s := range allocSamples {
		if s.Value.Kind() == metrics.KindUint64 {
			n += s.Value.Uint64()
		}
	}
	return n
}

// goroutinePeak samples the goroutine count until stopped.
type goroutinePeak struct {
	peak atomic.Int64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startGoroutinePeak() *goroutinePeak {
	g := &goroutinePeak{stop: make(chan struct{})}
	g.peak.Store(int64(runtime.NumGoroutine()))
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				if n := int64(runtime.NumGoroutine()); n > g.peak.Load() {
					g.peak.Store(n)
				}
			}
		}
	}()
	return g
}

func (g *goroutinePeak) done() int64 {
	close(g.stop)
	g.wg.Wait()
	return g.peak.Load()
}

// leakedGoroutines waits up to grace for the goroutine count to fall back
// to baseline and returns how many stay above it.
func leakedGoroutines(baseline int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
