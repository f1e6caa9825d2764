// Command perfbench is the overlay's end-to-end benchmark. It builds the
// real overlay in one process from the packages' public constructors —
// destination, relay fleet, netem legs, pathmon, warm pool and gateway
// listener, configured as cmd/cronetsd configures them — drives one
// seeded traffic mix through it with at most two client connections at a
// time, verifies every payload byte, and prints each metric with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats the workload with the benchmark's own spans on the
// layer seams, times direct calls into each layer, and peels the flow
// one layer at a time (see trace.go).
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// workload is one traffic mix and the topology it runs on.
type workload struct {
	name string
	spec topoSpec
	// kind is the designed route kind every dial must take: "relay"
	// (1 hop) or "chain".
	kind            string
	shape           opShape
	reqLen, respLen int64
	// tailPct is the op_tail_ms / ttfb_tail_ms percentile: the highest
	// one leaving at least 10 samples beyond it at this workload's
	// smallest expected sample count.
	tailPct float64
	// rate is the open-loop arrival rate per second (0 = closed loop).
	rate float64
	// warmOps is how many ops each client runs in warm-up.
	warmOps int
	// peakRate bounds the ops per second the clients can complete; it
	// only sizes the preallocated sample storage.
	peakRate float64
	// slices splits the window into equal slices; with more than one,
	// every end-to-end metric is the median of its per-slice values, so a
	// transient stall moves one slice, not the run.
	slices int
}

const relayAccessDelay = 5 * time.Millisecond

var workloads = map[string]workload{
	"bulk": {
		name:     "bulk",
		spec:     topoSpec{relays: 4, maxHops: 1, probeInterval: 5 * time.Second, accessDelay: relayAccessDelay},
		kind:     "relay",
		shape:    shapeBulk,
		tailPct:  90,
		warmOps:  1,
		slices:   1,
		peakRate: 60,
	},
	"stream": {
		name:     "stream",
		spec:     topoSpec{relays: 4, maxHops: 1, probeInterval: 5 * time.Second, accessDelay: relayAccessDelay},
		kind:     "relay",
		shape:    shapeEcho,
		tailPct:  90,
		warmOps:  2000,
		slices:   10,
		peakRate: 40000,
	},
	"churn": {
		name:     "churn",
		spec:     topoSpec{relays: 32, maxHops: 2, probeInterval: time.Second, accessDelay: relayAccessDelay},
		kind:     "relay",
		shape:    shapeRR,
		reqLen:   256,
		respLen:  4 << 10,
		tailPct:  90,
		warmOps:  300,
		slices:   10,
		peakRate: 6000,
	},
	"wan": {
		name:    "wan",
		spec:    topoSpec{relays: 2, maxHops: 2, probeInterval: 750 * time.Millisecond, wan: true},
		kind:    "chain",
		shape:   shapeRR,
		reqLen:  1 << 10,
		respLen: 64 << 10,
		tailPct: 90,
		rate:    14,
		warmOps: 10,
		slices:  1,
	},
}

// clients is the most client connections a workload holds at once.
const clients = 2

// setupsPerRun is how many times an untraced run builds its topology;
// setup_s is their median.
const setupsPerRun = 3

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "churn", "traffic mix: bulk, stream, churn or wan")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *name)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(w, *seed, window)
	} else {
		res, err = untracedRun(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// ready reports whether the control plane has committed the designed
// route kind and the warm pool is full, read from registry metrics only.
func ready(kind string, m snap) bool {
	if m.vals["cronets_pathmon_rounds_total"] < 1 || m.vals["cronets_pathmon_best_is_direct"] != 0 {
		return false
	}
	if kind == "chain" && m.vals["cronets_pathmon_switches_total"] < 1 {
		// Chains are enumerated after the first round, so the designed
		// chain is always a switch away from the initial best.
		return false
	}
	return m.vals["cronets_connpool_size"] >= poolSize*poolRelays
}

// waitReady polls the registry until ready or the timeout.
func waitReady(t *topo, kind string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !ready(kind, t.snapshot()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("designed %s route not committed with a warm pool after %v", kind, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// setup builds the workload's topology and returns it once the designed
// route is committed, the pool is warm, and the clients are warmed up
// over the designed route.
func setup(w workload, pat *pattern, seed int64, hk hooks) (*topo, []*session, error) {
	t, err := build(w.spec, pat, seed, hk)
	if err != nil {
		return nil, nil, err
	}
	sessions := make([]*session, clients)
	for i := range sessions {
		sessions[i] = newSession(w.shape, i, dialTCP(t.gwAddr), pat, w.reqLen, w.respLen)
	}
	fail := func(err error) (*topo, []*session, error) {
		for _, s := range sessions {
			s.close()
		}
		t.close()
		return nil, nil, err
	}
	const timeout = 30 * time.Second
	deadline := time.Now().Add(timeout)
	for attempt := int64(0); ; attempt++ {
		if err := waitReady(t, w.kind, time.Until(deadline)); err != nil {
			return fail(err)
		}
		before := t.snapshot()
		for _, s := range sessions {
			s.seed(-1 - seed - attempt)
		}
		warm := runN(sessions, w.warmOps)
		if warm.failed > 0 {
			return fail(fmt.Errorf("warm-up: %d of %d ops failed: %s", warm.failed, warm.attempted, warm.firstErrors()))
		}
		guard := routeGuard(w.kind, before, t.snapshot())
		if guard == nil {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("warm-up: %w", guard))
		}
		time.Sleep(w.spec.probeInterval)
	}
	// Start the window with a full pool, as a quiet gateway would.
	if err := waitReady(t, w.kind, time.Until(deadline)); err != nil {
		return fail(err)
	}
	return t, sessions, nil
}

// runN runs n ops on every session, concurrently across sessions.
func runN(sessions []*session, n int) *tally {
	out := make([]tally, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				out[i].add(s.do(), false)
			}
		}()
	}
	wg.Wait()
	var t tally
	for i := range out {
		t.merge(&out[i])
	}
	return &t
}

// runWindow runs the workload's measured window on a set-up topology.
func runWindow(w workload, sessions []*session, seed int64, window time.Duration, keep bool) *tally {
	for _, s := range sessions {
		s.seed(seed)
	}
	if w.rate > 0 {
		return openLoop(sessions, time.Now(), poissonSchedule(seed, w.rate, window), keep)
	}
	return closedLoop(sessions, time.Now().Add(window), keep, int(w.peakRate*window.Seconds())/len(sessions))
}

// windowReading is one measured interval's process-level readings.
type windowReading struct {
	start   time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	metrics snap
	peak    *goroutinePeak
	marks   []mark
	stop    chan struct{}
	done    chan struct{}
}

// mark is the process CPU time at a slice boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// startWindow takes the opening readings and, for a sliced window,
// starts marking process CPU at each slice boundary.
func startWindow(t *topo, slices int, window time.Duration) *windowReading {
	r := &windowReading{metrics: t.snapshot(), stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&r.mem)
	r.peak = startGoroutinePeak()
	r.cpu = cpuTime()
	r.start = time.Now()
	r.marks = []mark{{r.start, r.cpu}}
	go func() {
		defer close(r.done)
		if slices <= 1 {
			return
		}
		for i := 1; i <= slices; i++ {
			at := r.start.Add(window * time.Duration(i) / time.Duration(slices))
			select {
			case <-r.stop:
				return
			case <-time.After(time.Until(at)):
				r.marks = append(r.marks, mark{time.Now(), cpuTime()})
			}
		}
	}()
	return r
}

// end closes the window and returns its CPU time and duration.
func (r *windowReading) end() (cpu, elapsed time.Duration) {
	cpu, elapsed = cpuTime()-r.cpu, time.Since(r.start)
	close(r.stop)
	<-r.done
	r.peak.done()
	return cpu, elapsed
}

func untracedRun(w workload, seed int64, window time.Duration) (*result, error) {
	baseline := runtime.NumGoroutine()
	pat := newPattern(seed)
	var setups []float64
	var t *topo
	var sessions []*session
	for i := 0; i < setupsPerRun; i++ {
		start := time.Now()
		var err error
		t, sessions, err = setup(w, pat, seed, hooks{})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupsPerRun-1 {
			for _, s := range sessions {
				s.close()
			}
			t.close()
		}
	}

	r := startWindow(t, w.slices, window)
	tl := runWindow(w, sessions, seed, window, false)
	cpu, elapsed := r.end()
	guard := routeGuard(w.kind, r.metrics, t.snapshot())

	for _, s := range sessions {
		s.close()
	}
	t.close()
	leaked := leakedGoroutines(baseline, 2*time.Second)

	res := &result{Attempted: tl.attempted, Failed: tl.failed, Metrics: endToEnd(w, tl, r.marks, elapsed, cpu)}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Correct = tl.failed == 0 && guard == nil && tl.attempted > tl.failed
	report(w, tl, guard, leaked)
	return res, nil
}

// endToEnd derives every end-to-end metric from a window's tally: over
// the whole window, or as the median over its slices when CPU was marked
// at slice boundaries.
func endToEnd(w workload, tl *tally, marks []mark, elapsed, cpu time.Duration) map[string]metric {
	if len(marks) < 3 {
		return sliceMetrics(w, tl.samples, elapsed, cpu)
	}
	per := map[string][]float64{}
	units := map[string]string{}
	for i := 1; i < len(marks); i++ {
		lo, hi := marks[i-1], marks[i]
		var ss []sample
		for _, s := range tl.samples {
			if end := s.endTime(); !end.Before(lo.at) && end.Before(hi.at) {
				ss = append(ss, s)
			}
		}
		for k, m := range sliceMetrics(w, ss, hi.at.Sub(lo.at), hi.cpu-lo.cpu) {
			per[k] = append(per[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]metric{}
	for k, vs := range per {
		out[k] = metric{median(vs), units[k]}
	}
	out["rss_peak_MB"] = metric{rssPeakMB(), "MB"}
	fmt.Printf("# per-slice ops_per_s: %.0f\n", per["ops_per_s"])
	return out
}

// sliceMetrics computes the end-to-end metrics of one stretch of time.
func sliceMetrics(w workload, ss []sample, d, cpu time.Duration) map[string]metric {
	ok := float64(len(ss))
	bytes := float64(payload(ss))
	lat, ttfb := lats(ss), ttfbs(ss)
	return map[string]metric{
		"ops_per_s":       {ok / d.Seconds(), "1/s"},
		"goodput_MBps":    {bytes / d.Seconds() / 1e6, "MB/s"},
		"op_p50_ms":       {median(lat), "ms"},
		"op_tail_ms":      {pct(lat, w.tailPct), "ms"},
		"ttfb_p50_ms":     {median(ttfb), "ms"},
		"ttfb_tail_ms":    {pct(ttfb, w.tailPct), "ms"},
		"cpu_us_per_op":   {float64(cpu.Microseconds()) / max(ok, 1), "us"},
		"cpu_ns_per_byte": {float64(cpu.Nanoseconds()) / max(bytes, 1), "ns/B"},
		"rss_peak_MB":     {rssPeakMB(), "MB"},
	}
}

// report prints what the JSON line cannot carry: the failure ratio, the
// sample counts behind the percentiles, the route guard and the leak
// check.
func report(w workload, tl *tally, guard error, leaked int) {
	fmt.Printf("%-40s %14.4f %s\n", "fail_ratio", float64(tl.failed)/float64(max(tl.attempted, 1)), "ratio")
	lat := lats(tl.samples)
	fmt.Printf("# workload=%s ops=%d failed=%d latency_samples=%d ttfb_samples=%d tail=p%g slices=%d\n",
		w.name, tl.attempted, tl.failed, len(lat), len(ttfbs(tl.samples)), w.tailPct, w.slices)
	fmt.Printf("# whole-window op ms: p50=%.4g p90=%.4g p99=%.4g p99.9=%.4g max=%.4g\n",
		pct(lat, 50), pct(lat, 90), pct(lat, 99), pct(lat, 99.9), pct(lat, 100))
	if tl.failed > 0 {
		fmt.Printf("# failures: %s\n", tl.firstErrors())
	}
	if guard != nil {
		fmt.Printf("# INVALID RUN: %v\n", guard)
	}
	fmt.Printf("# goroutines above the pre-setup count after teardown: %d\n", leaked)
}
