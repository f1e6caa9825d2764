package pathmon

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cronets/internal/measure"
)

// series is one random probe history for the published-table property:
// a small fleet, a hysteresis setting, and a seed from which every
// round's RTTs, probe failures, and burst outcomes are drawn.
type series struct {
	Seed         int64
	Fleet        int
	Rounds       int
	MaxHops      int
	SwitchRounds int
}

func (series) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(series{
		Seed:         r.Int63(),
		Fleet:        1 + r.Intn(4),
		Rounds:       10 + r.Intn(50),
		MaxHops:      1 + r.Intn(2),
		SwitchRounds: 2 + r.Intn(3),
	})
}

func (s series) config() Config {
	cfg := Config{
		Alpha:         0.5,
		BurstDuration: 100 * time.Millisecond,
		SwitchRounds:  s.SwitchRounds,
		MaxHops:       s.MaxHops,
	}
	for i := 0; i < s.Fleet; i++ {
		cfg.Fleet = append(cfg.Fleet, fmt.Sprintf("relay-%d:9000", i))
	}
	return cfg
}

// drawRound builds one round's results for the routes the monitor would
// probe now (static set, then chain candidates — ProbeRound's order), so
// two monitors with the same probe set draw the same values.
func drawRound(m *Monitor, rng *rand.Rand) []probeResult {
	m.mu.Lock()
	routes := append(append([]Route(nil), m.order...), m.chains...)
	m.mu.Unlock()
	results := make([]probeResult, 0, len(routes))
	for _, p := range routes {
		r := probeResult{route: p}
		if rng.Intn(5) == 0 {
			r.err = context.DeadlineExceeded
		} else {
			r.rtt = time.Duration(5+rng.Intn(120)) * time.Millisecond
			switch rng.Intn(3) {
			case 0:
				r.burst, r.burstErr = true, measure.ErrTruncatedBurst
			case 1:
				r.burst, r.mbps = true, 1+rng.Float64()*200
			}
		}
		results = append(results, r)
	}
	return results
}

// checkRound verifies one view's published table right after a round fed
// results: it is exactly what a fresh ranking under the lock would build,
// it marks exactly the committed best, and a switch away from prev's best
// either followed the incumbent going down or completed a SwitchRounds
// streak.
func checkRound(m *Monitor, v *View, prev *table, results []probeResult, now time.Time) error {
	m.mu.Lock()
	fresh := m.rankForLocked(v, now)
	rounds := m.roundsDone
	m.mu.Unlock()
	tab := v.tab.Load()
	if got := v.Ranked(); !reflect.DeepEqual(got, fresh) {
		return fmt.Errorf("Ranked() = %+v, fresh ranking = %+v", got, fresh)
	}
	if tab.round != rounds {
		return fmt.Errorf("table round %d, monitor integrated %d", tab.round, rounds)
	}
	best, chosen := v.Best()
	marked := 0
	for _, row := range tab.rows {
		if row.Best {
			marked++
			if row.Route != best {
				return fmt.Errorf("row %v marked best, Best() = %v", row.Route, best)
			}
		}
	}
	if want := map[bool]int{true: 1, false: 0}[chosen]; marked != want {
		return fmt.Errorf("%d rows marked best with chosen=%v", marked, chosen)
	}
	if !prev.chosen || best == prev.best {
		return nil
	}
	if downAfter(prev, prev.best, results, m.cfg.FailThreshold) {
		return nil // the incumbent went down: immediate switch
	}
	if prev.challenger == best && prev.streak == m.cfg.SwitchRounds-1 {
		return nil
	}
	return fmt.Errorf("switched %v -> %v with prior challenger %v at streak %d (SwitchRounds %d)",
		prev.best, best, prev.challenger, prev.streak, m.cfg.SwitchRounds)
}

// downAfter replays one round's result for r onto its row in prev: is the
// route out of contention now? (The row itself may be gone from the new
// table — a chain dropped once no view holds it any more.)
func downAfter(prev *table, r Route, results []probeResult, failThreshold int) bool {
	samples, fails := 0, 0
	for _, row := range prev.rows {
		if row.Route == r {
			samples, fails = row.Samples, row.Fails
		}
	}
	for _, res := range results {
		if res.route != r {
			continue
		}
		if res.err != nil {
			fails++
		} else {
			samples, fails = samples+1, 0
		}
	}
	return samples == 0 || fails >= failThreshold
}

// TestPublishedTableProperty feeds random RTT, failure and burst series
// through integrate with a latency and a throughput view, and checks
// every round's published tables against a fresh ranking and the
// hysteresis contract. It also checks views are independent: the latency
// view commits to the same sequence of best routes whether or not a
// throughput view shares its monitor.
func TestPublishedTableProperty(t *testing.T) {
	prop := func(s series) bool {
		m, _ := synthMonitor(t, s.config())
		tp := m.View(ObjectiveThroughput)
		solo, _ := synthMonitor(t, s.config())
		rng := rand.New(rand.NewSource(s.Seed))
		now := time.Unix(1000, 0)
		for i := 0; i < s.Rounds; i++ {
			now = now.Add(time.Duration(1+rng.Intn(3)) * time.Second)
			roundSeed := rng.Int63()
			prevLat, prevTP := m.defView.tab.Load(), tp.tab.Load()
			results := drawRound(m, rand.New(rand.NewSource(roundSeed)))
			m.integrate(results, now)
			for _, c := range []struct {
				v    *View
				prev *table
			}{{m.defView, prevLat}, {tp, prevTP}} {
				if err := checkRound(m, c.v, c.prev, results, now); err != nil {
					t.Errorf("%+v round %d, %v view: %v", s, i+1, c.v.obj, err)
					return false
				}
			}
			if s.MaxHops > 1 {
				// Chains kept for the throughput view's incumbent change
				// the probe set, so the solo twin only tracks single hops.
				continue
			}
			solo.integrate(drawRound(solo, rand.New(rand.NewSource(roundSeed))), now)
			gotBest, gotOK := m.Best()
			soloBest, soloOK := solo.Best()
			if gotBest != soloBest || gotOK != soloOK {
				t.Errorf("%+v round %d: latency best %v (%v) with a throughput view, %v (%v) without",
					s, i+1, gotBest, gotOK, soloBest, soloOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRankedReadAllocs: reading the published table allocates nothing,
// on the monitor and on a secondary view — the per-dial cost of the
// gateway's route selection and of every pool fill.
func TestRankedReadAllocs(t *testing.T) {
	m, _ := synthMonitor(t, Config{
		Fleet:   []string{"relay-a:9000", "relay-b:9000", "relay-c:9000"},
		Alpha:   1,
		MaxHops: 2,
	})
	tp := m.View(ObjectiveThroughput)
	rng := rand.New(rand.NewSource(1))
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		m.integrate(drawRound(m, rng), now)
	}
	for _, r := range []interface {
		Best() (Route, bool)
		Ranked() []RouteStatus
	}{m, tp} {
		if len(r.Ranked()) == 0 {
			t.Fatal("empty table after 5 rounds")
		}
		allocs := testing.AllocsPerRun(100, func() {
			r.Best()
			r.Ranked()
		})
		if allocs != 0 {
			t.Errorf("%T: Best+Ranked allocate %.1f per read, want 0", r, allocs)
		}
	}
}

// TestPublishedTableConcurrentReads: every read path loads the published
// table while rounds integrate on another goroutine. Under -race it shows
// no reader touches state the probe loop writes; it also checks a reader
// never sees the round count go backwards.
func TestPublishedTableConcurrentReads(t *testing.T) {
	m, reg := synthMonitor(t, Config{
		Fleet:         []string{"relay-a:9000", "relay-b:9000", "relay-c:9000"},
		MaxHops:       2,
		BurstDuration: 100 * time.Millisecond,
	})
	tp := m.View(ObjectiveThroughput)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	read := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	var last int64
	read(func() {
		m.Best()
		_ = len(m.Ranked())
		if r := m.Rounds(); r < last {
			t.Errorf("Rounds went backwards: %d after %d", r, last)
		} else {
			last = r
		}
	})
	read(func() {
		tp.Best()
		_ = len(tp.Ranked())
	})
	read(func() {
		reg.Snapshot()
		m.PathsHandler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/paths", nil))
	})
	rng := rand.New(rand.NewSource(1))
	now := time.Unix(1000, 0)
	for i := 0; i < 200; i++ {
		now = now.Add(time.Second)
		m.integrate(drawRound(m, rng), now)
	}
	close(stop)
	wg.Wait()
}
