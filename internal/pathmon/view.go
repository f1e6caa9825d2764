package pathmon

// Objective views: one Monitor, several rankings. A View ranks the
// monitor's shared probe table under its own objective with its own
// hysteresis state — so a bulk listener (throughput objective) and an
// interactive listener (latency objective) share one probe budget, one
// burst cadence, and one event stream, yet each commits to its own best
// route. A View satisfies the same Best/Ranked/Subscribe contract as the
// Monitor itself (the gateway's Ranker seam), so a gateway cannot tell
// which it was given. Readers never rank: integrate publishes each view's
// table once per round, and every read path loads it lock-free.

import (
	"sync/atomic"
	"time"
)

// View is one objective's independently damped ranking over a Monitor's
// probe data. The monitor always has one for its configured objective;
// Monitor.View adds more.
type View struct {
	m   *Monitor
	obj Objective

	// Hysteresis state, guarded by m.mu.
	best          Route
	chosen        bool // a best route has been selected
	challenger    Route
	streak        int
	lastRankFirst Route

	// tab is the view's published table: replaced, never mutated, once
	// per integrated round. It is never nil.
	tab atomic.Pointer[table]
}

// table is one view's published ranking: the score-sorted rows (Best
// already set) and the hysteresis state they were ranked under, swapped
// in together so a reader never pairs one round's rows with another's.
type table struct {
	round      int64
	rows       []RouteStatus
	best       Route
	chosen     bool
	challenger Route
	streak     int
}

// View returns the monitor's ranking under obj, creating it on first
// use. The view for the monitor's configured objective is the monitor's
// own (Monitor.Best and a View of the same objective always agree).
// A view created mid-flight starts unselected and adopts its initial
// best on the next integrated round; creating it before Start avoids
// the gap. Repeated calls for one objective return the same view.
func (m *Monitor) View(obj Objective) *View {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.views {
		if v.obj == obj {
			return v
		}
	}
	// Publish on creation: no reader ever sees a nil table.
	v := &View{m: m, obj: obj}
	m.views = append(m.views, v)
	m.publishLocked(v, m.now())
	return v
}

// publishLocked replaces v's table with a fresh ranking at now under v's
// current hysteresis state. Caller holds m.mu.
func (m *Monitor) publishLocked(v *View, now time.Time) {
	v.tab.Store(&table{
		round:      m.roundsDone,
		rows:       m.rankForLocked(v, now),
		best:       v.best,
		chosen:     v.chosen,
		challenger: v.challenger,
		streak:     v.streak,
	})
}

// Objective returns the view's ranking objective.
func (v *View) Objective() Objective { return v.obj }

// Best returns the view's current best route under its objective and
// whether one has been selected yet (false until the first round with a
// usable result).
func (v *View) Best() (Route, bool) {
	t := v.tab.Load()
	return t.best, t.chosen
}

// Ranked returns the route table sorted best-first under the view's
// objective, as published by the last integrated round (scores and
// staleness are as of that round). Down routes sort last (score +Inf).
// The rows are shared by every reader and must not be modified.
func (v *View) Ranked() []RouteStatus { return v.tab.Load().rows }

// Subscribe registers for the monitor's ranking-change wakeups (all
// views share the probe rounds, so they share the notification stream).
func (v *View) Subscribe() (<-chan struct{}, func()) {
	return v.m.Subscribe()
}
