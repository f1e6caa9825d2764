package netem

// Fault injection: a scriptable per-proxy FaultPlan that breaks proxied
// connections on cue — kill at a byte offset or after a duration,
// blackhole a direction (stall without closing), refuse inbound connects.
// Rules with a Probability are armed per connection from the proxy's
// seeded RNG, so a fault run is as reproducible as a jitter run.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cronets/internal/obs"
)

// Direction selects which way(s) of a proxied connection a rule watches.
type Direction int

// Directions. Up is client -> target (matching Config.Up); Down is the
// reverse.
const (
	DirBoth Direction = iota
	DirUp
	DirDown
)

// String returns the direction's display name.
func (d Direction) String() string {
	switch d {
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	default:
		return "both"
	}
}

// FaultAction is what a triggered rule does to the connection.
type FaultAction int

const (
	// FaultKill closes both sides of the connection immediately — a path
	// failure with a RST-like signature.
	FaultKill FaultAction = iota
	// FaultBlackhole stalls forwarding in the rule's direction without
	// closing either socket — a silent path (routing loop, dropped
	// forwarding state) that only timeouts can detect.
	FaultBlackhole
)

// String returns the action's display name.
func (a FaultAction) String() string {
	if a == FaultBlackhole {
		return "blackhole"
	}
	return "kill"
}

// FaultRule triggers one fault on matching connections.
type FaultRule struct {
	// Conn is the 0-based index of the accepted connection the rule
	// matches (refused connects consume indices too); -1 matches every
	// connection.
	Conn int
	// Dir is the direction whose byte count triggers the rule and, for
	// blackholes, the direction that stalls. Kills tear down the whole
	// connection regardless.
	Dir Direction
	// AfterBytes triggers once the matched direction has forwarded
	// exactly this many bytes; the shaper splits chunks so the cut lands
	// on the offset.
	AfterBytes int64
	// After triggers this long after the connection is established.
	// With AfterBytes also zero, the rule fires immediately on connect.
	After time.Duration
	// Probability arms the rule on a matching connection with this
	// chance, drawn from the proxy's seeded RNG (<= 0 or >= 1 always
	// arms). Sequential connections draw in order, so a seeded run
	// replays the same faults.
	Probability float64
	// Action is what happens when the rule fires.
	Action FaultAction
}

// FaultPlan scripts a proxy's faults.
type FaultPlan struct {
	// RefuseConns refuses the first N inbound connections: each is
	// closed at accept, before the upstream dial.
	RefuseConns int
	// Rules are evaluated per accepted connection.
	Rules []FaultRule
}

// armedRule is one rule bound to a live connection. The fired guard makes
// a DirBoth rule (present in both directions' watch lists) fire once.
type armedRule struct {
	p        *Proxy
	rule     FaultRule
	connIdx  int64
	down, up net.Conn

	mu        sync.Mutex
	fired     bool
	timer     *time.Timer
	blackhole atomic.Bool
}

// fire applies the rule's action once; cause describes the trigger.
func (a *armedRule) fire(cause string) {
	a.mu.Lock()
	if a.fired {
		a.mu.Unlock()
		return
	}
	a.fired = true
	a.mu.Unlock()
	a.p.faults.Inc()
	a.p.scope.Event(obs.EventFaultInjected,
		fmt.Sprintf("%s conn %d dir %s %s", a.rule.Action, a.connIdx, a.rule.Dir, cause))
	switch a.rule.Action {
	case FaultKill:
		_ = a.down.Close()
		_ = a.up.Close()
	case FaultBlackhole:
		a.blackhole.Store(true)
	}
}

// stop cancels a pending duration trigger (the connection ended first).
func (a *armedRule) stop() {
	a.mu.Lock()
	if a.timer != nil {
		a.timer.Stop()
	}
	a.mu.Unlock()
}

// armFaults binds the plan's rules to connection idx and returns the
// per-direction watch lists (nil when no rule matches).
func (p *Proxy) armFaults(idx int64, down, up net.Conn) (upRules, downRules, all []*armedRule) {
	for _, rule := range p.cfg.Faults.Rules {
		if rule.Conn >= 0 && int64(rule.Conn) != idx {
			continue
		}
		if rule.Probability > 0 && rule.Probability < 1 && p.randFloat() >= rule.Probability {
			continue
		}
		a := &armedRule{p: p, rule: rule, connIdx: idx, down: down, up: up}
		all = append(all, a)
		if rule.Dir == DirUp || rule.Dir == DirBoth {
			upRules = append(upRules, a)
		}
		if rule.Dir == DirDown || rule.Dir == DirBoth {
			downRules = append(downRules, a)
		}
		switch {
		case rule.After > 0:
			a.mu.Lock()
			a.timer = time.AfterFunc(rule.After, func() {
				a.fire(fmt.Sprintf("after %v", rule.After))
			})
			a.mu.Unlock()
		case rule.AfterBytes <= 0:
			// No trigger condition at all: fire on connect.
			a.fire("on connect")
		}
	}
	return upRules, downRules, all
}

// tryRefuse consumes one unit of refuse budget, reporting whether the
// connection at idx should be refused.
func (p *Proxy) tryRefuse(idx int64) bool {
	for {
		n := p.refuseN.Load()
		if n <= 0 {
			return false
		}
		if p.refuseN.CompareAndSwap(n, n-1) {
			p.faults.Inc()
			p.refused.Inc()
			p.scope.Event(obs.EventFaultInjected,
				fmt.Sprintf("refuse conn %d", idx))
			return true
		}
	}
}

// randFloat draws a uniform [0, 1) from the proxy's seeded source.
func (p *Proxy) randFloat() float64 {
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return p.rng.Float64()
}
