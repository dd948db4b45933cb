// Package fault is the deterministic fault-injection layer behind the
// chaos harness: a seedable Plan scripts store I/O errors, latency spikes,
// partial (torn) writes, and per-phase panics, addressed by operation
// index so a scripted run replays identically every time. The plan wires
// in at two seams the production code already has — a store.Store
// decorator (Store) and the finder's phase-boundary hook (PhaseHook) — so
// the daemon under chaos runs exactly the code it runs in production, with
// only its environment lying to it.
//
// Determinism is the point. A chaos test that fails must fail the same way
// on the next run; operation counters (one per op class, atomic) make
// index/every rules exact, and probabilistic rules draw from a splitmix64
// stream seeded from Plan.Seed and the op name, never from global
// randomness.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"discovery/internal/analysis"
)

// Action is what an armed rule does to the operation it matches.
type Action string

const (
	// ActionError fails the operation with a transient-typed injected
	// error (the store fallback sees exactly what a flaky disk produces).
	ActionError Action = "error"
	// ActionLatency delays the operation by LatencyMS, then lets it
	// proceed normally — the I/O-stall half of the failure space.
	ActionLatency Action = "latency"
	// ActionTorn, on a store put, simulates a crash mid-write: the entry
	// is reported stored but lands torn (truncated JSON) or not at all,
	// which is what a kill between write and fsync leaves behind.
	ActionTorn Action = "torn"
	// ActionPanic panics with an injected message — at a finder phase
	// boundary this exercises the PR-3 containment; elsewhere it must be
	// caught by the serving layer's recover boundary.
	ActionPanic Action = "panic"
)

// Rule arms one action on an operation class. Matching is by the op's
// per-class invocation counter (0-based): Index/Count select a contiguous
// window, Every selects a periodic subset, Prob a seeded pseudo-random
// subset. Exactly one selector should be set; Index alone means that
// single invocation.
type Rule struct {
	// Op names the operation class: "store.get", "store.put", "store.len",
	// or "phase.<name>" for finder phases ("phase.match", "phase.trace",
	// …). "phase.*" matches every phase boundary.
	Op string `json:"op"`
	// Index is the first matching invocation (0-based), with Count
	// consecutive invocations matched (default 1). Ignored when Every or
	// Prob is set.
	Index int `json:"index,omitempty"`
	Count int `json:"count,omitempty"`
	// Every matches invocations where counter % Every == Offset.
	Every  int `json:"every,omitempty"`
	Offset int `json:"offset,omitempty"`
	// Prob matches each invocation independently with this probability,
	// drawn from the plan's seeded stream for this op class.
	Prob float64 `json:"prob,omitempty"`
	// Action is what happens on a match.
	Action Action `json:"action"`
	// LatencyMS sizes ActionLatency (default 50).
	LatencyMS int64 `json:"latency_ms,omitempty"`
	// Msg customizes the injected error/panic message.
	Msg string `json:"msg,omitempty"`
}

// matches reports whether the rule fires for invocation i (0-based) of its
// op class, drawing from rng when probabilistic.
func (r *Rule) matches(i int, rng *splitmix) bool {
	switch {
	case r.Prob > 0:
		return rng.float() < r.Prob
	case r.Every > 0:
		return i%r.Every == r.Offset%r.Every
	default:
		count := r.Count
		if count <= 0 {
			count = 1
		}
		return i >= r.Index && i < r.Index+count
	}
}

// PlanSpec is the serialized form of a plan (one JSON document; see
// testdata/faultplans in internal/server for the corpus shape).
type PlanSpec struct {
	// Name labels the plan in logs and test output.
	Name string `json:"name,omitempty"`
	// Seed seeds the probabilistic rules' streams. Default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Rules is the script.
	Rules []Rule `json:"rules"`
}

// Plan is a loaded fault plan with its runtime state: per-op-class
// invocation counters and seeded random streams. Safe for concurrent use;
// the counters make concurrent matching deterministic per class up to the
// interleaving of the operations themselves.
type Plan struct {
	spec PlanSpec

	mu       sync.Mutex
	counts   map[string]int
	streams  map[string]*splitmix
	injected int64
}

// New builds a runnable plan from a spec.
func New(spec PlanSpec) (*Plan, error) {
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	for i, r := range spec.Rules {
		switch r.Action {
		case ActionError, ActionLatency, ActionTorn, ActionPanic:
		default:
			return nil, fmt.Errorf("fault: rule %d: unknown action %q", i, r.Action)
		}
		if r.Op == "" {
			return nil, fmt.Errorf("fault: rule %d: empty op", i)
		}
		if r.Action == ActionTorn && r.Op != "store.put" {
			return nil, fmt.Errorf("fault: rule %d: torn writes only apply to store.put", i)
		}
	}
	return &Plan{
		spec:    spec,
		counts:  map[string]int{},
		streams: map[string]*splitmix{},
	}, nil
}

// Parse decodes a PlanSpec JSON document into a runnable plan.
func Parse(data []byte) (*Plan, error) {
	var spec PlanSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("fault: parsing plan: %w", err)
	}
	return New(spec)
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: reading plan: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}

// Name returns the plan's label.
func (p *Plan) Name() string { return p.spec.Name }

// Seed returns the plan's deterministic seed.
func (p *Plan) Seed() uint64 { return p.spec.Seed }

// Injected returns how many faults the plan has fired so far.
func (p *Plan) Injected() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// next advances op's invocation counter and returns the first rule that
// fires for it, or nil. Wildcard phase rules ("phase.*") share one counter
// across all phases, so their indices script "the Nth phase boundary hit".
func (p *Plan) next(op string) *Rule {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hit *Rule
	for ri := range p.spec.Rules {
		r := &p.spec.Rules[ri]
		if r.Op != op && !(strings.HasPrefix(op, "phase.") && r.Op == "phase.*") {
			continue
		}
		key := op
		if r.Op == "phase.*" {
			key = "phase.*"
		}
		// Counter keyed by the rule's own class so "phase.*" counts
		// globally while exact rules count per phase; advanced once per
		// invocation per class below.
		if hit == nil && r.matches(p.counts[key], p.stream(key)) {
			hit = r
		}
	}
	p.counts[op]++
	if strings.HasPrefix(op, "phase.") {
		p.counts["phase.*"]++
	}
	if hit != nil {
		p.injected++
	}
	return hit
}

// stream returns the seeded random stream for an op class; callers hold
// p.mu.
func (p *Plan) stream(key string) *splitmix {
	s, ok := p.streams[key]
	if !ok {
		seed := p.spec.Seed
		for _, c := range key {
			seed = seed*31 + uint64(c)
		}
		s = &splitmix{state: seed}
		p.streams[key] = s
	}
	return s
}

// injectedError builds the transient-typed error every ActionError fires.
func injectedError(op, msg string) error {
	if msg == "" {
		msg = "injected fault"
	}
	return analysis.Errorf(analysis.StageStore, analysis.Transient, "%s: %s", msg, op)
}

// PhaseHook returns a hook for core.Options.PhaseHook (and the serving
// layer's trace boundary): invoked with the phase name at each boundary,
// it panics where the plan scripts a panic and sleeps where it scripts
// latency. Error/torn actions are meaningless at a phase boundary and are
// ignored.
func (p *Plan) PhaseHook() func(phase string) {
	return func(phase string) {
		r := p.next("phase." + phase)
		if r == nil {
			return
		}
		switch r.Action {
		case ActionPanic:
			msg := r.Msg
			if msg == "" {
				msg = "injected phase panic"
			}
			panic(fmt.Sprintf("fault: %s: %s", msg, phase))
		case ActionLatency:
			sleep(r)
		}
	}
}

// splitmix is a splitmix64 stream.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (s *splitmix) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}
