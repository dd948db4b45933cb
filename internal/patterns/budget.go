package patterns

// Per-kind matcher accounting. The paper reports its constraint-solver
// runs and the resource-limited ones among them (Table 3). Here every
// matcher decides by structure, with no per-run limit: the finder's global
// deadline is enforced by its scheduler, which drops tasks claimed past
// it. What is left to account per pattern kind is how often the reduction
// matchers ran, what they found and what they cost, and how the finder's
// view cache and structural prescreen answered the rest.

import (
	"time"

	"discovery/internal/obs"
)

// KindStats rolls up the matcher effort and cache outcomes attributed to
// one pattern kind.
type KindStats struct {
	// Runs counts reduction matcher runs (linear and tiled reductions)
	// past the census gate (View.CannotMatch), Solutions the patterns
	// those runs returned, and Elapsed their wall time. The other kinds'
	// matchers are not booked here.
	Runs      int
	Solutions int64
	Elapsed   time.Duration
	// Timeouts, Nodes and Propagations are always zero. They counted
	// constraint-solver effort, and no matcher runs a solver; they remain
	// for the consumers that still read them.
	Timeouts     int
	Nodes        int64
	Propagations int64
	// Prescreened counts solves answered by the structural prescreen
	// (prescreen.go) — provably-UNSAT views that never reached the matcher.
	// A prescreened solve is also booked as a cache miss so the cache
	// accounting matches a prescreen-less run.
	Prescreened int
	// Cache outcomes for this kind from the finder's view cache, which
	// stores one outcome per sub-DDG: Hits are solves answered from a
	// stored outcome, one per kind its entry lists; Misses are solves
	// that ran and whose outcome the entry then stored.
	CacheHits   int
	CacheMisses int
}

// Add accumulates other into k (for cross-worker rollups).
func (k *KindStats) Add(other KindStats) {
	k.Runs += other.Runs
	k.Solutions += other.Solutions
	k.Elapsed += other.Elapsed
	k.Prescreened += other.Prescreened
	k.CacheHits += other.CacheHits
	k.CacheMisses += other.CacheMisses
}

// Budget is the per-kind tally of one unit of match work: matcher runs,
// prescreen answers and cache outcomes. The finder gives each sub-DDG it
// matches its own and merges it once afterwards, so the tallies live in a
// fixed array, one slot per kind, and booking allocates nothing. A nil
// *Budget is valid everywhere and records nothing. A Budget is not safe
// for concurrent use.
type Budget struct {
	// Obs, when non-nil and enabled, receives one latency sample
	// (obs.MetricSolveSeconds) per booked matcher run. Nil — the default —
	// keeps the match path free of observability work.
	Obs obs.Recorder

	// kinds holds one tally per kind. Every booking counts something, so
	// a slot that is still zero was never booked.
	kinds [numKindSlots]KindStats
}

// numKindSlots counts the kinds a Budget tallies: the paper's seven, then
// the extension kinds from KindStencil on.
const numKindSlots = int(KindTiledMapReduction) + 1 + int(KindPipeline-KindStencil) + 1

// kindSlot maps a kind to its Budget slot.
func kindSlot(k Kind) int {
	if k >= KindStencil {
		return int(KindTiledMapReduction) + 1 + int(k-KindStencil)
	}
	return int(k)
}

// slotKind is kindSlot's inverse.
func slotKind(i int) Kind {
	if i > int(KindTiledMapReduction) {
		return KindStencil + Kind(i-int(KindTiledMapReduction)-1)
	}
	return Kind(i)
}

// stats returns the KindStats slot for kind.
func (b *Budget) stats(kind Kind) *KindStats { return &b.kinds[kindSlot(kind)] }

// Each calls fn with every kind booked and its tally, in kind order.
func (b *Budget) Each(fn func(Kind, KindStats)) {
	if b == nil {
		return
	}
	for i, ks := range &b.kinds {
		if ks != (KindStats{}) {
			fn(slotKind(i), ks)
		}
	}
}

// RecordRun books one matcher run past the census gate under kind: whether
// it returned a pattern, and its wall time.
func (b *Budget) RecordRun(kind Kind, found bool, elapsed time.Duration) {
	if b == nil {
		return
	}
	ks := b.stats(kind)
	ks.Runs++
	if found {
		ks.Solutions++
	}
	ks.Elapsed += elapsed
	if b.Obs != nil && b.Obs.Enabled() {
		b.Obs.Observe(obs.MetricSolveSeconds, elapsed.Seconds())
	}
}

// RecordCacheHit books a solve answered from the view cache.
func (b *Budget) RecordCacheHit(kind Kind) {
	if b != nil {
		b.stats(kind).CacheHits++
	}
}

// RecordCacheMiss books a solve that ran because the view cache had no
// usable entry.
func (b *Budget) RecordCacheMiss(kind Kind) {
	if b != nil {
		b.stats(kind).CacheMisses++
	}
}

// RecordPrescreened books a solve answered by the structural prescreen
// (the verdict was CannotMatch, so no matcher ran).
func (b *Budget) RecordPrescreened(kind Kind) {
	if b != nil {
		b.stats(kind).Prescreened++
	}
}

// Merge folds the tallies of other into b. Used to combine per-sub-DDG
// budgets; the sums do not depend on merge order.
func (b *Budget) Merge(other *Budget) {
	if b == nil || other == nil {
		return
	}
	other.Each(func(kind Kind, ks KindStats) { b.stats(kind).Add(ks) })
}
