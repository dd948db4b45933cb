package core

import (
	"context"

	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/sched"
)

// WithoutPrescreen returns opts with the structural prescreen turned off:
// every kind of every sub-DDG reaches the cache and then its matcher. The
// prescreen differential suite uses it as the reference run.
func WithoutPrescreen(opts Options) Options {
	opts.noPrescreen = true
	return opts
}

// WithInlineCensus returns opts with every census counted inside its
// match item, none in chunks ahead of the match sweep: the reference run
// of the chunked census tests.
func WithInlineCensus(opts Options) Options {
	opts.inlineCensus = true
	return opts
}

// SetSweepItemHook installs (or, with nil, removes) the hook run before
// every sweep item (one of decompose's two scans, an associative
// component of decompose, a census chunk, a sub-DDG of the match phase, a
// pool entry of subtract or fuse, a pipeline pair), with the phase name.
// Tests use it to cancel a run mid-sweep or to hold executors at a
// rendezvous.
func SetSweepItemHook(h func(phase string)) { sweepItemHook = h }

// DecomposeOn runs the decomposition of g as FindCtx does, on a run of
// its own under ctx on pool (nil: the process default pool). The Result
// carries what the run records: contained item failures, and Interrupted
// when ctx ended before the sweep did.
func DecomposeOn(ctx context.Context, pool *sched.Pool, g *ddg.Graph) ([]*SubDDG, *Result) {
	res := &Result{}
	sc := newRunSched(ctx, Options{Scheduler: pool}, res)
	subs := decompose(sc, g)
	interrupted(ctx, res)
	return subs, res
}

// Decompose is DecomposeOn with a background context on the default pool.
func Decompose(g *ddg.Graph) []*SubDDG {
	subs, _ := DecomposeOn(context.Background(), nil, g)
	return subs
}

// MaxPositionClasses exposes the cap on eachPositionClosedSubset's subset
// enumeration to the decomposition oracle.
const MaxPositionClasses = maxPositionClasses

// GenRandomProgram exposes the random-program generator to external test
// packages. The prescreen differential suite lives outside the package
// because it compares report bytes, and report imports core.
func GenRandomProgram(seed uint64) *mir.Program { return genProgram(seed) }

// PartnerDiff runs the finder's fixpoint on g with the indexed partner
// search of subtract, fuse and merge checked against the pairwise oracle
// at every phase (partners_oracle_test.go); nil means they agreed.
func PartnerDiff(g *ddg.Graph, opts Options) error { return partnerDiff(g, opts, 0) }

// ReferenceDiff runs Find and the reference Find of
// reference_oracle_test.go (Algorithm 1 as written) on g, and returns
// their first disagreement; nil means they agreed.
func ReferenceDiff(g *ddg.Graph, opts Options) error { return referenceDiff(g, opts) }

// LoopSubsDiff compares the loop sub-DDGs decompose reads off g's
// iteration indexes with the bucketing of g's nodes by their scope chains
// (loopsubs_oracle_test.go); nil means they agreed.
func LoopSubsDiff(g *ddg.Graph) error { return loopSubsDiff(g) }
