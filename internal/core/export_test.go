package core

import (
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
)

// WithoutPrescreen returns opts with the structural prescreen turned off:
// every (sub-DDG × kind) solve reaches the cache and then its matcher. The
// prescreen differential suite uses it as the reference run.
func WithoutPrescreen(opts Options) Options {
	opts.noPrescreen = true
	return opts
}

// SetMatchTaskHook installs (or, with nil, removes) the hook run at the
// entry of every (sub-DDG × kind) solve task, on the worker goroutine.
// Tests use it to observe that kinds of one sub-DDG really run as
// independent tasks on separate workers.
func SetMatchTaskHook(h func(kind patterns.Kind)) { matchTaskHook = h }

// GenRandomProgram exposes the random-program generator to external test
// packages. The prescreen differential suite lives outside the package
// because it compares report bytes, and report imports core.
func GenRandomProgram(seed uint64) *mir.Program { return genProgram(seed) }

// PartnerDiff runs the finder's fixpoint on g with the indexed partner
// search of subtract, fuse and merge checked against the pairwise oracle
// at every phase (partners_oracle_test.go); nil means they agreed.
func PartnerDiff(g *ddg.Graph, opts Options) error { return partnerDiff(g, opts, 0) }
