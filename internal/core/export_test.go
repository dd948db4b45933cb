package core

import (
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
