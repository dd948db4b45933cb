package core_test

// Prescreen differential soundness suite. The structural prescreen is a
// pure fast path: it may only skip solves whose matcher would have
// returned nil anyway, and it must book the same cache accounting a
// matcher rejection would have. So a run with the prescreen enabled
// (the default) must produce byte-identical report JSON — patterns,
// matches, per-kind solver counters, cache rollup, everything — to a
// prescreen-off run (core.WithoutPrescreen), on every corpus
// benchmark×version and on a spread of random programs. Any divergence
// means a prescreen rule diverged from its matcher.

import (
	"bytes"
	"fmt"
	"testing"

	"discovery/internal/core"
	"discovery/internal/report"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// comparePrescreenModes runs find twice — prescreen off, then on — and
// fails the test on any difference in the pattern/match signature or the
// exported JSON bytes. Returns the prescreen-on result for extra
// assertions.
func comparePrescreenModes(t *testing.T, find func(core.Options) *core.Result, opts core.Options) *core.Result {
	t.Helper()
	resOff := find(core.WithoutPrescreen(opts))
	resOn := find(opts)

	if got, want := findSig(resOn), findSig(resOff); got != want {
		t.Errorf("prescreen changes the pattern set:\n--- prescreen off ---\n%s--- prescreen ---\n%s", want, got)
	}
	// Solver elapsed time is wall clock — the one legitimately
	// nondeterministic field. Zero it on both sides so the byte comparison
	// checks every deterministic counter without timing flake.
	for _, res := range []*core.Result{resOff, resOn} {
		for k, ks := range res.SolverStats {
			ks.Elapsed = 0
			res.SolverStats[k] = ks
		}
	}
	jsonOff, err := report.JSON(resOff)
	if err != nil {
		t.Fatalf("json (prescreen off): %v", err)
	}
	jsonOn, err := report.JSON(resOn)
	if err != nil {
		t.Fatalf("json (prescreen): %v", err)
	}
	if !bytes.Equal(jsonOn, jsonOff) {
		t.Errorf("prescreen changes the report JSON:\n--- prescreen off ---\n%s\n--- prescreen ---\n%s", jsonOff, jsonOn)
	}
	if checks, _ := resOff.PrescreenStats(); checks != 0 {
		t.Errorf("prescreen-off run still ran %d prescreen check(s)", checks)
	}
	return resOn
}

func TestPrescreenDifferentialCorpus(t *testing.T) {
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			b, v := b, v
			t.Run(b.Name+"/"+string(v), func(t *testing.T) {
				built := b.Build(v, b.Analysis)
				tr, err := trace.Run(built.Prog)
				if err != nil {
					t.Fatalf("trace: %v", err)
				}
				res := comparePrescreenModes(t, func(o core.Options) *core.Result {
					return core.Find(tr.Graph, o)
				}, core.Options{VerifyMatches: true})
				if checks, _ := res.PrescreenStats(); checks == 0 {
					t.Errorf("prescreen-on run recorded no prescreen checks")
				}
			})
		}
	}
}

func TestPrescreenDifferentialRandomPrograms(t *testing.T) {
	for seed := uint64(301); seed <= 330; seed++ { // 30 seeded programs
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, err := trace.Run(core.GenRandomProgram(seed))
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			pool := sched.NewPool(7, nil)
			defer pool.Close()
			opts := core.Options{Scheduler: pool, VerifyMatches: true}
			if seed%3 == 0 {
				opts.Extensions = true
			}
			comparePrescreenModes(t, func(o core.Options) *core.Result {
				return core.Find(tr.Graph, o)
			}, opts)
		})
	}
}
