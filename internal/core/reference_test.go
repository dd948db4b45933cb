package core_test

import (
	"fmt"
	"testing"

	"discovery/internal/core"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// TestFindMatchesReference checks Find against the reference Find
// (Algorithm 1 as written, reference_oracle_test.go) on random programs,
// also with a view-size gate of 4 groups that skips some of their views,
// on every Starbench program at its analysis input, and on c-ray at twice
// its width, where each difference subtract builds is twice as large.
func TestFindMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		tr, err := trace.Run(core.GenRandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: trace.Run: %v", seed, err)
		}
		for _, opts := range []core.Options{{}, {MaxViewGroups: 4}} {
			if err := core.ReferenceDiff(tr.Graph, opts); err != nil {
				t.Errorf("seed %d, view gate %d: %v", seed, opts.MaxViewGroups, err)
			}
		}
	}
	run := func(name string, b *starbench.Benchmark, v starbench.Version, par starbench.Params) {
		tr, err := trace.Run(b.Build(v, par).Prog)
		if err != nil {
			t.Fatalf("%s: trace.Run: %v", name, err)
		}
		if err := core.ReferenceDiff(tr.Graph, core.Options{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			run(fmt.Sprintf("%s/%s", b.Name, v), b, v, b.Analysis)
		}
	}
	cray := starbench.Lookup("c-ray")
	wide := starbench.Params{}
	for k, x := range cray.Analysis {
		wide[k] = x
	}
	wide["w"] *= 2
	run("c-ray/seq x2", cray, starbench.Seq, wide)
}
