package core_test

import (
	"fmt"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// TestLoopSubsMatchScopeChains holds the loop sub-DDGs read off the
// iteration indexes equal to the buckets of the nodes by the loops of
// their scope chains, on the traced and the simplified graph, for random
// programs, all 16 Starbench programs at their analysis inputs and c-ray
// seq at twice its width.
func TestLoopSubsMatchScopeChains(t *testing.T) {
	check := func(name string, g *ddg.Graph) {
		t.Helper()
		for _, h := range []*ddg.Graph{g, core.Simplify(g)} {
			if err := core.LoopSubsDiff(h); err != nil {
				t.Errorf("%s (%d nodes): %v", name, h.NumNodes(), err)
			}
		}
	}
	for seed := uint64(1); seed <= 40; seed++ {
		tr, err := trace.Run(core.GenRandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: trace.Run: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d", seed), tr.Graph)
	}
	run := func(name string, b *starbench.Benchmark, v starbench.Version, par starbench.Params) {
		tr, err := trace.Run(b.Build(v, par).Prog)
		if err != nil {
			t.Fatalf("%s: trace.Run: %v", name, err)
		}
		check(name, tr.Graph)
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
