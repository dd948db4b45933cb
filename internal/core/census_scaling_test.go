package core_test

import (
	"testing"

	"discovery/internal/core"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// TestCensusReadsGrowLinearly pins the growth of the census work counter
// (Result.CensusReads) on c-ray seq as its image widens ×1, ×2, ×4: at
// most 2.2× per doubling. Each of c-ray's subtract differences is the big
// loop sub-DDG less one small match, so a census of every difference read
// whole grows with the square of the input (about 4× per doubling), and
// one derived from the nodes each difference loses grows with its count.
func TestCensusReadsGrowLinearly(t *testing.T) {
	b := starbench.Lookup("c-ray")
	prev := 0
	for _, f := range []int64{1, 2, 4} {
		par := starbench.Params{}
		for k, x := range b.Analysis {
			par[k] = x
		}
		par["w"] *= f
		tr, err := trace.Run(b.Build(starbench.Seq, par).Prog)
		if err != nil {
			t.Fatalf("x%d: trace.Run: %v", f, err)
		}
		reads := core.Find(tr.Graph, core.Options{}).CensusReads
		t.Logf("x%d: %d nodes, census reads %d", f, tr.Graph.NumNodes(), reads)
		if reads == 0 {
			t.Fatalf("x%d: no census read anything", f)
		}
		if prev > 0 && float64(reads) > 2.2*float64(prev) {
			t.Errorf("x%d: census reads grew %.2fx over x%d (%d -> %d), want at most 2.2x",
				f, float64(reads)/float64(prev), f/2, prev, reads)
		}
		prev = reads
	}
}
