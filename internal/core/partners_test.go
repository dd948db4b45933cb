package core_test

import (
	"fmt"
	"testing"

	"discovery/internal/core"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// TestPartnerSearchMatchesPairwiseOracle checks the indexed partner search
// of subtract, fuse and merge against the pairwise oracle on every suite
// program and on md5 with many short buffers, the shape with the largest
// pools.
func TestPartnerSearchMatchesPairwiseOracle(t *testing.T) {
	type run struct {
		b      *starbench.Benchmark
		params starbench.Params
		long   bool
	}
	var runs []run
	for _, b := range starbench.All() {
		runs = append(runs, run{b: b, params: b.Analysis})
	}
	md5 := starbench.MD5()
	for _, dims := range [][2]int64{{16, 16}, {64, 4}} {
		runs = append(runs, run{b: md5, params: starbench.Params{"nbuf": dims[0], "bufwords": dims[1], "nproc": 2}, long: dims[0] == 64})
	}
	for _, r := range runs {
		for _, v := range starbench.Versions() {
			name := r.b.Name + "/" + string(v)
			if r.b.Name == "md5" && r.params["nbuf"] != r.b.Analysis["nbuf"] {
				name = fmt.Sprintf("%s/nbuf%d", name, r.params["nbuf"])
			}
			t.Run(name, func(t *testing.T) {
				if r.long && testing.Short() {
					t.Skip("md5 at 64 buffers in -short mode")
				}
				t.Parallel()
				tr, err := trace.Run(r.b.Build(v, r.params).Prog)
				if err != nil {
					t.Fatalf("trace: %v", err)
				}
				if err := core.PartnerDiff(tr.Graph, core.Options{}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
