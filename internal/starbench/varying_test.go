package starbench

// The paper's §2 states that "our pattern definitions capture these
// patterns for varying number of points and threads"; these tests change
// the thread counts of the benchmark inputs.

import (
	"testing"

	"discovery/internal/core"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

func findWith(t *testing.T, b *Benchmark, v Version, par Params) *core.Result {
	t.Helper()
	built := b.Build(v, par)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return core.Find(tr.Graph, core.Options{VerifyMatches: true})
}

func kindCounts(res *core.Result) map[patterns.Kind]int {
	out := map[patterns.Kind]int{}
	for _, p := range res.Patterns {
		out[p.Kind]++
	}
	return out
}

func TestStreamclusterWithMoreThreads(t *testing.T) {
	// streamcluster with 8 points and 4 threads: same pattern kinds,
	// larger tiled arrangement.
	b := ByName("streamcluster")
	par := Params{"n": 8, "dims": 2, "k": 2, "nproc": 4, "scale": 1}
	res := findWith(t, b, Pthreads, par)

	ks := kindCounts(res)
	if ks[patterns.KindTiledMapReduction] != 1 {
		t.Errorf("tiled map-reduction not found at 4 threads: %v", ks)
	}
	for _, p := range res.Patterns {
		if p.Kind == patterns.KindTiledMapReduction {
			if len(p.RedPart.Partials) != 4 {
				t.Errorf("partials = %d, want 4", len(p.RedPart.Partials))
			}
		}
	}
	if ks[patterns.KindConditionalMap] < 2 {
		t.Errorf("conditional maps lost at 4 threads: %v", ks)
	}
}

func TestRGBYUVWithMoreThreads(t *testing.T) {
	b := ByName("rgbyuv")
	par := Params{"w": 8, "h": 4, "nproc": 4}
	res := findWith(t, b, Pthreads, par)
	found := false
	for _, p := range res.Patterns {
		if p.Kind == patterns.KindMap && len(p.Comps) == 32 {
			found = true
		}
	}
	if !found {
		t.Errorf("32-component pixel map not found at 4 threads: %v", kindCounts(res))
	}
}

func TestMD5WithMoreBuffersAndThreads(t *testing.T) {
	b := ByName("md5")
	par := Params{"nbuf": 8, "bufwords": 4, "nproc": 4}
	res := findWith(t, b, Pthreads, par)
	found := false
	for _, p := range res.Patterns {
		if p.Kind == patterns.KindMap && len(p.Comps) == 8 {
			found = true
		}
	}
	if !found {
		t.Errorf("8-buffer map not found: %v", kindCounts(res))
	}
}
