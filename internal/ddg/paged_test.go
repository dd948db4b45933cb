package ddg

// Tests for the out-of-core paged CSR backend. The contract under test is
// strict equivalence: for any frozen graph, any budget, and any segment
// size, every Succs/Preds read through the pager returns exactly the
// bytes the resident arrays held — under sequential scans, eviction
// thrash, restriction to subgraphs, and the invariant checker.

import (
	"fmt"
	"testing"

	"discovery/internal/mir"
)

// xrng is the suite's deterministic generator.
type xrng struct{ s uint64 }

func (r *xrng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// buildRandomCSR streams a random DAG through the FrozenBuilder: n nodes,
// up to fan predecessors each, drawn from all earlier nodes so arc lists
// vary in length and some nodes become high-fan-out hubs.
func buildRandomCSR(t *testing.T, seed uint64, n, fan int) *Graph {
	t.Helper()
	r := &xrng{s: seed | 1}
	fb := NewFrozenBuilder(n, n*fan)
	for u := 0; u < n; u++ {
		var preds []NodeID
		if u > 0 {
			for j := 0; j < int(r.next()%uint64(fan+1)); j++ {
				preds = append(preds, NodeID(r.next()%uint64(u)))
			}
		}
		fb.AddNode(mir.OpFAdd, fb.PosID(mir.Pos{File: "rand.c", Line: u + 1}), 0, fb.ScopeID(nil), preds...)
	}
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return g
}

// renderAdj renders both adjacency lists of every node byte-for-byte.
func renderAdj(g *Graph) string {
	s := ""
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		s += fmt.Sprintf("%d succ=%v pred=%v\n", u, g.Succs(u), g.Preds(u))
	}
	return s
}

func TestPagedEquivalenceRandomGraphs(t *testing.T) {
	budgets := []int64{64, 256, 1024, 1 << 20}
	segBytes := []int{0, 64, 256, 4096}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, budget := range budgets {
			for _, sb := range segBytes {
				seed, budget, sb := seed, budget, sb
				t.Run(fmt.Sprintf("seed%d_budget%d_seg%d", seed, budget, sb), func(t *testing.T) {
					t.Parallel()
					g := buildRandomCSR(t, seed, 200, 5)
					want := renderAdj(g)
					wantArcs := g.NumArcs()
					if err := g.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: budget, SegmentBytes: sb}); err != nil {
						t.Fatalf("SpillArcs: %v", err)
					}
					defer g.CloseSpill()
					if !g.Spilled() {
						t.Fatal("graph not marked spilled")
					}
					if got := renderAdj(g); got != want {
						t.Fatal("paged adjacency differs from resident adjacency")
					}
					st := g.PageStats()
					if st.SpilledBytes != int64(wantArcs)*2*4 {
						t.Errorf("spilled %d bytes, want %d (both arc arrays)", st.SpilledBytes, wantArcs*2*4)
					}
					if st.ResidentBytes > budget && st.Evictions == 0 {
						// Over budget is only legal when nothing was evictable
						// (a single oversized or pinned segment).
						if st.Segments > 1 && st.PinnedBytes == 0 {
							t.Errorf("resident %d over budget %d with %d segments and no evictions",
								st.ResidentBytes, budget, st.Segments)
						}
					}
					if err := g.CheckInvariants(); err != nil {
						t.Errorf("spilled graph fails invariants: %v", err)
					}
				})
			}
		}
	}
}

// TestPagedTwoSegmentThrash scans a graph whose resident budget holds
// roughly two small segments, forward then backward, so nearly every read
// evicts what the previous one faulted. The renderings must still be
// byte-identical and the stats must show real thrash.
func TestPagedTwoSegmentThrash(t *testing.T) {
	g := buildRandomCSR(t, 42, 400, 4)
	want := renderAdj(g)
	if err := g.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 128, SegmentBytes: 64}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer g.CloseSpill()
	if got := renderAdj(g); got != want {
		t.Fatal("forward thrash scan differs from resident adjacency")
	}
	back := ""
	for u := g.NumNodes() - 1; u >= 0; u-- {
		back = fmt.Sprintf("%d succ=%v pred=%v\n", u, g.Succs(NodeID(u)), g.Preds(NodeID(u))) + back
	}
	if back != want {
		t.Fatal("backward thrash scan differs from resident adjacency")
	}
	st := g.PageStats()
	if st.Evictions == 0 {
		t.Fatalf("two-segment budget never evicted: %+v", st)
	}
	if st.Faults <= int64(st.Segments) {
		t.Fatalf("thrash never re-faulted a segment: %+v", st)
	}
	if st.PeakResidentBytes == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

// TestCheckInvariantsSpilledRegression pins the satellite-4 fix: the
// invariant checker used to measure CSR shape with len(succArr), which a
// spilled graph nils out — every per-node offset check then failed on a
// perfectly healthy graph. It must now read arc counts through the pager
// and pass on a spilled graph exactly as it did on the resident one.
func TestCheckInvariantsSpilledRegression(t *testing.T) {
	g := buildRandomCSR(t, 7, 300, 4)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("resident graph fails invariants: %v", err)
	}
	if err := g.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 64, SegmentBytes: 64}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer g.CloseSpill()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("spilled graph fails invariants: %v", err)
	}
}

func TestMaybeSpillThreshold(t *testing.T) {
	g := buildRandomCSR(t, 3, 100, 3)
	size := int64(g.NumArcs()) * 2 * 4
	if did, err := g.MaybeSpill(SpillConfig{Budget: 0}); err != nil || did {
		t.Fatalf("zero budget spilled (did=%t err=%v)", did, err)
	}
	if did, err := g.MaybeSpill(SpillConfig{Budget: size + 1}); err != nil || did {
		t.Fatalf("under-budget graph spilled (did=%t err=%v)", did, err)
	}
	if g.Spilled() {
		t.Fatal("MaybeSpill left the graph spilled")
	}
	did, err := g.MaybeSpill(SpillConfig{Dir: t.TempDir(), Budget: size - 1})
	if err != nil || !did {
		t.Fatalf("over-budget graph did not spill (did=%t err=%v)", did, err)
	}
	defer g.CloseSpill()
	// Second MaybeSpill on a spilled graph is a no-op, not an error.
	if did, err := g.MaybeSpill(SpillConfig{Dir: t.TempDir(), Budget: 1}); err != nil || did {
		t.Fatalf("re-spill attempted (did=%t err=%v)", did, err)
	}
}

func TestSpillArcsErrors(t *testing.T) {
	g := buildRandomCSR(t, 5, 50, 3)
	if err := g.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 64}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer g.CloseSpill()
	if err := g.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 64}); err == nil {
		t.Fatal("SpillArcs accepted an already-spilled graph")
	}
}

// TestCloseSpillLifecycle: closing is idempotent and nil-safe, and after
// it every read panics: a cold one, one of a pinned segment, and one of a
// segment read just before the close, which a resident read would
// otherwise answer from a live buffer without the lock.
func TestCloseSpillLifecycle(t *testing.T) {
	var nilGraph *Graph
	if err := nilGraph.CloseSpill(); err != nil {
		t.Fatalf("nil CloseSpill: %v", err)
	}
	resident := buildRandomCSR(t, 9, 20, 2)
	if err := resident.CloseSpill(); err != nil {
		t.Fatalf("never-spilled CloseSpill: %v", err)
	}
	g := buildRandomCSR(t, 9, 100, 3)
	if err := g.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 512, SegmentBytes: 64}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	pinned, hot, cold := NoNode, NoNode, NoNode
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		switch seg := g.pager.succ.segOf(u); {
		case seg.pinned && pinned == NoNode:
			pinned = u
		case !seg.pinned && hot == NoNode:
			hot = u
			_ = g.Succs(hot)
		case seg.buf.Load() == nil && cold == NoNode:
			cold = u
		}
	}
	if pinned == NoNode || hot == NoNode || cold == NoNode {
		t.Fatalf("want a pinned, a just-read and a cold node; got %d, %d, %d", pinned, hot, cold)
	}
	if g.pager.succ.segOf(hot).buf.Load() == nil {
		t.Fatal("the segment just read is not resident")
	}
	if err := g.CloseSpill(); err != nil {
		t.Fatalf("CloseSpill: %v", err)
	}
	if err := g.CloseSpill(); err != nil {
		t.Fatalf("second CloseSpill: %v", err)
	}
	for _, tc := range []struct {
		name string
		u    NodeID
	}{{"cold", cold}, {"pinned", pinned}, {"just-read", hot}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s read after CloseSpill did not panic", tc.name)
				}
			}()
			_ = g.Succs(tc.u)
		}()
	}
}

func TestInducedSubgraphOnSpilledBase(t *testing.T) {
	a := buildRandomCSR(t, 11, 250, 4)
	b := buildRandomCSR(t, 11, 250, 4)
	keep := make([]NodeID, 0, 125)
	for u := 0; u < 250; u += 2 {
		keep = append(keep, NodeID(u))
	}
	wantSub, _ := a.InducedSubgraph(NewSet(keep...))
	if err := b.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 96, SegmentBytes: 64}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer b.CloseSpill()
	gotSub, _ := b.InducedSubgraph(NewSet(keep...))
	if gotSub.Spilled() {
		t.Fatal("induced subgraph inherited the base's pager")
	}
	if renderAdj(gotSub) != renderAdj(wantSub) {
		t.Fatal("subgraph induced through the pager differs from the resident one")
	}
	if gotSub.Fingerprint() != wantSub.Fingerprint() {
		t.Fatal("subgraph fingerprints differ")
	}
}

func TestSpillEmptyAndTinyGraphs(t *testing.T) {
	empty, err := NewFrozenBuilder(0, 0).Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := empty.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 1}); err != nil {
		t.Fatalf("SpillArcs on empty graph: %v", err)
	}
	defer empty.CloseSpill()
	if err := empty.CheckInvariants(); err != nil {
		t.Errorf("spilled empty graph fails invariants: %v", err)
	}

	fb := NewFrozenBuilder(2, 1)
	fb.AddNode(mir.OpFAdd, fb.PosID(mir.Pos{File: "x.c", Line: 1}), 0, fb.ScopeID(nil))
	fb.AddNode(mir.OpFAdd, fb.PosID(mir.Pos{File: "x.c", Line: 2}), 0, fb.ScopeID(nil), 0)
	tiny, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	want := renderAdj(tiny)
	if err := tiny.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 1, SegmentBytes: 1}); err != nil {
		t.Fatalf("SpillArcs on tiny graph: %v", err)
	}
	defer tiny.CloseSpill()
	if got := renderAdj(tiny); got != want {
		t.Fatal("tiny spilled graph differs")
	}
}
