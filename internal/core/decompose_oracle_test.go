package core_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// oracleDecompose is Decompose as first written, over maps: loop members
// and associative nodes bucketed in maps keyed by loop and operation, the
// keys sorted, each bucket re-sorted through NewSet, and components split
// by source position through oraclePositionClosedSubsets.
func oracleDecompose(g *ddg.Graph) []*core.SubDDG {
	var subs []*core.SubDDG
	byLoop := map[mir.LoopID][]ddg.NodeID{}
	for i := 0; i < g.NumNodes(); i++ {
		u := ddg.NodeID(i)
		for f := g.ScopeOf(u); f != nil; f = f.Parent {
			byLoop[f.Loop] = append(byLoop[f.Loop], u)
		}
	}
	loopIDs := make([]mir.LoopID, 0, len(byLoop))
	for id := range byLoop {
		loopIDs = append(loopIDs, id)
	}
	sort.Slice(loopIDs, func(i, j int) bool { return loopIDs[i] < loopIDs[j] })
	for _, id := range loopIDs {
		if nodes := ddg.NewSet(byLoop[id]...); nodes.Len() >= 2 {
			subs = append(subs, &core.SubDDG{Nodes: nodes, Loop: id})
		}
	}
	byOp := map[mir.Op][]ddg.NodeID{}
	for i := 0; i < g.NumNodes(); i++ {
		u := ddg.NodeID(i)
		if g.Op(u).Associative() {
			byOp[g.Op(u)] = append(byOp[g.Op(u)], u)
		}
	}
	ops := make([]mir.Op, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	seen := map[string]bool{}
	for _, op := range ops {
		for _, comp := range g.WeaklyConnectedComponents(ddg.NewSet(byOp[op]...)) {
			if comp.Len() < 2 {
				continue
			}
			for _, sub := range oraclePositionClosedSubsets(g, comp) {
				for _, wcc := range g.WeaklyConnectedComponents(sub) {
					if wcc.Len() >= 2 && !seen[wcc.Key()] {
						seen[wcc.Key()] = true
						subs = append(subs, &core.SubDDG{Nodes: wcc, Assoc: true})
					}
				}
			}
		}
	}
	return subs
}

func oraclePositionClosedSubsets(g *ddg.Graph, comp ddg.Set) []ddg.Set {
	byPos := map[mir.Pos][]ddg.NodeID{}
	for _, u := range comp {
		byPos[g.Pos(u)] = append(byPos[g.Pos(u)], u)
	}
	if len(byPos) == 1 {
		return []ddg.Set{comp}
	}
	poss := make([]mir.Pos, 0, len(byPos))
	for pos := range byPos {
		poss = append(poss, pos)
	}
	sort.Slice(poss, func(i, j int) bool {
		if poss[i].File != poss[j].File {
			return poss[i].File < poss[j].File
		}
		return poss[i].Line < poss[j].Line
	})
	classes := make([]ddg.Set, 0, len(poss))
	for _, pos := range poss {
		classes = append(classes, ddg.NewSet(byPos[pos]...))
	}
	if len(classes) > core.MaxPositionClasses {
		return append([]ddg.Set{comp}, classes...)
	}
	var out []ddg.Set
	for mask := 1; mask < 1<<len(classes); mask++ {
		var parts []ddg.Set
		for i, cl := range classes {
			if mask&(1<<i) != 0 {
				parts = append(parts, cl)
			}
		}
		var union ddg.Set
		for _, p := range parts {
			union = union.Union(p)
		}
		out = append(out, union)
	}
	return out
}

// oracleSimplify is Simplify's address closure as first written: forward
// passes over the nodes until one removes nothing.
func oracleSimplify(g *ddg.Graph) *ddg.Graph {
	n := g.NumNodes()
	removed := make([]bool, n)
	for i := 0; i < n; i++ {
		removed[i] = g.Op(ddg.NodeID(i)).Class() == mir.ClassAddr
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			u := ddg.NodeID(i)
			if class := g.Op(u).Class(); removed[i] || class != mir.ClassArith && class != mir.ClassConv {
				continue
			}
			succs := g.Succs(u)
			all := len(succs) > 0
			for _, v := range succs {
				all = all && removed[v]
			}
			if all {
				removed[i], changed = true, true
			}
		}
	}
	var keep []ddg.NodeID
	for i := 0; i < n; i++ {
		if !removed[i] {
			keep = append(keep, ddg.NodeID(i))
		}
	}
	gs, _ := g.InducedSubgraph(ddg.NewSet(keep...))
	return gs
}

func renderSubs(subs []*core.SubDDG) string {
	s := ""
	for _, sub := range subs {
		s += fmt.Sprintf("%s:{%s}\n", sub.Kind(), sub.Nodes.Key())
	}
	return s
}

// TestSimplifyAndDecomposeMatchOracles holds Simplify against its forward
// fixpoint, and Decompose — its sub-DDGs, their node sets and their
// order — against the map-based formulation, on the traced graphs of
// random programs and of every Starbench benchmark.
func TestSimplifyAndDecomposeMatchOracles(t *testing.T) {
	var traced []*ddg.Graph
	for seed := uint64(1); seed <= 20; seed++ {
		tr, err := trace.Run(core.GenRandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		traced = append(traced, tr.Graph)
	}
	for _, b := range starbench.All() {
		for _, v := range []starbench.Version{starbench.Seq, starbench.Pthreads} {
			tr, err := trace.Run(b.Build(v, b.Analysis).Prog)
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, v, err)
			}
			traced = append(traced, tr.Graph)
		}
	}
	var graphs []*ddg.Graph
	for i, g := range traced {
		gs := core.Simplify(g)
		if gs.Fingerprint() != oracleSimplify(g).Fingerprint() {
			t.Fatalf("graph %d: Simplify differs from the forward fixpoint", i)
		}
		graphs = append(graphs, gs)
	}
	for _, workers := range []int{0, 1, 3} {
		pool := sched.NewPool(workers, nil)
		for i, g := range graphs {
			subs, res := core.DecomposeOn(context.Background(), pool, g)
			if got, want := renderSubs(subs), renderSubs(oracleDecompose(g)); got != want {
				t.Fatalf("%d workers, graph %d (%d nodes): Decompose\n%s\noracle\n%s", workers, i, g.NumNodes(), got, want)
			}
			if res.Degraded() {
				t.Fatalf("%d workers, graph %d: degraded decomposition: %v", workers, i, res.Failures)
			}
			for _, s := range subs {
				if fresh := (&core.SubDDG{Nodes: s.Nodes, Loop: s.Loop, Assoc: s.Assoc}); s.Key() != fresh.Key() {
					t.Fatalf("%d workers, graph %d: %v keyed %x, want %x", workers, i, s, s.Key(), fresh.Key())
				}
			}
		}
		pool.Close()
	}
}

// firstAssocComponent returns the first associative component the
// decomposition sweeps, as oracleDecompose orders them: the first weakly
// connected component of at least two nodes of the lowest associative
// operation.
func firstAssocComponent(g *ddg.Graph) ddg.Set {
	for op := 0; op < 256; op++ {
		var nodes []ddg.NodeID
		for i := 0; i < g.NumNodes(); i++ {
			if u := ddg.NodeID(i); int(g.Op(u)) == op && g.Op(u).Associative() {
				nodes = append(nodes, u)
			}
		}
		for _, comp := range g.WeaklyConnectedComponents(ddg.NewSet(nodes...)) {
			if comp.Len() >= 2 {
				return comp
			}
		}
	}
	return nil
}

// decomposeTestGraph is the simplified pthreads streamcluster graph: its
// decomposition sweeps several associative components.
func decomposeTestGraph(t *testing.T) *ddg.Graph {
	t.Helper()
	b := starbench.ByName("streamcluster")
	tr, err := trace.Run(b.Build(starbench.Pthreads, b.Analysis).Prog)
	if err != nil {
		t.Fatal(err)
	}
	return core.Simplify(tr.Graph)
}

// TestDecomposeItemPanicLosesOneComponent: a panic in one decompose item
// costs that associative component's sub-DDGs and nothing else, and is
// recorded as a contained task failure. On a pool with no workers the
// items run in component order, so the first one is the one that dies.
func TestDecomposeItemPanicLosesOneComponent(t *testing.T) {
	g := decomposeTestGraph(t)
	comp0 := firstAssocComponent(g)
	var want []*core.SubDDG
	assocs := 0
	for _, s := range oracleDecompose(g) {
		if s.Assoc {
			assocs++
			if s.Nodes.SubsetOf(comp0) {
				continue
			}
		}
		want = append(want, s)
	}
	if comp0 == nil || assocs == len(oracleDecompose(g))-len(want) {
		t.Fatalf("want a graph with associative sub-DDGs outside the first component")
	}

	pool := sched.NewPool(0, nil)
	defer pool.Close()
	fired := false
	core.SetSweepItemHook(func(phase string) {
		if phase == "decompose" && !fired {
			fired = true
			panic("injected decompose failure")
		}
	})
	defer core.SetSweepItemHook(nil)
	subs, res := core.DecomposeOn(context.Background(), pool, g)
	if got, want := renderSubs(subs), renderSubs(want); got != want {
		t.Errorf("after a failed item:\n%s\nwant\n%s", got, want)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0].Error(), "decompose task failed") {
		t.Errorf("failures = %v, want one decompose task failure", res.Failures)
	}
	if res.Interrupted {
		t.Error("a contained item failure labelled the run Interrupted")
	}
}

// TestDecomposeInterruptedMidSweep: a context that ends during the
// decompose sweep leaves the run's Result labelled Interrupted, and the
// components left unclaimed contribute nothing.
func TestDecomposeInterruptedMidSweep(t *testing.T) {
	g := decomposeTestGraph(t)
	pool := sched.NewPool(0, nil)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := 0
	core.SetSweepItemHook(func(phase string) {
		if phase == "decompose" {
			items++
			cancel()
		}
	})
	defer core.SetSweepItemHook(nil)
	subs, res := core.DecomposeOn(ctx, pool, g)
	if items != 1 {
		t.Errorf("%d decompose items ran; want the claimer to stop after the cancel in the first", items)
	}
	if !res.Interrupted || len(res.Failures) != 0 {
		t.Errorf("interrupted=%v failures=%v; want Interrupted and no failure", res.Interrupted, res.Failures)
	}
	comp0 := firstAssocComponent(g)
	for _, s := range subs {
		if s.Assoc && !s.Nodes.SubsetOf(comp0) {
			t.Errorf("unclaimed component yielded %v", s)
		}
	}

	items = 0
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	if res := core.FindCtx(ctx, g, core.Options{Scheduler: pool}); !res.Interrupted || items != 1 {
		t.Errorf("Find cancelled mid-decompose: interrupted=%v after %d items; want Interrupted after 1", res.Interrupted, items)
	}
}
