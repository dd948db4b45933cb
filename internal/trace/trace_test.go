package trace

import (
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// seqReduction builds: init data with traced ops, then sum it sequentially.
func seqReduction(n int64) *mir.Program {
	p := mir.NewProgram("seqred")
	p.DeclareStatic("data", n)
	p.DeclareStatic("out", 1)
	f, b := p.NewFunc("main", "seqred.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("data"), mir.V("i")), mir.FMul(mir.I2F(mir.V("i")), mir.F(0.5)))
	})
	b.Assign("sum", mir.F(0))
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Assign("sum", mir.FAdd(mir.V("sum"), mir.Load(mir.Idx(mir.G("data"), mir.V("i")))))
	})
	b.Store(mir.Idx(mir.G("out"), mir.C(0)), mir.V("sum"))
	b.Return(mir.V("sum"))
	b.Finish(f)
	return p
}

func countOps(g *ddg.Graph, op mir.Op) int {
	n := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Op(ddg.NodeID(i)) == op {
			n++
		}
	}
	return n
}

func opNodes(g *ddg.Graph, op mir.Op) ddg.Set {
	var ids []ddg.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if g.Op(ddg.NodeID(i)) == op {
			ids = append(ids, ddg.NodeID(i))
		}
	}
	return ddg.NewSet(ids...)
}

func TestSequentialReductionTrace(t *testing.T) {
	res, err := Run(seqReduction(8))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if res.Return.Float() != 14.0 { // 0.5 * (0+...+7)
		t.Errorf("return = %v, want 14", res.Return)
	}
	// 8 I2F + 8 fmul (init) + 8 fadd (reduction) + 16 index nodes.
	if got := countOps(g, mir.OpFAdd); got != 8 {
		t.Errorf("fadd nodes = %d, want 8", got)
	}
	if got := countOps(g, mir.OpFMul); got != 8 {
		t.Errorf("fmul nodes = %d, want 8", got)
	}
	// 8 init stores + 8 reduction loads + 1 final store.
	if got := countOps(g, mir.OpIndex); got != 17 {
		t.Errorf("index nodes = %d, want 17", got)
	}
	// The fadd nodes must form a single chain: each reachable from the
	// first, each (except the last) with exactly one fadd successor.
	adds := opNodes(g, mir.OpFAdd)
	comps := g.WeaklyConnectedComponents(adds)
	if len(comps) != 1 {
		t.Fatalf("fadd chain split into %d components", len(comps))
	}
	// Each fadd takes input from the fmul that defined its element: the
	// load is transparent, so arcs go fmul -> fadd directly (challenge 5).
	muls := opNodes(g, mir.OpFMul)
	arcs := g.ArcsBetween(muls, adds)
	if len(arcs) != 8 {
		t.Errorf("fmul->fadd arcs = %d, want 8 (loads must be transparent)", len(arcs))
	}
}

func TestLoopScopesRecorded(t *testing.T) {
	res, err := Run(seqReduction(4))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	adds := opNodes(g, mir.OpFAdd)
	// All fadds are in the same loop (the second one), distinct iterations.
	iters := map[ddg.IterationKey]bool{}
	var loop mir.LoopID
	for _, u := range adds {
		scope := g.ScopeOf(u)
		if scope == nil {
			t.Fatalf("fadd node %d has no scope", u)
		}
		loop = scope.Loop
		key, ok := g.IterationOf(u, loop)
		if !ok {
			t.Fatalf("fadd node %d missing frame for loop %d", u, loop)
		}
		iters[key] = true
	}
	if len(iters) != 4 {
		t.Errorf("fadds span %d distinct iterations, want 4", len(iters))
	}
}

// figure2c reproduces the paper's motivating example: 4 points, 2 threads,
// per-thread partial distance sums combined by the main thread.
func figure2c() *mir.Program {
	const n, nproc = 4, 2
	p := mir.NewProgram("fig2c")
	p.DeclareStatic("points", n)
	p.DeclareStatic("hizs", nproc)
	p.DeclareStatic("hizout", 1)
	p.DeclareBarrier("bar", nproc)

	// dist(a, b) = |a - b| approximated as (a-b)*(a-b) to stay traceable.
	d, db := p.NewFunc("dist", "streamcluster.c", "a", "b")
	db.Assign("d", mir.FSub(mir.V("a"), mir.V("b")))
	db.Return(mir.FMul(mir.V("d"), mir.V("d")))
	db.Finish(d)

	w, wb := p.NewFunc("pkmedian", "streamcluster.c", "pid")
	per := int64(n / nproc)
	wb.Assign("k1", mir.Mul(mir.V("pid"), mir.C(per)))
	wb.Assign("k2", mir.Add(mir.V("k1"), mir.C(per)))
	wb.Assign("myhiz", mir.F(0))
	wb.For("kk", mir.V("k1"), mir.V("k2"), mir.C(1), func(b *mir.Block) {
		b.Assign("myhiz", mir.FAdd(mir.V("myhiz"),
			mir.Call("dist",
				mir.Load(mir.Idx(mir.G("points"), mir.V("kk"))),
				mir.Load(mir.Idx(mir.G("points"), mir.C(0))))))
	})
	wb.Store(mir.Idx(mir.G("hizs"), mir.V("pid")), mir.V("myhiz"))
	wb.Barrier("bar")
	wb.Finish(w)

	f, b := p.NewFunc("main", "streamcluster.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("points"), mir.V("i")), mir.FMul(mir.I2F(mir.V("i")), mir.F(1.5)))
	})
	b.Spawn("t0", "pkmedian", mir.C(0))
	b.Spawn("t1", "pkmedian", mir.C(1))
	b.Join(mir.V("t0"))
	b.Join(mir.V("t1"))
	b.Assign("hiz", mir.F(0))
	b.For("i", mir.C(0), mir.C(int64(nproc)), mir.C(1), func(b *mir.Block) {
		b.Assign("hiz", mir.FAdd(mir.V("hiz"), mir.Load(mir.Idx(mir.G("hizs"), mir.V("i")))))
	})
	b.Store(mir.Idx(mir.G("hizout"), mir.C(0)), mir.V("hiz"))
	b.Return(mir.V("hiz"))
	b.Finish(f)
	p.SetEntry("main")
	return p
}

func TestFigure2cTrace(t *testing.T) {
	res, err := Run(figure2c())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	// Points are 0, 1.5, 3, 4.5; dist to p[0] is p^2: 0 + 2.25 + 9 + 20.25.
	if got, want := res.Return.Float(), 31.5; got != want {
		t.Errorf("hiz = %g, want %g", got, want)
	}
	// 4 partial fadds (2 per thread) + 2 final fadds.
	if got := countOps(g, mir.OpFAdd); got != 6 {
		t.Errorf("fadd nodes = %d, want 6", got)
	}
	// The partial and final adds must be weakly connected through memory:
	// thread partials stored to hizs[] and loaded by the main loop.
	adds := opNodes(g, mir.OpFAdd)
	if comps := g.WeaklyConnectedComponents(adds); len(comps) != 1 {
		t.Errorf("adds form %d components, want 1 (cross-thread arcs missing)", len(comps))
	}
	// The adds span at least two threads.
	threads := map[int32]bool{}
	for _, u := range adds {
		threads[g.Thread(u)] = true
	}
	if len(threads) < 3 { // two workers + main
		t.Errorf("adds executed by %d threads, want 3", len(threads))
	}
	// DDG is a DAG by construction; double-check here.
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestShadowClearOnConstantStore(t *testing.T) {
	p := mir.NewProgram("clear")
	p.DeclareStatic("a", 1)
	f, b := p.NewFunc("main", "c.c")
	b.Store(mir.Idx(mir.G("a"), mir.C(0)), mir.Add(mir.C(1), mir.C(2))) // traced def
	b.Store(mir.Idx(mir.G("a"), mir.C(0)), mir.C(5))                    // constant overwrites
	b.Assign("x", mir.Add(mir.Load(mir.Idx(mir.G("a"), mir.C(0))), mir.C(1)))
	b.Return(mir.V("x"))
	b.Finish(f)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Return.Int() != 6 {
		t.Errorf("return = %v, want 6", res.Return)
	}
	// The final add must NOT have an arc from the first add: the constant
	// store cleared the shadow binding.
	g := res.Graph
	adds := opNodes(g, mir.OpAdd)
	for _, u := range adds {
		for _, v := range g.Succs(u) {
			if g.Op(v) == mir.OpAdd && !g.Pos(u).Valid() {
				t.Error("unexpected arc")
			}
		}
	}
	// Exactly: first add (1+2) has no successors among adds.
	first := adds[0]
	if len(g.Succs(first)) != 0 {
		t.Errorf("stale shadow binding leaked: first add has successors %v", g.Succs(first))
	}
}

func TestBuilderShadowDirect(t *testing.T) {
	b := NewBuilder()
	if got := b.LoadShadow(100); got != ddg.NoNode {
		t.Errorf("untouched shadow = %v, want NoNode", got)
	}
	id := b.Node(mir.OpAdd, mir.Pos{}, 0, nil, ddg.NoNode, ddg.NoNode)
	b.StoreShadow(100, id)
	if got := b.LoadShadow(100); got != id {
		t.Errorf("shadow = %v, want %v", got, id)
	}
	b.StoreShadow(100, ddg.NoNode)
	if got := b.LoadShadow(100); got != ddg.NoNode {
		t.Errorf("cleared shadow = %v, want NoNode", got)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	p := mir.NewProgram("boom")
	f, b := p.NewFunc("main", "b.c")
	b.Return(mir.Div(mir.C(1), mir.C(0)))
	b.Finish(f)
	if _, err := Run(p); err == nil {
		t.Error("error not propagated")
	}
}

func TestNodeCountsMatchOps(t *testing.T) {
	res, err := Run(seqReduction(16))
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Graph.NumNodes()) != res.Ops {
		t.Errorf("graph has %d nodes but machine counted %d ops",
			res.Graph.NumNodes(), res.Ops)
	}
}
