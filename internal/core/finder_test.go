package core

import (
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

// traceProgram traces a program and fails the test on error.
func traceProgram(t *testing.T, p *mir.Program) *ddg.Graph {
	t.Helper()
	res, err := trace.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

// defaultOpts verifies every match against the unrelaxed definitions,
// mirroring the paper's observation that relaxations cause no violations.
func defaultOpts() Options {
	return Options{VerifyMatches: true}
}

// fig2cProgram is the paper's §2 motivating example: nproc threads compute
// partial distance sums over n points, combined by the main thread. The
// total is consumed by one further operation so the reduction has an
// output (3f).
func fig2cProgram(n, nproc int64) *mir.Program {
	p := mir.NewProgram("fig2c")
	p.DeclareStatic("points", n)
	p.DeclareStatic("hizs", nproc)
	p.DeclareStatic("result", 1)
	p.DeclareBarrier("bar", int(nproc))

	d, db := p.NewFunc("dist", "streamcluster.c", "a", "b")
	db.Assign("d", mir.FSub(mir.V("a"), mir.V("b")))
	db.Return(mir.FMul(mir.V("d"), mir.V("d")))
	db.Finish(d)

	w, wb := p.NewFunc("pkmedian", "streamcluster.c", "pid")
	per := n / nproc
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
		b.Store(mir.Idx(mir.G("points"), mir.V("i")),
			mir.FMul(mir.I2F(mir.V("i")), mir.F(1.5)))
	})
	b.For("t", mir.C(0), mir.C(nproc), mir.C(1), func(b *mir.Block) {
		b.Spawn("h", "pkmedian", mir.V("t"))
	})
	b.For("t", mir.C(0), mir.C(nproc), mir.C(1), func(b *mir.Block) {
		b.Join(mir.Add(mir.V("t"), mir.C(1)))
	})
	b.Assign("hiz", mir.F(0))
	b.For("i", mir.C(0), mir.C(nproc), mir.C(1), func(b *mir.Block) {
		b.Assign("hiz", mir.FAdd(mir.V("hiz"), mir.Load(mir.Idx(mir.G("hizs"), mir.V("i")))))
	})
	// Consume the total so the reduction produces an output element.
	b.Store(mir.Idx(mir.G("result"), mir.C(0)), mir.FMul(mir.V("hiz"), mir.F(0.5)))
	b.Return(mir.V("hiz"))
	b.Finish(f)
	p.SetEntry("main")
	return p
}

// seqSumProgram is the sequential counterpart: one loop accumulating
// dist(p[i], p[0]).
func seqSumProgram(n int64) *mir.Program {
	p := mir.NewProgram("seqsum")
	p.DeclareStatic("points", n)
	p.DeclareStatic("result", 1)
	d, db := p.NewFunc("dist", "seqsum.c", "a", "b")
	db.Assign("d", mir.FSub(mir.V("a"), mir.V("b")))
	db.Return(mir.FMul(mir.V("d"), mir.V("d")))
	db.Finish(d)
	f, b := p.NewFunc("main", "seqsum.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("points"), mir.V("i")),
			mir.FMul(mir.I2F(mir.V("i")), mir.F(1.5)))
	})
	b.Assign("hiz", mir.F(0))
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Assign("hiz", mir.FAdd(mir.V("hiz"),
			mir.Call("dist",
				mir.Load(mir.Idx(mir.G("points"), mir.V("i"))),
				mir.Load(mir.Idx(mir.G("points"), mir.C(0))))))
	})
	b.Store(mir.Idx(mir.G("result"), mir.C(0)), mir.FMul(mir.V("hiz"), mir.F(0.5)))
	b.Finish(f)
	p.SetEntry("main")
	return p
}

func kinds(res *Result) map[patterns.Kind]int {
	out := map[patterns.Kind]int{}
	for _, p := range res.Patterns {
		out[p.Kind]++
	}
	return out
}

func matchKindsByIteration(res *Result) map[int][]patterns.Kind {
	out := map[int][]patterns.Kind{}
	for _, m := range res.Matches {
		out[m.Iteration] = append(out[m.Iteration], m.Pattern.Kind)
	}
	return out
}

func hasKind(ks []patterns.Kind, k patterns.Kind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

func TestSimplifyRemovesAddressing(t *testing.T) {
	g := traceProgram(t, seqSumProgram(8))
	gs := Simplify(g)
	if gs.NumNodes() >= g.NumNodes() {
		t.Errorf("simplification did not shrink: %d -> %d", g.NumNodes(), gs.NumNodes())
	}
	for i := 0; i < gs.NumNodes(); i++ {
		if gs.Op(ddg.NodeID(i)).Class() == mir.ClassAddr {
			t.Fatal("address node survived simplification")
		}
	}
}

func TestSimplifyClosureRemovesAddressArithmetic(t *testing.T) {
	// At() with scale > 1 introduces a mul feeding only the index: the
	// closure must remove it.
	p := mir.NewProgram("addrmul")
	p.DeclareStatic("a", 16)
	p.DeclareStatic("out", 8)
	f, b := p.NewFunc("main", "a.c")
	b.For("i", mir.C(0), mir.C(8), mir.C(1), func(b *mir.Block) {
		b.Store(mir.At(mir.G("a"), mir.V("i"), 2), mir.I2F(mir.V("i")))
	})
	b.Assign("s", mir.F(0))
	b.For("i", mir.C(0), mir.C(8), mir.C(1), func(b *mir.Block) {
		b.Assign("s", mir.FAdd(mir.V("s"), mir.Load(mir.At(mir.G("a"), mir.V("i"), 2))))
	})
	b.Store(mir.Idx(mir.G("out"), mir.C(0)), mir.FMul(mir.V("s"), mir.F(2)))
	b.Finish(f)
	g := traceProgram(t, p)
	gs := Simplify(g)
	for i := 0; i < gs.NumNodes(); i++ {
		u := ddg.NodeID(i)
		if gs.Op(u) == mir.OpMul {
			t.Error("address-only mul survived the closure")
		}
	}
}

func TestDecompose(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	gs := Simplify(g)
	subs := Decompose(gs)
	var loops, assocs int
	for _, s := range subs {
		if s.Assoc {
			assocs++
		} else if s.Loop != 0 {
			loops++
		}
	}
	// Loops: init, kk (one static loop across threads), final sum, and the
	// join loop (whose handle arithmetic traces two add nodes). The spawn
	// loop contains no traced nodes.
	if loops != 4 {
		t.Errorf("loop sub-DDGs = %d, want 4", loops)
	}
	// Associative components: the full fadd component spanning partial and
	// final additions, plus its position-closed slices (the two per-thread
	// partial chains and the final chain).
	if assocs != 4 {
		t.Errorf("assoc sub-DDGs = %d, want 4", assocs)
	}
	sizes := map[int]int{}
	for _, s := range subs {
		if s.Assoc {
			sizes[s.Nodes.Len()]++
			if !gs.WeaklyConnected(s.Nodes) {
				t.Error("assoc component not weakly connected")
			}
		}
	}
	if sizes[6] != 1 || sizes[2] != 3 {
		t.Errorf("assoc component sizes = %v, want one of 6 and three of 2", sizes)
	}
}

// TestTable1Flow reproduces the paper's Table 1 on the motivating example:
// iteration 1 matches f (linear reduction) and r (tiled reduction),
// iteration 2 exposes the dist map by subtraction, iteration 3 fuses map
// and tiled reduction into the tiled map-reduction, which is the final
// merged pattern.
func TestTable1Flow(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	res := Find(g, defaultOpts())

	// The compound pattern needs three iterations (Table 1); the fixpoint
	// may take an extra iteration to confirm nothing new emerges.
	if res.Iterations < 3 || res.Iterations > 5 {
		t.Errorf("iterations = %d, want 3-5", res.Iterations)
	}
	byIter := matchKindsByIteration(res)
	if !hasKind(byIter[1], patterns.KindLinearReduction) {
		t.Errorf("it.1 should match the final-loop linear reduction: %v", byIter[1])
	}
	if !hasKind(byIter[1], patterns.KindTiledReduction) {
		t.Errorf("it.1 should match the tiled reduction: %v", byIter[1])
	}
	if !hasKind(byIter[2], patterns.KindMap) {
		t.Errorf("it.2 should expose the dist map by subtraction: %v", byIter[2])
	}
	if !hasKind(byIter[3], patterns.KindTiledMapReduction) {
		t.Errorf("it.3 should fuse the tiled map-reduction: %v", byIter[3])
	}

	// Merging discards everything subsumed by the map-reduction.
	ks := kinds(res)
	if ks[patterns.KindTiledMapReduction] != 1 {
		t.Fatalf("final patterns: %v, want one tiled map-reduction", ks)
	}
	if ks[patterns.KindTiledReduction] != 0 || ks[patterns.KindMap] != 0 || ks[patterns.KindLinearReduction] != 0 {
		t.Errorf("subsumed patterns not merged away: %v", ks)
	}

	// The map-reduction's map has one component per point.
	for _, p := range res.Patterns {
		if p.Kind == patterns.KindTiledMapReduction {
			if got := len(p.MapPart.Comps); got != 4 {
				t.Errorf("map components = %d, want 4", got)
			}
			if got := len(p.RedPart.Partials); got != 2 {
				t.Errorf("partial reductions = %d, want 2", got)
			}
			if p.Op != mir.OpFAdd {
				t.Errorf("reduction op = %v", p.Op)
			}
		}
	}
}

// TestSequentialVersionFindsLinearMapReduction checks the paper's §6.1
// observation that the analysis is oblivious to sequential vs parallel
// coding: the sequential version yields the same compound pattern, with
// the linear reduction variant.
func TestSequentialVersionFindsLinearMapReduction(t *testing.T) {
	g := traceProgram(t, seqSumProgram(6))
	res := Find(g, defaultOpts())
	ks := kinds(res)
	if ks[patterns.KindLinearMapReduction] != 1 {
		t.Fatalf("final patterns: %v, want one linear map-reduction", ks)
	}
}

// mapKernelProgram: two chained per-element kernels over in[], followed by
// an emit loop that consumes the result (the analogue of writing an output
// file; its own stores are never read, so it is not itself a pattern).
// The init uses fdiv so it shares no associative operation with the
// kernels (avoiding small init-to-kernel reduction chains, which are true
// but irrelevant "additional patterns" here).
func mapKernelProgram(n int64) *mir.Program {
	p := mir.NewProgram("mapk")
	p.DeclareStatic("in", n)
	p.DeclareStatic("mid", n)
	p.DeclareStatic("out", n)
	p.DeclareStatic("emit", n)
	f, b := p.NewFunc("main", "mapk.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("in"), mir.V("i")),
			mir.FDiv(mir.I2F(mir.V("i")), mir.F(4)))
	})
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Assign("x", mir.Load(mir.Idx(mir.G("in"), mir.V("i"))))
		b.Store(mir.Idx(mir.G("mid"), mir.V("i")),
			mir.FAdd(mir.FMul(mir.V("x"), mir.V("x")), mir.F(1)))
	})
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Assign("y", mir.Load(mir.Idx(mir.G("mid"), mir.V("i"))))
		b.Store(mir.Idx(mir.G("out"), mir.V("i")), mir.FSub(mir.V("y"), mir.F(2)))
	})
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("emit"), mir.V("i")),
			mir.FDiv(mir.Load(mir.Idx(mir.G("out"), mir.V("i"))), mir.F(8)))
	})
	b.Finish(f)
	p.SetEntry("main")
	return p
}

func TestMapKernelFound(t *testing.T) {
	g := traceProgram(t, mapKernelProgram(6))
	res := Find(g, defaultOpts())
	// The two kernel loops are maps; iteration 2 fuses them.
	ks := kinds(res)
	if ks[patterns.KindFusedMap] != 1 {
		t.Errorf("final patterns: %v, want a fused map", ks)
	}
	byIter := matchKindsByIteration(res)
	if !hasKind(byIter[1], patterns.KindMap) {
		t.Errorf("it.1 should match maps: %v", byIter[1])
	}
	if !hasKind(byIter[2], patterns.KindFusedMap) {
		t.Errorf("it.2 should fuse the chained maps: %v", byIter[2])
	}
}

// conditionalKernelProgram stores a transformed value only when a
// condition holds; the consumer reads all outputs.
func conditionalKernelProgram(n int64) *mir.Program {
	p := mir.NewProgram("condk")
	p.DeclareStatic("in", n)
	p.DeclareStatic("out", n)
	p.DeclareStatic("sink", n)
	f, b := p.NewFunc("main", "condk.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("in"), mir.V("i")),
			mir.FDiv(mir.I2F(mir.V("i")), mir.F(1.0)))
	})
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Assign("x", mir.Load(mir.Idx(mir.G("in"), mir.V("i"))))
		b.If(mir.Gt(mir.V("x"), mir.F(2.5)), func(b *mir.Block) {
			b.Store(mir.Idx(mir.G("out"), mir.V("i")), mir.FMul(mir.V("x"), mir.F(3)))
		})
	})
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("sink"), mir.V("i")),
			mir.FSub(mir.Load(mir.Idx(mir.G("out"), mir.V("i"))), mir.F(1)))
	})
	b.Finish(f)
	p.SetEntry("main")
	return p
}

func TestConditionalMapFound(t *testing.T) {
	g := traceProgram(t, conditionalKernelProgram(6))
	res := Find(g, defaultOpts())
	found := false
	for _, p := range res.Patterns {
		if p.Kind == patterns.KindConditionalMap && len(p.Comps) == 6 {
			found = true
			if p.NumFull != 3 { // x > 2.5 holds for i in {3,4,5}
				t.Errorf("NumFull = %d, want 3", p.NumFull)
			}
		}
	}
	if !found {
		t.Errorf("conditional map not in final patterns: %v", kinds(res))
	}
}

// kmeansMissProgram reproduces the §6.1 kmeans miss: a per-point argmin
// whose result is used only in addressing, feeding a scatter reduction.
func kmeansMissProgram(points, clusters int64) *mir.Program {
	p := mir.NewProgram("kmiss")
	p.DeclareStatic("pts", points)
	p.DeclareStatic("ctr", clusters)
	p.DeclareStatic("sums", clusters)
	p.DeclareStatic("result", 1)
	f, b := p.NewFunc("main", "kmiss.c")
	b.For("i", mir.C(0), mir.C(points), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("pts"), mir.V("i")),
			mir.FMul(mir.I2F(mir.V("i")), mir.F(0.75)))
	})
	b.For("c", mir.C(0), mir.C(clusters), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("ctr"), mir.V("c")),
			mir.FMul(mir.I2F(mir.V("c")), mir.F(2.5)))
	})
	b.For("i", mir.C(0), mir.C(points), mir.C(1), func(b *mir.Block) {
		b.Assign("x", mir.Load(mir.Idx(mir.G("pts"), mir.V("i"))))
		b.Assign("best", mir.F(1e30))
		b.Assign("idx", mir.C(0))
		b.For("c", mir.C(0), mir.C(clusters), mir.C(1), func(b *mir.Block) {
			b.Assign("d", mir.FSub(mir.V("x"), mir.Load(mir.Idx(mir.G("ctr"), mir.V("c")))))
			b.Assign("d2", mir.FMul(mir.V("d"), mir.V("d")))
			b.If(mir.Lt(mir.V("d2"), mir.V("best")), func(b *mir.Block) {
				b.Assign("best", mir.V("d2"))
				b.Assign("idx", mir.Mul(mir.V("c"), mir.C(1)))
			})
		})
		// The cluster index is used exclusively in addressing.
		b.Store(mir.Idx(mir.G("sums"), mir.V("idx")),
			mir.FAdd(mir.Load(mir.Idx(mir.G("sums"), mir.V("idx"))), mir.V("x")))
	})
	b.Assign("tot", mir.F(0))
	b.For("c", mir.C(0), mir.C(clusters), mir.C(1), func(b *mir.Block) {
		b.Assign("tot", mir.FAdd(mir.V("tot"), mir.Load(mir.Idx(mir.G("sums"), mir.V("c")))))
	})
	b.Store(mir.Idx(mir.G("result"), mir.C(0)), mir.FMul(mir.V("tot"), mir.F(0.5)))
	b.Finish(f)
	p.SetEntry("main")
	return p
}

func TestKmeansMissShape(t *testing.T) {
	g := traceProgram(t, kmeansMissProgram(8, 2))
	res := Find(g, defaultOpts())
	ks := kinds(res)
	// The assignment map must be missed (its output is simplified away),
	// and so must any encompassing map-reduction; reductions are found.
	if ks[patterns.KindLinearMapReduction]+ks[patterns.KindTiledMapReduction] != 0 {
		t.Errorf("map-reduction should be missed in kmeans shape: %v", ks)
	}
	if ks[patterns.KindLinearReduction] == 0 {
		t.Errorf("reductions should still be found: %v", ks)
	}
	// The assignment loop must not match as a (conditional) map.
	for _, p := range res.Patterns {
		if p.Kind.IsMapKind() {
			for _, c := range p.Comps {
				for _, u := range c {
					if res.Graph.Op(u) == mir.OpFMin {
						t.Error("argmin computation matched as map despite simplified output")
					}
				}
			}
		}
	}
}

func TestAblationDisableIterate(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	res := Find(g, Options{DisableIterate: true})
	ks := kinds(res)
	if ks[patterns.KindTiledMapReduction] != 0 {
		t.Error("map-reduction requires iteration; found without")
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
	// The tiled reduction (it.1) survives as the biggest pattern.
	if ks[patterns.KindTiledReduction] != 1 {
		t.Errorf("tiled reduction should be final without iteration: %v", ks)
	}
}

func TestAblationDisableSimplify(t *testing.T) {
	g := traceProgram(t, seqSumProgram(6))
	res := Find(g, Options{DisableSimplify: true})
	if res.SimplifiedNodes != res.OriginalNodes {
		t.Error("DisableSimplify should keep the graph unchanged")
	}
}

func TestAblationDisableDecompose(t *testing.T) {
	g := traceProgram(t, seqSumProgram(4))
	res := Find(g, Options{DisableDecompose: true, MaxViewGroups: 8})
	// The whole graph as one node-per-node view exceeds the budget: the
	// stand-in for the paper's solver memory exhaustion.
	if res.SkippedViews == 0 {
		t.Error("whole-graph matching should exceed the view budget")
	}
}

func TestFindDeterministic(t *testing.T) {
	p := fig2cProgram(4, 2)
	summaries := map[string]bool{}
	for run := 0; run < 3; run++ {
		g := traceProgram(t, fig2cProgram(4, 2))
		res := Find(g, defaultOpts())
		sum := ""
		for _, pat := range res.Patterns {
			sum += pat.Kind.String() + ";"
		}
		summaries[sum] = true
	}
	_ = p
	if len(summaries) != 1 {
		t.Errorf("non-deterministic results: %v", summaries)
	}
}

func TestResultSizesPopulated(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	res := Find(g, defaultOpts())
	if res.PoolSize == 0 {
		t.Error("pool size not recorded")
	}
	if res.SimplifiedNodes >= res.OriginalNodes {
		t.Error("simplification factor not visible in result")
	}
}
