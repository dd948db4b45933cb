package core

// End-to-end tests of the future-work extensions (paper §8/§9): stencil
// and tree-reduction detection, and if-conversion of min/max idioms.

import (
	"testing"

	"discovery/internal/mir"
	"discovery/internal/patterns"
)

// jacobiProgram builds a 1-D Jacobi smoothing step:
// out[i] = (in[i-1] + in[i] + in[i+1]) / 3 for interior points.
func jacobiProgram(n int64) *mir.Program {
	p := mir.NewProgram("jacobi")
	p.DeclareStatic("in", n)
	p.DeclareStatic("out", n)
	p.DeclareStatic("emit", n)
	f, b := p.NewFunc("main", "jacobi.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("in"), mir.V("i")),
			mir.FDiv(mir.I2F(mir.Mod(mir.Mul(mir.V("i"), mir.C(97)), mir.C(31))), mir.F(31)))
	})
	b.For("i", mir.C(1), mir.C(n-1), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("out"), mir.V("i")),
			mir.FDiv(mir.FAdd(mir.FAdd(
				mir.Load(mir.Idx(mir.G("in"), mir.Sub(mir.V("i"), mir.C(1)))),
				mir.Load(mir.Idx(mir.G("in"), mir.V("i")))),
				mir.Load(mir.Idx(mir.G("in"), mir.Add(mir.V("i"), mir.C(1))))),
				mir.F(3)))
	})
	b.For("i", mir.C(1), mir.C(n-1), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("emit"), mir.V("i")),
			mir.FDiv(mir.Load(mir.Idx(mir.G("out"), mir.V("i"))), mir.F(8)))
	})
	b.Finish(f)
	p.SetEntry("main")
	return p.MustValidate()
}

func TestStencilDetection(t *testing.T) {
	g := traceProgram(t, jacobiProgram(10))

	// Without extensions: a plain map.
	base := Find(g, Options{VerifyMatches: true})
	if ks := kinds(base); ks[patterns.KindMap] == 0 {
		t.Fatalf("baseline should report the Jacobi loop as a map: %v", ks)
	}
	if ks := kinds(base); ks[patterns.KindStencil] != 0 {
		t.Error("stencil reported without extensions enabled")
	}

	// With extensions: refined into a stencil.
	ext := Find(g, Options{VerifyMatches: true, Extensions: true})
	ks := kinds(ext)
	if ks[patterns.KindStencil] == 0 {
		t.Fatalf("stencil not detected with extensions: %v", ks)
	}
	for _, p := range ext.Patterns {
		if p.Kind == patterns.KindStencil {
			if len(p.Comps) != 8 { // interior points of n=10
				t.Errorf("stencil has %d components, want 8", len(p.Comps))
			}
			if err := patterns.Verify(ext.Graph, p); err != nil {
				t.Errorf("stencil fails verification: %v", err)
			}
		}
	}
}

func TestStencilNotReportedForIndependentMap(t *testing.T) {
	// A pointwise map (components share only broadcast inputs at most)
	// must stay a map under extensions.
	g := traceProgram(t, mapKernelProgram(6))
	ext := Find(g, Options{Extensions: true})
	if ks := kinds(ext); ks[patterns.KindStencil] != 0 {
		t.Errorf("pointwise map misreported as stencil: %v", ks)
	}
}

// treeSumProgram reduces 8 elements with an explicit pairwise combining
// tree (the GPU-style arrangement): 4 + 2 + 1 additions.
func treeSumProgram() *mir.Program {
	p := mir.NewProgram("treesum")
	p.DeclareStatic("in", 8)
	p.DeclareStatic("tmp", 8)
	p.DeclareStatic("result", 1)
	f, b := p.NewFunc("main", "treesum.c")
	b.For("i", mir.C(0), mir.C(8), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("in"), mir.V("i")),
			mir.FDiv(mir.I2F(mir.V("i")), mir.F(8)))
	})
	// Level 1: tmp[i] = in[2i] + in[2i+1]
	b.For("i", mir.C(0), mir.C(4), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("tmp"), mir.V("i")),
			mir.FAdd(
				mir.Load(mir.Idx(mir.G("in"), mir.Mul(mir.V("i"), mir.C(2)))),
				mir.Load(mir.Idx(mir.G("in"), mir.Add(mir.Mul(mir.V("i"), mir.C(2)), mir.C(1))))))
	})
	// Level 2: tmp[4+i] = tmp[2i] + tmp[2i+1]
	b.For("i", mir.C(0), mir.C(2), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("tmp"), mir.Add(mir.C(4), mir.V("i"))),
			mir.FAdd(
				mir.Load(mir.Idx(mir.G("tmp"), mir.Mul(mir.V("i"), mir.C(2)))),
				mir.Load(mir.Idx(mir.G("tmp"), mir.Add(mir.Mul(mir.V("i"), mir.C(2)), mir.C(1))))))
	})
	// Root: result = tmp[4] + tmp[5], consumed once more.
	b.Assign("root", mir.FAdd(
		mir.Load(mir.Idx(mir.G("tmp"), mir.C(4))),
		mir.Load(mir.Idx(mir.G("tmp"), mir.C(5)))))
	b.Store(mir.Idx(mir.G("result"), mir.C(0)), mir.FMul(mir.V("root"), mir.F(0.5)))
	b.Finish(f)
	p.SetEntry("main")
	return p.MustValidate()
}

func TestTreeReductionDetection(t *testing.T) {
	g := traceProgram(t, treeSumProgram())

	// The tree shape matches neither the linear nor the tiled variant.
	base := Find(g, Options{VerifyMatches: true})
	ks := kinds(base)
	if ks[patterns.KindLinearReduction]+ks[patterns.KindTiledReduction] != 0 {
		t.Errorf("baseline misclassified the tree: %v", ks)
	}

	ext := Find(g, Options{VerifyMatches: true, Extensions: true})
	ks = kinds(ext)
	if ks[patterns.KindTreeReduction] == 0 {
		t.Fatalf("tree reduction not detected: %v", ks)
	}
	for _, p := range ext.Patterns {
		if p.Kind == patterns.KindTreeReduction {
			if len(p.Comps) != 7 {
				t.Errorf("tree has %d components, want 7", len(p.Comps))
			}
			if p.Op != mir.OpFAdd {
				t.Errorf("tree op = %v", p.Op)
			}
		}
	}
}

// minReductionProgram is the §8 limitation: a running minimum expressed
// as a conditional data transfer, invisible to the analysis until
// if-conversion materializes the min operations.
func minReductionProgram(n int64) *mir.Program {
	p := mir.NewProgram("minred")
	p.DeclareStatic("data", n)
	p.DeclareStatic("result", 1)
	f, b := p.NewFunc("main", "minred.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("data"), mir.V("i")),
			mir.FDiv(mir.I2F(mir.Mod(mir.Mul(mir.V("i"), mir.C(53)), mir.C(17))), mir.F(17)))
	})
	b.Assign("best", mir.F(1e30))
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Assign("x", mir.Load(mir.Idx(mir.G("data"), mir.V("i"))))
		b.If(mir.Lt(mir.V("x"), mir.V("best")), func(b *mir.Block) {
			b.Assign("best", mir.V("x"))
		})
	})
	b.Store(mir.Idx(mir.G("result"), mir.C(0)), mir.FMul(mir.V("best"), mir.F(2)))
	b.Finish(f)
	p.SetEntry("main")
	return p.MustValidate()
}

func TestIfConversionEnablesMinReduction(t *testing.T) {
	// Without if-conversion: no reduction is visible (the min updates are
	// conditional copies, which produce no dataflow nodes).
	plain := minReductionProgram(8)
	g := traceProgram(t, plain)
	base := Find(g, defaultOpts())
	if ks := kinds(base); ks[patterns.KindLinearReduction] != 0 {
		t.Errorf("min reduction should be invisible without if-conversion: %v", ks)
	}

	// With if-conversion: the loop becomes a linear fmin reduction.
	converted := minReductionProgram(8)
	if n := converted.IfConvert(); n != 1 {
		t.Fatalf("if-conversion converted %d sites, want 1", n)
	}
	g2 := traceProgram(t, converted)
	res := Find(g2, defaultOpts())
	found := false
	for _, p := range res.Patterns {
		if p.Kind == patterns.KindLinearReduction && p.Op == mir.OpFMin {
			found = true
			if len(p.Comps) != 8 {
				t.Errorf("fmin reduction has %d components, want 8", len(p.Comps))
			}
		}
	}
	if !found {
		t.Errorf("fmin reduction not found after if-conversion: %v", kinds(res))
	}
}
