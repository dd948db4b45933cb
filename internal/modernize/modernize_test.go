package modernize

import (
	"math"
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// vmMust builds a machine for a program that must validate.
func vmMust(t *testing.T, p *mir.Program) *vm.Machine {
	t.Helper()
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// staticBase resolves a declared static array's base address.
func staticBase(t *testing.T, m *vm.Machine, name string) int64 {
	t.Helper()
	base, err := m.StaticBase(name)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// heapFloat reads one heap cell as a float.
func heapFloat(t *testing.T, m *vm.Machine, addr int64) float64 {
	t.Helper()
	v, err := m.HeapAt(addr)
	if err != nil {
		t.Fatal(err)
	}
	return v.Float()
}

func TestSuggestTemplates(t *testing.T) {
	b := starbench.ByName("streamcluster")
	built := b.Build(starbench.Seq, b.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Find(tr.Graph, core.Options{})
	suggestions := SuggestAll(res.Graph, res.Patterns)
	if len(suggestions) != len(res.Patterns) {
		t.Fatal("one suggestion per pattern expected")
	}
	joined := strings.Join(suggestions, "\n")
	for _, want := range []string{"MapReduce(", "Map("} {
		if !strings.Contains(joined, want) {
			t.Errorf("suggestions missing %q:\n%s", want, joined)
		}
	}
	// The map-reduction suggestion carries its operator.
	for i, p := range res.Patterns {
		if p.Kind == patterns.KindLinearMapReduction {
			if !strings.Contains(suggestions[i], "a + b") {
				t.Errorf("map-reduction suggestion lacks operator: %s", suggestions[i])
			}
		}
	}
}

func TestSuggestCoversAllKinds(t *testing.T) {
	kinds := []patterns.Kind{
		patterns.KindMap, patterns.KindConditionalMap, patterns.KindFusedMap,
		patterns.KindLinearReduction, patterns.KindTiledReduction,
		patterns.KindLinearMapReduction, patterns.KindTiledMapReduction,
		patterns.KindStencil, patterns.KindTreeReduction, patterns.KindPipeline,
	}
	g, err := ddg.NewFrozenBuilder(0, 0).Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		s := Suggest(g, &patterns.Pattern{Kind: k, Op: mir.OpFAdd})
		if s == "" || strings.Contains(s, "no modernization template") {
			t.Errorf("kind %v has no template: %q", k, s)
		}
	}
}

// TestParallelizeMapRoundTrip is the headline: take the sequential rgbyuv,
// find its pixel map, parallelize that loop in the IR, and check that
//
//  1. the transformed program computes identical outputs on the VM,
//  2. it genuinely runs on threads (pthread_create in the listing), and
//  3. re-analysis of the transformed program finds the same map — the
//     paper's obliviousness claim closing the loop.
func TestParallelizeMapRoundTrip(t *testing.T) {
	b := starbench.ByName("rgbyuv")

	// Reference run.
	ref := b.Build(starbench.Seq, b.Analysis)
	mRef := vmMust(t, ref.Prog)
	if _, err := mRef.Run(); err != nil {
		t.Fatal(err)
	}

	// Find the map and parallelize its loop on a fresh build.
	mod := b.Build(starbench.Seq, b.Analysis)
	loop := mod.Anchors["pixels"]
	if err := ParallelizeMap(mod.Prog, loop, 2); err != nil {
		t.Fatal(err)
	}
	listing := mod.Prog.String()
	if !strings.Contains(listing, "pthread_create(convertRange_loop") {
		t.Errorf("no thread creation in the modernized listing:\n%s", listing)
	}

	mMod := vmMust(t, mod.Prog)
	if _, err := mMod.Run(); err != nil {
		t.Fatalf("modernized program failed: %v", err)
	}
	sizes := map[string]int64{}
	for _, s := range ref.Prog.Statics {
		sizes[s.Name] = s.Size
	}
	for _, out := range b.Outputs {
		b1, b2 := staticBase(t, mRef, out), staticBase(t, mMod, out)
		for i := int64(0); i < sizes[out]; i++ {
			a, c := heapFloat(t, mRef, b1+i), heapFloat(t, mMod, b2+i)
			if math.Abs(a-c) > 1e-12 {
				t.Fatalf("%s[%d]: ref=%g modernized=%g", out, i, a, c)
			}
		}
	}

	// Re-analyze: the map survives the re-parallelization.
	tr, err := trace.Run(mod.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Find(tr.Graph, core.Options{VerifyMatches: true})
	found := false
	for _, p := range res.Patterns {
		if p.Kind == patterns.KindMap && len(p.Comps) == 16 {
			found = true
		}
	}
	if !found {
		t.Errorf("pixel map lost after modernization: %v", res.Patterns)
	}
}

// TestParallelizeMapUnevenSplit: a 10-element loop over 3 threads covers
// every element exactly once.
func TestParallelizeMapUnevenSplit(t *testing.T) {
	p := mir.NewProgram("uneven")
	p.DeclareStatic("in", 10)
	p.DeclareStatic("out", 10)
	p.DeclareStatic("eout", 10)
	f, body := p.NewFunc("main", "u.c")
	body.For("i", mir.C(0), mir.C(10), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("in"), mir.V("i")), mir.FDiv(mir.I2F(mir.V("i")), mir.F(10)))
	})
	var kernel mir.LoopID
	kernel = body.For("i", mir.C(0), mir.C(10), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("out"), mir.V("i")),
			mir.FMul(mir.Load(mir.Idx(mir.G("in"), mir.V("i"))), mir.F(3)))
	})
	body.For("i", mir.C(0), mir.C(10), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("eout"), mir.V("i")),
			mir.FSub(mir.Load(mir.Idx(mir.G("out"), mir.V("i"))), mir.F(1)))
	})
	body.Finish(f)
	p.SetEntry("main")

	if err := ParallelizeMap(p, kernel, 3); err != nil {
		t.Fatal(err)
	}
	m := vmMust(t, p)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	base := staticBase(t, m, "out")
	for i := int64(0); i < 10; i++ {
		want := float64(i) / 10 * 3
		if got := heapFloat(t, m, base+i); math.Abs(got-want) > 1e-12 {
			t.Errorf("out[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestParallelizeMapFreeVariables(t *testing.T) {
	// The loop bounds and a scaling factor are free variables of the loop:
	// they must travel to the worker as parameters.
	p := mir.NewProgram("freevars")
	p.DeclareStatic("out", 8)
	f, body := p.NewFunc("main", "f.c")
	body.Assign("scale", mir.F(2.5))
	body.Assign("lo", mir.C(2))
	body.Assign("hi", mir.C(7))
	var kernel mir.LoopID
	kernel = body.For("i", mir.V("lo"), mir.V("hi"), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("out"), mir.V("i")),
			mir.FMul(mir.I2F(mir.V("i")), mir.V("scale")))
	})
	body.Finish(f)
	p.SetEntry("main")

	if err := ParallelizeMap(p, kernel, 2); err != nil {
		t.Fatal(err)
	}
	worker := p.Funcs["main_loop1_worker"]
	if worker == nil {
		t.Fatal("worker not created")
	}
	params := strings.Join(worker.Params, ",")
	for _, want := range []string{"pid", "scale", "lo", "hi"} {
		if !strings.Contains(params, want) {
			t.Errorf("worker params %q missing %q", params, want)
		}
	}
	m := vmMust(t, p)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	base := staticBase(t, m, "out")
	for i := int64(2); i < 7; i++ {
		if got := heapFloat(t, m, base+i); got != float64(i)*2.5 {
			t.Errorf("out[%d] = %g", i, got)
		}
	}
	if heapFloat(t, m, base) != 0 || heapFloat(t, m, base+7) != 0 {
		t.Error("elements outside [lo,hi) were touched")
	}
}

func TestParallelizeMapErrors(t *testing.T) {
	p := mir.NewProgram("err")
	f, body := p.NewFunc("main", "e.c")
	var stepped mir.LoopID
	stepped = body.For("i", mir.C(0), mir.C(10), mir.C(2), func(b *mir.Block) {
		b.Assign("x", mir.V("i"))
	})
	body.Finish(f)
	p.SetEntry("main")
	if err := ParallelizeMap(p, stepped, 2); err == nil {
		t.Error("non-unit step accepted")
	}
	if err := ParallelizeMap(p, mir.LoopID(99), 2); err == nil {
		t.Error("unknown loop accepted")
	}
	if err := ParallelizeMap(p, stepped, 0); err == nil {
		t.Error("zero threads accepted")
	}
}
