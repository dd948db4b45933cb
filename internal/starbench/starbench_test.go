package starbench

import (
	"math"
	"testing"

	"discovery/internal/core"
	"discovery/internal/mir"
	"discovery/internal/vm"
)

func opts() core.Options {
	return core.Options{VerifyMatches: true}
}

// vmMust builds a machine for a benchmark program, which must validate.
func vmMust(t *testing.T, p *mir.Program) *vm.Machine {
	t.Helper()
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// staticBase resolves a declared output array's base address.
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

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("expected 8 benchmarks, got %d", len(all))
	}
	names := map[string]bool{}
	for _, b := range all {
		if names[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		names[b.Name] = true
		if b.Analysis == nil || b.Reference == nil || b.Sensitivity == nil {
			t.Errorf("%s: missing input parameter sets", b.Name)
		}
		if b.AnalysisDesc == "" || b.ReferenceDesc == "" {
			t.Errorf("%s: missing Table 2 descriptions", b.Name)
		}
		if len(b.Outputs) == 0 {
			t.Errorf("%s: no outputs declared", b.Name)
		}
	}
	if ByName("md5") == nil || ByName("nope") != nil {
		t.Error("ByName misbehaves")
	}
}

func TestAllProgramsValidate(t *testing.T) {
	for _, b := range All() {
		for _, v := range Versions() {
			for _, par := range []Params{b.Analysis, b.Sensitivity} {
				built := b.Build(v, par)
				if errs := built.Prog.Validate(); len(errs) > 0 {
					t.Errorf("%s/%s (%s): %v", b.Name, v, par, errs[0])
				}
				for name, loop := range built.Anchors {
					if loop == 0 {
						t.Errorf("%s/%s: anchor %q not assigned", b.Name, v, name)
					}
				}
			}
		}
	}
}

// TestVersionsAgree runs the sequential and Pthreads versions without
// instrumentation and compares their declared outputs: the threaded port
// must compute the same results (up to floating-point reassociation in the
// reductions).
func TestVersionsAgree(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			seq := b.Build(Seq, b.Analysis)
			par := b.Build(Pthreads, b.Analysis)
			mSeq := vmMust(t, seq.Prog)
			if _, err := mSeq.Run(); err != nil {
				t.Fatalf("seq run: %v", err)
			}
			mPar := vmMust(t, par.Prog)
			if _, err := mPar.Run(); err != nil {
				t.Fatalf("pthreads run: %v", err)
			}
			sizes := map[string]int64{}
			for _, s := range seq.Prog.Statics {
				sizes[s.Name] = s.Size
			}
			for _, out := range b.Outputs {
				base1, base2 := staticBase(t, mSeq, out), staticBase(t, mPar, out)
				nonzero := false
				for i := int64(0); i < sizes[out]; i++ {
					a := heapFloat(t, mSeq, base1+i)
					c := heapFloat(t, mPar, base2+i)
					if math.Abs(a-c) > 1e-9*(1+math.Abs(a)) {
						t.Fatalf("output %s[%d]: seq=%g pthreads=%g", out, i, a, c)
					}
					if a != 0 {
						nonzero = true
					}
				}
				if !nonzero {
					t.Errorf("output %s is all zeros; kernel likely did nothing", out)
				}
			}
		})
	}
}

// TestTable3 is the effectiveness experiment (paper §6.1, Table 3): every
// ground-truth pattern is found in the iteration the paper reports, and
// every pattern the paper's heuristics miss stays missed.
func TestTable3(t *testing.T) {
	totalFound, totalExpected, totalMissed := 0, 0, 0
	for _, b := range All() {
		for _, v := range Versions() {
			res, err := Evaluate(b, v, opts())
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, v, err)
			}
			for _, er := range res.Expectations {
				if er.Missed {
					totalMissed++
					if er.Found {
						t.Errorf("%s/%s: %s at %v found despite expected miss (%s)",
							b.Name, v, er.Label, er.Anchors, er.MissReason)
					}
					continue
				}
				totalExpected++
				if !er.Found {
					t.Errorf("%s/%s: expected %s at %v not found",
						b.Name, v, er.Label, er.Anchors)
					continue
				}
				totalFound++
				if er.Iteration != 0 && er.FoundIteration != er.Iteration {
					t.Errorf("%s/%s: %s at %v found in it.%d, paper reports it.%d",
						b.Name, v, er.Label, er.Anchors, er.FoundIteration, er.Iteration)
				}
			}
		}
	}
	// The paper's headline numbers: 36 found of 42 expected (86%).
	if totalExpected != 36 || totalMissed != 6 {
		t.Errorf("ground truth has %d findable + %d missed, want 36 + 6",
			totalExpected, totalMissed)
	}
	if totalFound != totalExpected {
		t.Errorf("found %d of %d expected patterns", totalFound, totalExpected)
	}
}

// TestIterationProfile checks the paper's discovery-iteration split: 27
// expected patterns found in it.1, seven in it.2, two in it.3.
func TestIterationProfile(t *testing.T) {
	profile := map[int]int{}
	for _, b := range All() {
		for _, v := range Versions() {
			res, err := Evaluate(b, v, opts())
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, v, err)
			}
			for _, er := range res.Expectations {
				if er.Found && !er.Missed {
					profile[er.FoundIteration]++
				}
			}
		}
	}
	want := map[int]int{1: 27, 2: 7, 3: 2}
	for it, n := range want {
		if profile[it] != n {
			t.Errorf("patterns found in it.%d = %d, want %d (full profile %v)",
				it, profile[it], n, profile)
		}
	}
}

// TestAccuracy is the §6.1 accuracy experiment: additional patterns are
// overwhelmingly true, and the only false ones are the two streamcluster
// maps whose conditional reduction the analysis input does not trigger.
func TestAccuracy(t *testing.T) {
	falseTotal := 0
	for _, b := range All() {
		for _, v := range Versions() {
			res, err := Evaluate(b, v, opts())
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, v, err)
			}
			acc, err := res.ClassifyAdditional(opts())
			if err != nil {
				t.Fatalf("%s/%s classify: %v", b.Name, v, err)
			}
			falseTotal += acc.False
			if b.Name == "streamcluster" {
				if acc.False != 1 {
					t.Errorf("streamcluster/%s: %d false patterns, want 1", v, acc.False)
				}
				for _, p := range acc.FalsePatterns {
					if !p.Kind.IsMapKind() {
						t.Errorf("streamcluster/%s: false pattern is %v, want a map", v, p.Kind)
					}
				}
			} else if acc.False != 0 {
				t.Errorf("%s/%s: %d false patterns, want 0", b.Name, v, acc.False)
			}
		}
	}
	if falseTotal != 2 {
		t.Errorf("total false patterns = %d, want 2 (one per streamcluster version)", falseTotal)
	}
}

// TestPthreadsDDGsLarger checks the §6.2 observation that Pthreads
// versions yield somewhat larger DDGs than their sequential counterparts.
func TestPthreadsDDGsLarger(t *testing.T) {
	for _, b := range All() {
		seq, err := Evaluate(b, Seq, opts())
		if err != nil {
			t.Fatal(err)
		}
		par, err := Evaluate(b, Pthreads, opts())
		if err != nil {
			t.Fatal(err)
		}
		if par.DDGNodes < seq.DDGNodes {
			t.Errorf("%s: pthreads DDG (%d) smaller than sequential (%d)",
				b.Name, par.DDGNodes, seq.DDGNodes)
		}
	}
}

// TestSimplificationFactor checks that DDG simplification shrinks traces
// substantially (the paper reports 3.82x on average; the exact factor
// depends on the kernels' addressing density).
func TestSimplificationFactor(t *testing.T) {
	var ratio float64
	var n int
	for _, b := range All() {
		res, err := Evaluate(b, Seq, opts())
		if err != nil {
			t.Fatal(err)
		}
		ratio += float64(res.DDGNodes) / float64(res.Finder.SimplifiedNodes)
		n++
	}
	avg := ratio / float64(n)
	if avg < 1.2 {
		t.Errorf("average simplification factor %.2fx; simplification seems ineffective", avg)
	}
}

func TestBlockRangePanicsOnUnevenSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("blockRange accepted an uneven split")
		}
	}()
	p := mir.NewProgram("x")
	f, b := p.NewFunc("w", "x.c", "pid")
	blockRange(b, 7, 2)
	b.Finish(f)
}

func TestKindsFor(t *testing.T) {
	if KindsFor("r", Seq)[0].String() != "linear reduction" {
		t.Error("r/seq should be linear")
	}
	if KindsFor("r", Pthreads)[0].String() != "tiled reduction" {
		t.Error("r/pthreads should be tiled")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown label should panic")
		}
	}()
	KindsFor("zz", Seq)
}

func TestParamsHelpers(t *testing.T) {
	p := Params{"a": 1, "b": 2}
	if p.Get("a") != 1 {
		t.Error("Get failed")
	}
	if s := p.String(); s != "a=1, b=2" {
		t.Errorf("String = %q", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("missing param should panic")
		}
	}()
	p.Get("zz")
}

// TestVersionsAgreeOnSensitivityInputs repeats the cross-version
// equivalence check on the larger sensitivity inputs.
func TestVersionsAgreeOnSensitivityInputs(t *testing.T) {
	for _, b := range All() {
		seq := b.Build(Seq, b.Sensitivity)
		par := b.Build(Pthreads, b.Sensitivity)
		mSeq := vmMust(t, seq.Prog)
		if _, err := mSeq.Run(); err != nil {
			t.Fatalf("%s seq: %v", b.Name, err)
		}
		mPar := vmMust(t, par.Prog)
		if _, err := mPar.Run(); err != nil {
			t.Fatalf("%s pthreads: %v", b.Name, err)
		}
		sizes := map[string]int64{}
		for _, s := range seq.Prog.Statics {
			sizes[s.Name] = s.Size
		}
		for _, out := range b.Outputs {
			b1, b2 := staticBase(t, mSeq, out), staticBase(t, mPar, out)
			for i := int64(0); i < sizes[out]; i++ {
				a, c := heapFloat(t, mSeq, b1+i), heapFloat(t, mPar, b2+i)
				if math.Abs(a-c) > 1e-9*(1+math.Abs(a)) {
					t.Fatalf("%s %s[%d]: seq=%g pthreads=%g", b.Name, out, i, a, c)
				}
			}
		}
	}
}
