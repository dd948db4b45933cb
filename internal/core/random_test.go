package core

// Randomized robustness suite: generate structured random programs, trace
// them, run the finder, and check global soundness properties — every
// match satisfies the unrelaxed §4 definitions, merged patterns are
// mutually non-subsumed subsets of the graph, and the whole pipeline is
// deterministic. Seeds are fixed so failures are reproducible.

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

// rng is a small deterministic generator (xorshift) so the suite never
// depends on runtime randomness.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genProgram builds a random but valid sequential program: a handful of
// arrays initialized by traced code, a few loops mixing per-element
// computation, accumulation, conditionals, and cross-array reads, and an
// emit loop per written array.
func genProgram(seed uint64) *mir.Program {
	r := &rng{s: seed | 1}
	p := mir.NewProgram(fmt.Sprintf("rand%d", seed))
	n := int64(4 + r.intn(8)) // array length 4..11

	arrays := []string{"a0", "a1", "a2"}
	for _, a := range arrays {
		p.DeclareStatic(a, n)
		p.DeclareStatic("emit_"+a, n)
	}
	p.DeclareStatic("accs", 4)

	f, b := p.NewFunc("main", "rand.c")
	// Traced initialization of a0.
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("a0"), mir.V("i")),
			mir.FDiv(mir.I2F(mir.Mod(mir.Mul(mir.V("i"), mir.C(int64(3+r.intn(50)))), mir.C(23))), mir.F(23)))
	})

	written := map[string]bool{"a0": true}
	floatBin := []mir.Op{mir.OpFAdd, mir.OpFSub, mir.OpFMul}
	nLoops := 2 + r.intn(4)
	for li := 0; li < nLoops; li++ {
		src := arrays[r.intn(len(arrays))]
		if !written[src] {
			src = "a0"
		}
		dst := arrays[1+r.intn(len(arrays)-1)]
		kind := r.intn(4)
		op1 := floatBin[r.intn(len(floatBin))]
		op2 := floatBin[r.intn(len(floatBin))]
		c1 := 0.25 + float64(r.intn(8))/4
		switch kind {
		case 0: // plain per-element kernel
			b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
				b.Assign("x", mir.Load(mir.Idx(mir.G(src), mir.V("i"))))
				b.Store(mir.Idx(mir.G(dst), mir.V("i")),
					mir.Bin(op1, mir.Bin(op2, mir.V("x"), mir.F(c1)), mir.F(0.5)))
			})
			written[dst] = true
		case 1: // accumulation
			slot := int64(r.intn(4))
			b.Assign("acc", mir.F(0))
			b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
				b.Assign("acc", mir.FAdd(mir.V("acc"),
					mir.Load(mir.Idx(mir.G(src), mir.V("i")))))
			})
			b.Store(mir.Idx(mir.G("accs"), mir.C(slot)),
				mir.FMul(mir.V("acc"), mir.F(c1)))
		case 2: // conditional kernel
			b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
				b.Assign("x", mir.Load(mir.Idx(mir.G(src), mir.V("i"))))
				b.If(mir.Gt(mir.V("x"), mir.F(float64(r.intn(100))/100)), func(b *mir.Block) {
					b.Store(mir.Idx(mir.G(dst), mir.V("i")),
						mir.Bin(op1, mir.V("x"), mir.F(c1)))
				})
			})
			written[dst] = true
		case 3: // two-input kernel
			src2 := "a0"
			b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
				b.Store(mir.Idx(mir.G(dst), mir.V("i")),
					mir.Bin(op1,
						mir.Load(mir.Idx(mir.G(src), mir.V("i"))),
						mir.Load(mir.Idx(mir.G(src2), mir.V("i")))))
			})
			written[dst] = true
		}
	}
	// Drain every written array.
	for _, a := range arrays {
		if written[a] {
			b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
				b.Store(mir.Idx(mir.G("emit_"+a), mir.V("i")),
					mir.FDiv(mir.Load(mir.Idx(mir.G(a), mir.V("i"))), mir.F(9)))
			})
		}
	}
	b.Finish(f)
	p.SetEntry("main")
	return p.MustValidate()
}

func TestFinderSoundOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := genProgram(seed)
			tr, err := trace.Run(prog)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			res := Find(tr.Graph, Options{})
			all := res.Graph.Nodes()
			// Every match satisfies the unrelaxed definitions.
			for _, m := range res.Matches {
				if err := patterns.Verify(res.Graph, m.Pattern); err != nil {
					t.Errorf("match %v (it.%d) violates its definition: %v",
						m.Pattern.Kind, m.Iteration, err)
				}
				if !m.Pattern.Nodes().SubsetOf(all) {
					t.Errorf("match %v references unknown nodes", m.Pattern.Kind)
				}
			}
			// Merged patterns are mutually non-subsumed.
			for i, p := range res.Patterns {
				for j, q := range res.Patterns {
					if i != j && q.Subsumes(p) && q.Nodes().Len() > p.Nodes().Len() {
						t.Errorf("final pattern %v subsumed by %v", p.Kind, q.Kind)
					}
				}
			}
		})
	}
}

func TestFinderDeterministicOnRandomPrograms(t *testing.T) {
	for seed := uint64(41); seed <= 50; seed++ {
		sig := map[string]bool{}
		for run := 0; run < 2; run++ {
			prog := genProgram(seed)
			tr, err := trace.Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			res := Find(tr.Graph, Options{})
			s := ""
			for _, p := range res.Patterns {
				s += p.Kind.String() + ":" + p.Nodes().Key() + ";"
			}
			sig[s] = true
		}
		if len(sig) != 1 {
			t.Errorf("seed %d: non-deterministic finder output", seed)
		}
	}
}

func TestExtensionsSoundOnRandomPrograms(t *testing.T) {
	for seed := uint64(51); seed <= 70; seed++ {
		prog := genProgram(seed)
		tr, err := trace.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		res := Find(tr.Graph, Options{Extensions: true})
		for _, m := range res.Matches {
			if err := patterns.Verify(res.Graph, m.Pattern); err != nil {
				t.Errorf("seed %d: extension match %v violates its definition: %v",
					seed, m.Pattern.Kind, err)
			}
		}
	}
}

func TestRandomProgramsRunDeterministically(t *testing.T) {
	// The generated programs themselves are deterministic: same heap
	// outcome on re-execution (via the traced return of emit sums).
	for seed := uint64(71); seed <= 80; seed++ {
		a := traceProgram(t, genProgram(seed))
		b := traceProgram(t, genProgram(seed))
		if a.NumNodes() != b.NumNodes() || a.NumArcs() != b.NumArcs() {
			t.Errorf("seed %d: runs differ (%v vs %v)", seed, a, b)
		}
	}
}

var _ = ddg.NewSet // keep the import when assertions change
