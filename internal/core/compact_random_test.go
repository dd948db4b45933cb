package core

// Randomized differential suite for online loop-iteration compaction and
// out-of-core paging: over structured random programs, the compact tracer
// must build byte-identical graphs to the trace-then-compact baseline,
// and the finder must report identical patterns whether views take the
// indexed fast path or the scope-chain slow path, and whether the
// simplified graph's adjacency is resident or paged through a spill file.

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/trace"
)

// patternSig renders a finder result's pattern set byte-for-byte.
func patternSig(res *Result) string {
	s := ""
	for _, p := range res.Patterns {
		s += p.Kind.String() + ":" + p.Nodes().Key() + ";"
	}
	return s
}

func TestCompactionDifferentialRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := genProgram(seed)
			compact, err := trace.Run(prog)
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			baseline, err := trace.RunNoCompact(prog)
			if err != nil {
				t.Fatalf("trace.RunNoCompact: %v", err)
			}
			cg, bg := compact.Graph, baseline.Graph
			if cg.Fingerprint() != bg.Fingerprint() {
				t.Fatal("compact and no-compact graphs differ")
			}
			if cg.NumNodes() != bg.NumNodes() || cg.NumArcs() != bg.NumArcs() {
				t.Fatal("compact and no-compact graph shapes differ")
			}
			// genProgram always emits loops, so the compact graph must be
			// indexed — and the indexes must agree with the scope chains.
			if !cg.HasIterIndexes() {
				t.Fatal("compact graph carries no iteration indexes")
			}
			if bg.HasIterIndexes() {
				t.Fatal("no-compact graph carries iteration indexes")
			}
			if err := cg.CheckInvariants(); err != nil {
				t.Fatalf("compact graph fails invariants: %v", err)
			}
			fast := Find(cg, Options{})
			slow := Find(bg, Options{})
			if got, want := patternSig(fast), patternSig(slow); got != want {
				t.Fatalf("indexed finder found %q, scope-chain finder found %q", got, want)
			}
		})
	}
}

func TestFinderEquivalentWhenSpilled(t *testing.T) {
	for seed := uint64(31); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := genProgram(seed)
			traced := func() *ddg.Graph {
				tr, err := trace.Run(prog)
				if err != nil {
					t.Fatalf("trace.Run: %v", err)
				}
				return tr.Graph
			}
			resident := Find(traced(), Options{})
			paged := Find(traced(), Options{SpillBudget: 128, SpillDir: t.TempDir()})
			defer paged.Graph.CloseSpill()
			if !paged.Graph.Spilled() {
				t.Fatal("128-byte budget did not spill the simplified graph")
			}
			if st := paged.Graph.PageStats(); st.Faults == 0 {
				t.Fatalf("finder never paged the spilled graph: %+v", st)
			}
			if got, want := patternSig(paged), patternSig(resident); got != want {
				t.Fatalf("paged finder found %q, resident finder found %q", got, want)
			}
		})
	}
}
