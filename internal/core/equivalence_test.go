package core_test

// Cache/no-cache equivalence on the real corpus. The view-verdict cache is
// an optimization, not a semantics change: given a shared cache (cold, and
// warm on a repeated run) Find must produce byte-identical patterns and
// matches to a run without a cache, on every Starbench benchmark and
// version. The signatures below serialize the complete pattern
// structure (kind, components, tiling, compound parts, operators) plus the
// match provenance, so any divergence — ordering included — fails.

import (
	"fmt"
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/patterns"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// patternSig serializes a pattern completely and deterministically.
func patternSig(p *patterns.Pattern) string {
	if p == nil {
		return "<nil>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s[op=%d,full=%d](", p.Kind, p.Op, p.NumFull)
	for _, c := range p.Comps {
		sb.WriteString(c.Key())
		sb.WriteString(";")
	}
	sb.WriteString(")")
	if len(p.Partials) > 0 || len(p.Final) > 0 {
		sb.WriteString("tiled{")
		for _, chain := range p.Partials {
			for _, c := range chain {
				sb.WriteString(c.Key())
				sb.WriteString(";")
			}
			sb.WriteString("|")
		}
		sb.WriteString("final:")
		for _, c := range p.Final {
			sb.WriteString(c.Key())
			sb.WriteString(";")
		}
		sb.WriteString("}")
	}
	if p.MapPart != nil || p.RedPart != nil {
		sb.WriteString("map=" + patternSig(p.MapPart))
		sb.WriteString("red=" + patternSig(p.RedPart))
	}
	return sb.String()
}

// subSig serializes a match's sub-DDG provenance.
func subSig(s *core.SubDDG) string {
	if s == nil {
		return "<nil>"
	}
	if s.FusedA != nil {
		return "fused(" + subSig(s.FusedA) + "+" + subSig(s.FusedB) + ")"
	}
	return fmt.Sprintf("sub(%s,loop=%d,assoc=%v)", s.Nodes.Key(), s.Loop, s.Assoc)
}

// findSig serializes everything user-visible about a Find outcome:
// patterns, matches, and the iteration count.
func findSig(res *core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "iters=%d\npatterns:\n", res.Iterations)
	for _, p := range res.Patterns {
		sb.WriteString("  " + patternSig(p) + "\n")
	}
	sb.WriteString("matches:\n")
	for _, m := range res.Matches {
		fmt.Fprintf(&sb, "  it%d %s on %s\n", m.Iteration, patternSig(m.Pattern), subSig(m.Sub))
	}
	return sb.String()
}

// runModes traces the benchmark once and compares Find signatures across
// cache modes: no cache, then one shared cache on its cold (first) and
// warm (second) run.
func runModes(t *testing.T, name string, v starbench.Version, opts core.Options) {
	t.Helper()
	b := starbench.Lookup(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	built := b.Build(v, b.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}

	want := findSig(core.Find(tr.Graph, opts))

	shared := opts
	shared.Cache = core.NewViewCache()
	if got := findSig(core.Find(tr.Graph, shared)); got != want {
		t.Errorf("fresh shared cache diverges from no cache:\n--- no cache ---\n%s--- cold ---\n%s", want, got)
	}
	res := core.Find(tr.Graph, shared)
	if got := findSig(res); got != want {
		t.Errorf("warm shared cache diverges from no cache:\n--- no cache ---\n%s--- warm ---\n%s", want, got)
	}
	hits, misses, _ := res.CacheStats()
	if hits == 0 || misses != 0 {
		t.Errorf("warm run: want all hits, got %d hit(s), %d miss(es)", hits, misses)
	}
}

func TestFindEquivalenceCacheOnOff(t *testing.T) {
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			b, v := b, v
			t.Run(b.Name+"/"+string(v), func(t *testing.T) {
				runModes(t, b.Name, v, core.Options{VerifyMatches: true})
			})
		}
	}
}

func TestFindEquivalenceExtensions(t *testing.T) {
	// The extension kinds (stencil, pipeline, tree reduction) exercise the
	// pipeline pair cache and the tree-reduction fallback path. (ray-rot is
	// deliberately absent: its extension solves are far too slow for the
	// tier-1 suite, cache or no cache.)
	for _, name := range []string{"rot-cc", "streamcluster"} {
		name := name
		t.Run(name, func(t *testing.T) {
			runModes(t, name, starbench.Pthreads,
				core.Options{VerifyMatches: true, Extensions: true})
		})
	}
}

func TestFindEquivalenceNoCompact(t *testing.T) {
	// Compaction mode is part of the cache fingerprint; equivalence must
	// also hold with compaction disabled (node-per-node views everywhere).
	runModes(t, "kmeans", starbench.Pthreads,
		core.Options{VerifyMatches: true, DisableCompact: true})
}
