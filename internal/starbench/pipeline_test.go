package starbench

import (
	"testing"

	"discovery/internal/core"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

func TestH264MiniRuns(t *testing.T) {
	b := H264Mini()
	for _, v := range Versions() {
		built := b.Build(v, b.Analysis)
		if errs := built.Prog.Validate(); len(errs) > 0 {
			t.Fatalf("%s: %v", v, errs[0])
		}
		if _, err := trace.Run(built.Prog); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
}

// TestPipelineDetection: the paper's patterns leave the stateful stages
// unmatched (which is why bodytrack and h264dec were excluded); the
// pipeline extension recognizes the staged item flow.
func TestPipelineDetection(t *testing.T) {
	b := H264Mini()
	for _, v := range Versions() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			built := b.Build(v, b.Analysis)
			tr, err := trace.Run(built.Prog)
			if err != nil {
				t.Fatal(err)
			}
			// Baseline: the stateful stages match no maps (and hence no
			// fused maps); only the tiny per-item handoff chains show up
			// as true-but-trivial reductions, the paper's "additional
			// patterns" family.
			base := core.Find(tr.Graph, core.Options{VerifyMatches: true})
			for _, p := range base.Patterns {
				if p.Kind.IsMapKind() {
					t.Errorf("baseline found %v in a stateful pipeline", p.Kind)
				}
				if p.Kind.IsReductionKind() && p.Nodes().Len() > 4 {
					t.Errorf("baseline found a stage-sized %v (%d nodes)",
						p.Kind, p.Nodes().Len())
				}
			}
			// Extensions: the two-stage pipeline over the 8 items.
			ext := core.Find(tr.Graph, core.Options{VerifyMatches: true, Extensions: true})
			var pl *patterns.Pattern
			for _, p := range ext.Patterns {
				if p.Kind == patterns.KindPipeline {
					pl = p
				}
			}
			if pl == nil {
				t.Fatalf("pipeline not detected; final: %v", ext.Patterns)
			}
			if len(pl.Comps) != 8 {
				t.Errorf("pipeline has %d item columns, want 8", len(pl.Comps))
			}
			// Both anchor loops participate.
			for _, anchor := range []string{"decode", "filter"} {
				loop := built.Anchors[anchor]
				touched := false
				for _, u := range pl.Nodes() {
					if s := ext.Graph.ScopeOf(u); s != nil && s.Contains(loop) {
						touched = true
					}
				}
				if !touched {
					t.Errorf("pipeline misses the %s stage", anchor)
				}
			}
		})
	}
}

// TestPipelineNotReportedForFusableMaps: stateless chained maps are fused
// maps, not pipelines.
func TestPipelineNotReportedForFusableMaps(t *testing.T) {
	b := ByName("rot-cc")
	built := b.Build(Seq, b.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ext := core.Find(tr.Graph, core.Options{VerifyMatches: true, Extensions: true})
	for _, p := range ext.Patterns {
		if p.Kind == patterns.KindPipeline {
			t.Errorf("rot-cc misreported as pipeline (it is a fused map)")
		}
	}
}

func TestExtendedRegistry(t *testing.T) {
	ext := Extended()
	if len(ext) == 0 {
		t.Fatal("no extended benchmarks")
	}
	for _, b := range ext {
		if ByName(b.Name) != nil {
			t.Errorf("extended benchmark %q must not shadow the evaluated suite", b.Name)
		}
	}
}

// TestThreeStagePipeline: bodytrack-mini's three stages surface as two
// overlapping two-stage pipelines (consecutive stage pairs).
func TestThreeStagePipeline(t *testing.T) {
	b := BodytrackMini()
	for _, v := range Versions() {
		built := b.Build(v, b.Analysis)
		tr, err := trace.Run(built.Prog)
		if err != nil {
			t.Fatal(err)
		}
		ext := core.Find(tr.Graph, core.Options{VerifyMatches: true, Extensions: true})
		pipelines := 0
		for _, p := range ext.Patterns {
			if p.Kind == patterns.KindPipeline {
				pipelines++
			}
		}
		if pipelines != 2 {
			t.Errorf("%s: %d pipelines, want 2 (edge->weight, weight->resample)", v, pipelines)
		}
	}
}
