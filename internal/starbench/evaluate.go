package starbench

import (
	"fmt"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

// ExpectationResult pairs a ground-truth expectation with what the finder
// did about it.
type ExpectationResult struct {
	Expectation
	// Found reports whether a matching pattern was discovered.
	Found bool
	// FoundIteration is the first iteration that discovered it.
	FoundIteration int
}

// BenchResult is the outcome of evaluating one benchmark version: the
// Table 3 row plus the accuracy and scalability raw data.
type BenchResult struct {
	Bench   *Benchmark
	Version Version
	Built   *Built
	Finder  *core.Result

	Expectations []ExpectationResult
	// Additional are final reported patterns beyond the ground truth
	// (the paper's §6.1 accuracy study material).
	Additional []*patterns.Pattern

	DDGNodes int // traced DDG size before simplification
	Ops      int64
}

// Evaluate traces one benchmark version with its analysis input, runs the
// pattern finder, and scores the result against the Table 3 ground truth.
func Evaluate(b *Benchmark, v Version, opts core.Options) (*BenchResult, error) {
	return evaluateWith(b, v, b.Analysis, opts)
}

func evaluateWith(b *Benchmark, v Version, par Params, opts core.Options) (*BenchResult, error) {
	built := b.Build(v, par)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		return nil, fmt.Errorf("starbench: tracing %s/%s: %w", b.Name, v, err)
	}
	finder := core.Find(tr.Graph, opts)

	res := &BenchResult{
		Bench:    b,
		Version:  v,
		Built:    built,
		Finder:   finder,
		DDGNodes: tr.Graph.NumNodes(),
		Ops:      tr.Ops,
	}
	res.scoreExpectations()
	res.collectAdditional()
	return res, nil
}

// patternTouchesLoop reports whether any node of the pattern executed
// inside the given static loop.
func patternTouchesLoop(g *ddg.Graph, p *patterns.Pattern, loop mir.LoopID) bool {
	for _, u := range p.Nodes() {
		if s := g.ScopeOf(u); s != nil && s.Contains(loop) {
			return true
		}
	}
	return false
}

// matchesExpectation reports whether the pattern satisfies the
// expectation: an accepted kind touching every anchor loop.
func (r *BenchResult) matchesExpectation(p *patterns.Pattern, e Expectation) bool {
	okKind := false
	for _, k := range KindsFor(e.Label, r.Version) {
		if p.Kind == k {
			okKind = true
		}
	}
	if !okKind {
		return false
	}
	for _, a := range e.Anchors {
		loop, ok := r.Built.Anchors[a]
		if !ok {
			panic(fmt.Sprintf("starbench: %s/%s: unknown anchor %q", r.Bench.Name, r.Version, a))
		}
		if !patternTouchesLoop(r.Finder.Graph, p, loop) {
			return false
		}
	}
	return true
}

func (r *BenchResult) scoreExpectations() {
	for _, e := range r.Bench.Expected(r.Version) {
		er := ExpectationResult{Expectation: e}
		for _, m := range r.Finder.Matches {
			if r.matchesExpectation(m.Pattern, e) {
				if !er.Found || m.Iteration < er.FoundIteration {
					er.Found = true
					er.FoundIteration = m.Iteration
				}
			}
		}
		r.Expectations = append(r.Expectations, er)
	}
}

// collectAdditional gathers the final reported patterns that do not
// account for any ground-truth expectation.
func (r *BenchResult) collectAdditional() {
	for _, p := range r.Finder.Patterns {
		accounted := false
		for _, e := range r.Bench.Expected(r.Version) {
			if !e.Missed && r.matchesExpectation(p, e) {
				accounted = true
				break
			}
		}
		if !accounted {
			r.Additional = append(r.Additional, p)
		}
	}
}

// FoundCount returns how many non-missed expectations were found and how
// many there are.
func (r *BenchResult) FoundCount() (found, total int) {
	for _, er := range r.Expectations {
		if er.Missed {
			continue
		}
		total++
		if er.Found {
			found++
		}
	}
	return found, total
}

// Accuracy classifies the additional patterns of this result as true or
// false patterns by re-running the analysis on the benchmark's larger
// sensitivity input (the automated analogue of the paper's manual §6.1
// accuracy analysis): a pattern that was matched on a whole loop but
// cannot be matched on the same loop under the second input only applied
// to the original input — a false pattern.
type Accuracy struct {
	True, False int
	// FalsePatterns lists the false ones for reporting.
	FalsePatterns []*patterns.Pattern
}

// ClassifyAdditional computes the accuracy classification. It runs one
// extra trace+find on the sensitivity input.
func (r *BenchResult) ClassifyAdditional(opts core.Options) (*Accuracy, error) {
	if len(r.Additional) == 0 {
		return &Accuracy{}, nil
	}
	sens, err := evaluateWith(r.Bench, r.Version, r.Bench.Sensitivity, opts)
	if err != nil {
		return nil, err
	}
	acc := &Accuracy{}
	for _, p := range r.Additional {
		if r.isTrueOn(p, sens) {
			acc.True++
		} else {
			acc.False++
			acc.FalsePatterns = append(acc.FalsePatterns, p)
		}
	}
	return acc, nil
}

// isTrueOn checks whether pattern p generalizes to the sensitivity run.
func (r *BenchResult) isTrueOn(p *patterns.Pattern, sens *BenchResult) bool {
	// Find the sub-DDG p was matched on.
	var sub *core.SubDDG
	for _, m := range r.Finder.Matches {
		if m.Pattern == p {
			sub = m.Sub
		}
	}
	if sub != nil && sub.Loop != 0 && p.Kind.IsMapKind() {
		// Whole-loop maps are re-matched on the same static loop of the
		// sensitivity trace (loop ids are stable across inputs: the
		// builder is deterministic).
		g := sens.Finder.Graph
		var nodes []ddg.NodeID
		for i := 0; i < g.NumNodes(); i++ {
			if s := g.ScopeOf(ddg.NodeID(i)); s != nil && s.Contains(sub.Loop) {
				nodes = append(nodes, ddg.NodeID(i))
			}
		}
		v := patterns.LoopView(g, ddg.NewSet(nodes...), sub.Loop)
		m := patterns.MatchMap(v)
		return m != nil
	}
	// Other patterns (reductions, subtraction/fusion products): true if a
	// same-class pattern recurs at overlapping source positions.
	pos := map[mir.Pos]bool{}
	for _, q := range p.Positions(r.Finder.Graph) {
		pos[q] = true
	}
	for _, m := range sens.Finder.Matches {
		if m.Pattern.Kind.Short() != p.Kind.Short() {
			continue
		}
		for _, q := range m.Pattern.Positions(sens.Finder.Graph) {
			if pos[q] {
				return true
			}
		}
	}
	return false
}
