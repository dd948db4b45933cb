package patterns

// Adversarial property suite: on random DAGs (not just well-formed
// traces), any pattern a matcher reports must satisfy the unrelaxed §4
// definitions — the paper's observation that its relaxations "do not lead
// to violations of the original pattern definitions", tested well beyond
// the benchmark inputs. Seeds are fixed for reproducibility.

import (
	"fmt"
	"sort"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomDAG builds a forward-arc random graph whose nodes carry random
// operations and random iteration scopes of loop 1.
func randomDAG(seed uint64) (*ddg.Graph, ddg.Set) {
	r := &prng{s: seed | 1}
	ops := []mir.Op{mir.OpFAdd, mir.OpFMul, mir.OpFSub, mir.OpI2F, mir.OpGt, mir.OpFDiv}
	n := 6 + r.intn(14)
	nodeOps := make([]mir.Op, n)
	lines := make([]int, n)
	scopes := make([]*ddg.Scope, n)
	for i := 0; i < n; i++ {
		if r.intn(4) != 0 { // most nodes sit in some iteration of loop 1
			scopes[i] = &ddg.Scope{Loop: 1, Invocation: 1, Iter: int64(r.intn(5))}
		}
		nodeOps[i] = ops[r.intn(len(ops))]
		lines[i] = 1 + r.intn(6)
	}
	// Random forward arcs keep the graph a DAG with the id-order invariant.
	preds := make([][]ddg.NodeID, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.intn(4) == 0 {
				preds[j] = append(preds[j], ddg.NodeID(i))
			}
		}
	}
	fb := ddg.NewFrozenBuilder(n, n*n/2)
	for i := 0; i < n; i++ {
		fb.AddNode(nodeOps[i], fb.PosID(mir.Pos{File: "r.c", Line: lines[i]}), 0, fb.ScopeID(scopes[i]), preds[i]...)
	}
	g, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	// Ambient: a random subset of at least half the nodes.
	var amb []ddg.NodeID
	for i := 0; i < n; i++ {
		if r.intn(3) != 0 {
			amb = append(amb, ddg.NodeID(i))
		}
	}
	return g, ddg.NewSet(amb...)
}

// perturbedStructured starts from a well-formed pattern graph and injects
// a few random forward arcs: matchers must either still accept (and then
// verify) or reject, never accept something the definitions refute.
func perturbedStructured(seed uint64) (*ddg.Graph, ddg.Set) {
	r := &prng{s: seed | 1}
	var g *ddg.Graph
	var amb ddg.Set
	switch r.intn(3) {
	case 0:
		g, amb = buildMapDDG(2 + r.intn(5))
	case 1:
		g, amb = buildChainDDG(2 + r.intn(6))
	default:
		g, amb = buildTiledDDG(2+r.intn(3), 1+r.intn(3))
	}
	extra := make([][2]ddg.NodeID, r.intn(3))
	for k := range extra {
		i := r.intn(g.NumNodes() - 1)
		j := i + 1 + r.intn(g.NumNodes()-i-1)
		extra[k] = [2]ddg.NodeID{ddg.NodeID(i), ddg.NodeID(j)}
	}
	return extend(g, extra), amb
}

func TestMatchersSoundOnRandomDAGs(t *testing.T) {
	matched := 0
	for seed := uint64(1); seed <= 400; seed++ {
		var g *ddg.Graph
		var amb ddg.Set
		if seed%2 == 0 {
			g, amb = randomDAG(seed)
		} else {
			g, amb = perturbedStructured(seed)
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: generator produced a malformed graph: %v", seed, err)
		}
		for _, v := range []*View{NodeView(g, amb), LoopView(g, amb, 1)} {
			check := func(p *Pattern) {
				if p == nil {
					return
				}
				matched++
				if err := Verify(g, p); err != nil {
					t.Errorf("seed %d: matched %v violates its definition: %v",
						seed, p.Kind, err)
				}
			}
			check(MatchMap(v))
			check(MatchLinearReduction(v))
			check(MatchTiledReduction(v))
			check(MatchTreeReduction(v))
		}
	}
	// The suite is only meaningful if some random graphs actually match.
	if matched == 0 {
		t.Error("no random graph matched anything; generator too hostile")
	}
}

func TestMatchersDeterministicOnRandomDAGs(t *testing.T) {
	for seed := uint64(500); seed <= 540; seed++ {
		g, amb := randomDAG(seed)
		sig := func() string {
			s := ""
			for _, v := range []*View{NodeView(g, amb), LoopView(g, amb, 1)} {
				for _, p := range []*Pattern{
					MatchMap(v), MatchLinearReduction(v),
					MatchTiledReduction(v), MatchTreeReduction(v),
				} {
					if p == nil {
						s += "-;"
					} else {
						s += fmt.Sprintf("%v:%s;", p.Kind, p.Nodes().Key())
					}
				}
			}
			return s
		}
		if sig() != sig() {
			t.Errorf("seed %d: matcher output not deterministic", seed)
		}
	}
}

// bucketLoopGroups is the map-bucket grouping LoopView's sort replaced:
// nodes bucketed by iteration ordinal in a map, buckets in ascending
// ordinal order, then the nodes lacking a frame for the loop one per
// group in input order.
func bucketLoopGroups(g ddg.GraphView, nodes ddg.Set, loop mir.LoopID) []ddg.Set {
	ix := g.LoopIterIndex(loop)
	byOrd := map[int32][]ddg.NodeID{}
	var loose []ddg.NodeID
	for _, u := range nodes {
		if o, ok := ix.OrdinalOf(u); ok {
			byOrd[o] = append(byOrd[o], u)
		} else {
			loose = append(loose, u)
		}
	}
	ords := make([]int32, 0, len(byOrd))
	for o := range byOrd {
		ords = append(ords, o)
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	groups := make([]ddg.Set, 0, len(ords)+len(loose))
	for _, o := range ords {
		groups = append(groups, ddg.NewSet(byOrd[o]...))
	}
	for _, u := range loose {
		groups = append(groups, ddg.NewSet(u))
	}
	return groups
}

// nestedScopeDAG is randomDAG with richer scopes: a random walk that
// enters loops 1 and 2 (nested either way, re-entered under new
// invocations), advances iterations and exits, so iteration keys recur
// out of order and some nodes sit outside every loop.
func nestedScopeDAG(seed uint64) (*ddg.Graph, ddg.Set) {
	r := &prng{s: seed | 1}
	n := 10 + r.intn(60)
	fb := ddg.NewFrozenBuilder(n, n)
	var s *ddg.Scope
	var inv uint64
	for i := 0; i < n; i++ {
		switch r.intn(5) {
		case 0:
			s = s.Enter(mir.LoopID(1+r.intn(2)), inv)
			inv++
		case 1, 2:
			if s != nil {
				s = s.NextIter()
			}
		case 3:
			if s != nil {
				s = s.Exit()
			}
		}
		pos := mir.Pos{File: "n.c", Line: 1 + r.intn(3)}
		var preds []ddg.NodeID
		if i > 0 && r.intn(2) == 0 {
			preds = append(preds, ddg.NodeID(r.intn(i)))
		}
		fb.AddNode(mir.OpFAdd, fb.PosID(pos), 0, fb.ScopeID(s), preds...)
	}
	g, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	var amb []ddg.NodeID
	for i := 0; i < n; i++ {
		if r.intn(3) != 0 {
			amb = append(amb, ddg.NodeID(i))
		}
	}
	return g, ddg.NewSet(amb...)
}

// scopedDAG returns the random graph and ambient of one seed: a third of
// the seeds from randomDAG, the rest from nestedScopeDAG.
func scopedDAG(seed uint64) (*ddg.Graph, ddg.Set) {
	if seed%3 == 0 {
		return randomDAG(seed)
	}
	return nestedScopeDAG(seed)
}

// TestLoopViewMatchesBucketOracle holds LoopView's groups — members and
// order — against the map-bucket grouping, for loops present, nested and
// absent (a nil index: every node loose).
func TestLoopViewMatchesBucketOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		g, amb := scopedDAG(seed)
		for _, loop := range []mir.LoopID{1, 2, 3} {
			got := LoopView(g, amb, loop).Groups
			want := bucketLoopGroups(g, amb, loop)
			if len(got) != len(want) {
				t.Fatalf("seed %d loop %d: %d groups, oracle %d", seed, loop, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("seed %d loop %d group %d: %v, oracle %v", seed, loop, i, got[i], want[i])
				}
			}
		}
	}
}

// viewSig renders what the matchers read of a view's group structure:
// per group its members, arcs, in- and out-degree, boundary flags, label
// and op-set.
func viewSig(v *View) string {
	s := ""
	for i, grp := range v.Groups {
		s += fmt.Sprintf("%v arcs=%v in=%d out=%d ext=%t/%t label=%q opset=%q\n",
			grp, v.Arcs(i), v.InDegree(i), v.OutDegree(i), v.ExtIn(i), v.ExtOut(i), v.Label(i), v.OpSet(i))
	}
	return s
}

// TestViewOverlayPaths holds the view's two overlay paths to each other.
// The match phase builds a sub-DDG's overlay once, runs the census over
// it and hands it to the view (SetOverlay); the pipeline pass lets the
// view build its own (Sub). Node and loop views must derive the same
// group structure either way, on the same random DAGs.
func TestViewOverlayPaths(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		g, amb := scopedDAG(seed)
		for _, loop := range []mir.LoopID{0, 1, 2} {
			view := func() *View {
				if loop == 0 {
					return NodeView(g, amb)
				}
				return LoopView(g, amb, loop)
			}
			shared, sub := view(), g.Overlay(amb)
			PrescreenSub(g, sub, loop)
			shared.SetOverlay(sub)
			own := view()
			if got, want := viewSig(shared), viewSig(own); got != want {
				t.Fatalf("seed %d loop %d: shared overlay\n%s\nown overlay\n%s", seed, loop, got, want)
			}
			if shared.Sub() != sub || own.Sub() == sub {
				t.Fatalf("seed %d loop %d: the shared view must keep the overlay it was handed, the other build its own", seed, loop)
			}
		}
	}
}
