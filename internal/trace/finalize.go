package trace

import (
	"sort"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// finalize merges per-thread trace buffers into one DDG with dense node
// ids, built directly in its frozen CSR layout.
//
// The merge must respect two constraints at once:
//
//   - Determinism: final ids may depend only on the buffer contents —
//     (thread, local index) streams and their recorded operands — never
//     on how the Go scheduler happened to interleave the run.
//   - The topological-id invariant: every arc must go from a lower to a
//     higher final id (ddg.Graph.Convex prunes its searches with it).
//
// Both are satisfied by a Kahn-style k-way merge: repeatedly walk the
// threads in ascending id order and emit each thread's longest ready run
// (a node is ready when all its operands are already emitted). Within a
// thread, buffer order is program order, so same-thread operands always
// precede their uses; a cross-thread operand was recorded through the
// shadow memory, whose defining store happened before the recording
// thread's load in every execution, so a ready node always exists (the
// earliest unemitted node in the execution's real-time order is one).
// For single-threaded traces the merge degenerates to the buffer order,
// reproducing exactly the ids the legacy global-lock tracer assigned.
//
// Emission order is predecessor-first, so nodes stream straight into a
// ddg.FrozenBuilder: no intermediate per-node adjacency, and the result
// is acyclic by construction (no CheckAcyclic pass needed).
//
// Buffers produced by the VM hot path are well-formed by construction, but
// finalize also accepts buffers rebuilt from external graphs (the
// equivalence tests' Canonicalize) and fuzzed ones, so it validates
// shape up front and returns typed errors — InvalidInput for malformed
// buffers, InvariantViolation for an operand cycle — instead of crashing.
func finalize(bufs []*threadBuf) (*ddg.Graph, error) {
	total, maxArcs := 0, 0
	for _, tb := range bufs {
		if tb == nil {
			continue
		}
		total += len(tb.recs)
		maxArcs += len(tb.operands)
		// Operand offsets must be monotone and within the operand slice, or
		// operandsOf would slice out of range below.
		prev := uint32(0)
		for i := range tb.recs {
			end := tb.recs[i].opEnd
			if end < prev || int(end) > len(tb.operands) {
				return nil, analysis.Errorf(analysis.StageFinalize, analysis.InvalidInput,
					"trace: thread %d node %d has corrupt operand offsets (%d after %d, %d recorded)",
					tb.thread, i, end, prev, len(tb.operands)).OnThread(tb.thread)
			}
			prev = end
		}
	}
	// Every operand must name a recorded node: the merge indexes its remap
	// table by (thread, index), so a dangling reference would otherwise be
	// an index-out-of-range crash instead of a diagnosable input error.
	for _, tb := range bufs {
		if tb == nil {
			continue
		}
		for i := range tb.recs {
			for _, src := range tb.operandsOf(i) {
				st, si := unpackProv(src)
				if st >= len(bufs) || bufs[st] == nil || si >= len(bufs[st].recs) {
					return nil, analysis.Errorf(analysis.StageFinalize, analysis.InvalidInput,
						"trace: node (%d,%d) references operand (%d,%d) outside the recorded buffers",
						tb.thread, i, st, si).OnThread(tb.thread)
				}
			}
		}
	}
	fb := ddg.NewFrozenBuilder(total, maxArcs)

	// remap[t][i] is 1 + the final id of provisional node (t, i); 0 (the
	// allocator's zero) means unemitted.
	remap := make([][]ddg.NodeID, len(bufs))
	for t, tb := range bufs {
		if tb != nil {
			remap[t] = make([]ddg.NodeID, len(tb.recs))
		}
	}
	ready := func(tb *threadBuf, i int) bool {
		for _, src := range tb.operandsOf(i) {
			st, si := unpackProv(src)
			if remap[st][si] == 0 {
				return false
			}
		}
		return true
	}

	cursor := make([]int, len(bufs))
	var preds []ddg.NodeID
	for emitted := 0; emitted < total; {
		progress := false
		for t, tb := range bufs {
			if tb == nil {
				continue
			}
			for cursor[t] < len(tb.recs) && ready(tb, cursor[t]) {
				i := cursor[t]
				preds = preds[:0]
				for _, src := range tb.operandsOf(i) {
					st, si := unpackProv(src)
					preds = append(preds, remap[st][si]-1)
				}
				r := &tb.recs[i]
				id := fb.AddNode(r.op, r.pos, tb.thread, r.scope, preds...)
				remap[t][i] = id + 1
				cursor[t]++
				emitted++
				progress = true
			}
		}
		if !progress {
			// Unreachable for real traces (values flow forward in time);
			// reachable only for buffers built outside the VM hot path.
			return nil, analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation,
				"trace: finalize stuck with %d/%d nodes emitted (operand cycle across trace buffers)",
				emitted, total)
		}
	}
	g, err := fb.Finish()
	if err != nil {
		return nil, err
	}
	// Online compaction, part two: the per-thread iteration runs folded at
	// emit time become per-loop iteration indexes over final ids. Buffers
	// recorded without compaction (RunNoCompact, the differential
	// baseline) carry no runs and the graph stays index-free.
	ixs, err := buildIterIndexes(bufs, remap, total)
	if err != nil {
		return nil, err
	}
	if len(ixs) > 0 {
		if err := g.InstallLoopIterIndexes(ixs); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// buildIterIndexes turns the folded per-thread iteration runs into one
// ddg.LoopIterIndex per static loop, over final node ids.
//
// Ordering rules that make the result byte-equivalent to the
// trace-then-compact pipeline (patterns.LoopView's scope-chain path):
//
//   - Keys sort ascending by (invocation, iteration) — exactly LoopView's
//     group order — so bucket-by-ordinal reproduces its output.
//   - Within one thread, runs apply in ascending (start, depth) order and
//     later assignments win: when recursion re-enters the same static
//     loop, a node's innermost enclosing frame — the one Scope.FrameFor
//     reports — starts latest (or ties deepest), so it lands last.
func buildIterIndexes(bufs []*threadBuf, remap [][]ddg.NodeID, total int) ([]*ddg.LoopIterIndex, error) {
	type runRef struct {
		t   int
		run *iterRun
	}
	byLoop := map[mir.LoopID][]runRef{}
	for t, tb := range bufs {
		if tb == nil {
			continue
		}
		tb.closeRuns()
		for i := range tb.runs {
			r := &tb.runs[i]
			byLoop[r.loop] = append(byLoop[r.loop], runRef{t, r})
		}
	}
	if len(byLoop) == 0 {
		return nil, nil
	}
	loops := make([]mir.LoopID, 0, len(byLoop))
	for loop := range byLoop {
		loops = append(loops, loop)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i] < loops[j] })

	type dynKey struct {
		inv  uint64
		iter int64
	}
	out := make([]*ddg.LoopIterIndex, 0, len(loops))
	for _, loop := range loops {
		refs := byLoop[loop]
		keySet := map[dynKey]struct{}{}
		for _, rr := range refs {
			keySet[dynKey{rr.run.inv, rr.run.iter}] = struct{}{}
		}
		keys := make([]ddg.IterationKey, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, ddg.IterationKey{Loop: loop, Invocation: k.inv, Iter: k.iter})
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Invocation != keys[j].Invocation {
				return keys[i].Invocation < keys[j].Invocation
			}
			return keys[i].Iter < keys[j].Iter
		})
		ordOf := make(map[dynKey]int32, len(keys))
		for i, k := range keys {
			ordOf[dynKey{k.Invocation, k.Iter}] = int32(i)
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].t != refs[j].t {
				return refs[i].t < refs[j].t
			}
			if refs[i].run.start != refs[j].run.start {
				return refs[i].run.start < refs[j].run.start
			}
			return refs[i].run.depth < refs[j].run.depth
		})
		ord := make([]int32, total)
		for i := range ord {
			ord[i] = -1
		}
		for _, rr := range refs {
			o := ordOf[dynKey{rr.run.inv, rr.run.iter}]
			for i := rr.run.start; i < rr.run.end; i++ {
				ord[remap[rr.t][i]-1] = o
			}
		}
		ix, err := ddg.NewLoopIterIndex(loop, keys, ord)
		if err != nil {
			return nil, err
		}
		out = append(out, ix)
	}
	return out, nil
}
