package trace

import (
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
// is acyclic by construction.
//
// Each buffer's position and scope tables are appended to the graph's in
// thread order, so the merged tables, like the ids, depend only on the
// buffer contents.
//
// Buffers produced by the VM hot path are well-formed by construction, but
// finalize also accepts buffers rebuilt from external graphs (the
// equivalence tests' Canonicalize) and fuzzed ones, so it validates
// shape up front and returns typed errors — InvalidInput for malformed
// buffers or out-of-table ids, InvariantViolation for an operand cycle —
// instead of crashing.
func finalize(bufs []*threadBuf) (*ddg.Graph, error) {
	total, maxArcs, npos, nscopes := 0, 0, 0, 0
	for _, tb := range bufs {
		if tb == nil {
			continue
		}
		total += tb.recs.n
		maxArcs += tb.operands.n
		npos += len(tb.pos)
		nscopes += tb.scopes.n
		// Operand offsets must be monotone and within the operand stream,
		// and table ids within the thread's tables, or the merge below
		// would index out of range.
		prev := uint32(0)
		for i := 0; i < tb.recs.n; i++ {
			r := tb.recs.at(i)
			if r.opEnd < prev || int(r.opEnd) > tb.operands.n {
				return nil, analysis.Errorf(analysis.StageFinalize, analysis.InvalidInput,
					"trace: thread %d node %d has corrupt operand offsets (%d after %d, %d recorded)",
					tb.thread, i, r.opEnd, prev, tb.operands.n).OnThread(tb.thread)
			}
			if int(r.pos) >= len(tb.pos) || int(r.scope) >= tb.scopes.n {
				return nil, analysis.Errorf(analysis.StageFinalize, analysis.InvalidInput,
					"trace: thread %d node %d names position %d of %d or scope %d of %d",
					tb.thread, i, r.pos, len(tb.pos), r.scope, tb.scopes.n).OnThread(tb.thread)
			}
			prev = r.opEnd
		}
	}
	// Every operand must name a recorded node: the merge indexes its remap
	// table by (thread, index), so a dangling reference would otherwise be
	// an index-out-of-range crash instead of a diagnosable input error.
	for _, tb := range bufs {
		if tb == nil {
			continue
		}
		for i := 0; i < tb.recs.n; i++ {
			start, end := tb.operandRange(i)
			for j := start; j < end; j++ {
				st, si := unpackProv(*tb.operands.at(j))
				if st >= len(bufs) || bufs[st] == nil || si >= bufs[st].recs.n {
					return nil, analysis.Errorf(analysis.StageFinalize, analysis.InvalidInput,
						"trace: node (%d,%d) references operand (%d,%d) outside the recorded buffers",
						tb.thread, i, st, si).OnThread(tb.thread)
				}
			}
		}
	}
	// The per-thread tables are concatenated in thread order, so a
	// record's ids become global by adding its thread's bases.
	pos := make([]mir.Pos, 0, npos)
	scopes := make([]*ddg.Scope, 0, nscopes)
	posBase := make([]uint32, len(bufs))
	scopeBase := make([]uint32, len(bufs))
	// remap[t][i] is 1 + the final id of provisional node (t, i); 0 (the
	// allocator's zero) means unemitted.
	remap := make([][]ddg.NodeID, len(bufs))
	for t, tb := range bufs {
		if tb != nil {
			posBase[t], scopeBase[t] = uint32(len(pos)), uint32(len(scopes))
			pos = append(pos, tb.pos...)
			for k := range tb.scopes.c {
				scopes = append(scopes, tb.scopes.filled(k)...)
			}
			remap[t] = make([]ddg.NodeID, tb.recs.n)
		}
	}
	fb := ddg.NewFrozenBuilder(total, maxArcs)
	fb.UseTables(pos, scopes)
	ready := func(tb *threadBuf, i int) bool {
		start, end := tb.operandRange(i)
		for j := start; j < end; j++ {
			st, si := unpackProv(*tb.operands.at(j))
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
			for cursor[t] < tb.recs.n && ready(tb, cursor[t]) {
				i := cursor[t]
				preds = preds[:0]
				start, end := tb.operandRange(i)
				for j := start; j < end; j++ {
					st, si := unpackProv(*tb.operands.at(j))
					preds = append(preds, remap[st][si]-1)
				}
				r := tb.recs.at(i)
				id := fb.AddNode(r.op, posBase[t]+r.pos, tb.thread, scopeBase[t]+r.scope, preds...)
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
	return fb.Finish()
}
