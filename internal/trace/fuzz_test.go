package trace

// FuzzFinalize drives the buffer merge with adversarial per-thread
// buffers: dangling operand references, corrupt operand offsets, operand
// cycles, self-references, position and scope ids outside the thread's
// tables. Finalize must either return a typed
// *analysis.Error or produce a graph that passes full invariant checking
// — it must never panic and never hang.

import (
	"errors"
	"testing"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// buildFuzzBufs decodes a byte stream into per-thread trace buffers whose
// shape is entirely attacker-controlled.
func buildFuzzBufs(data []byte) []*threadBuf {
	const nThreads = 3
	bufs := make([]*threadBuf, nThreads)
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	scope := (*ddg.Scope)(nil).Enter(1, 1)
	scopes := []*ddg.Scope{nil, scope, scope.NextIter()}
	nRecords := int(next()) % 24
	for i := 0; i < nRecords; i++ {
		th := int32(next()) % nThreads
		if bufs[th] == nil {
			bufs[th] = &threadBuf{thread: th}
		}
		tb := bufs[th]
		ctl := next()
		for j := 0; j < int(ctl)%4; j++ {
			// Operand thread may point one past the buffer range, and the
			// index may exceed what the target thread records: both must be
			// caught by up-front validation, not by an index panic.
			ot := int32(next()) % (nThreads + 1)
			oi := int(next()) % 8
			tb.operands.push(packProv(ot, oi))
		}
		end := uint32(tb.operands.n)
		if ctl&0x80 != 0 {
			end += uint32(next()) % 5 // corrupt the offset occasionally
		}
		sel := next()
		pos := tb.posID(mir.Pos{File: "f.c", Line: 1 + int(sel%4)})
		sc := tb.scopeID(scopes[int(sel>>2)%len(scopes)])
		if ctl&0x40 != 0 {
			// Raw ids, which may lie past the thread's tables.
			pos, sc = uint32(sel%8), uint32(sel>>3%8)
		}
		tb.recs.push(nodeRec{op: mir.OpAdd, pos: pos, scope: sc, opEnd: end})
	}
	return bufs
}

func FuzzFinalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 2, 1, 1, 0}) // simple cross-thread chain
	f.Add([]byte{2, 0, 1, 3, 0, 0, 1, 2, 0, 1}) // dangling references
	f.Add([]byte{2, 0, 1, 1, 0, 1, 1, 0, 0})    // mutual dependency
	f.Add([]byte{1, 0, 0x81, 0xff})             // corrupt offset
	f.Add([]byte{9, 0, 2, 0, 0, 0, 1, 1, 1, 1, 0, 2, 2, 2, 0, 0, 1, 0})
	f.Add([]byte{2, 0, 0, 5, 0, 0x40, 0x3f})       // out-of-table ids
	f.Add([]byte{2, 1, 0, 4, 1, 0x41, 1, 0, 0x09}) // raw ids within the tables
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := finalize(buildFuzzBufs(data))
		if err != nil {
			var ae *analysis.Error
			if !errors.As(err, &ae) {
				t.Fatalf("finalize returned an untyped error: %v", err)
			}
			if ae.Stage != analysis.StageFinalize {
				t.Fatalf("finalize error carries stage %v: %v", ae.Stage, ae)
			}
			return
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("accepted buffers produced an invalid graph: %v", err)
		}
	})
}
