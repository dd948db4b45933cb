package trace

// Failure-path tests for finalization and truncation: malformed buffers
// come back as typed errors, truncated traces degrade to consistent
// prefix graphs, and foreign graphs are rejected by Canonicalize.

import (
	"errors"
	"strings"
	"testing"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// setMaxNodesPerThread lowers the per-thread buffer cap for one test and
// restores it on cleanup. Tests that call it must not run in parallel.
func setMaxNodesPerThread(t *testing.T, n int) {
	t.Helper()
	old := maxNodesPerThread
	maxNodesPerThread = n
	t.Cleanup(func() { maxNodesPerThread = old })
}

func wantAnalysisError(t *testing.T, err error, sentinel *analysis.Error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want kind %v", err, sentinel.Kind)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("err = %v, want substring %q", err, substr)
	}
}

// appendRec appends one record with the given operands to tb, naming the
// zero position and the nil scope. opEnd is stored as given, so a test can
// corrupt it.
func appendRec(tb *threadBuf, opEnd uint32, operands ...ddg.NodeID) {
	for _, o := range operands {
		tb.operands.push(o)
	}
	tb.recs.push(nodeRec{op: mir.OpAdd, pos: tb.posID(mir.Pos{}), scope: tb.scopeID(nil), opEnd: opEnd})
}

func TestFinalizeRejectsCorruptOffsets(t *testing.T) {
	tb := &threadBuf{thread: 0}
	appendRec(tb, 7) // 7 > len(operands)
	_, err := finalize([]*threadBuf{tb})
	wantAnalysisError(t, err, analysis.ErrInvalidInput, "corrupt operand offsets")
}

func TestFinalizeRejectsDanglingOperand(t *testing.T) {
	tb := &threadBuf{thread: 0}
	appendRec(tb, 1, packProv(3, 0)) // thread 3 recorded nothing
	_, err := finalize([]*threadBuf{tb})
	wantAnalysisError(t, err, analysis.ErrInvalidInput, "outside the recorded buffers")
}

func TestFinalizeRejectsUnknownTableID(t *testing.T) {
	for _, corrupt := range []func(r *nodeRec){
		func(r *nodeRec) { r.pos = 1 },
		func(r *nodeRec) { r.scope = 5 },
	} {
		tb := &threadBuf{thread: 0}
		appendRec(tb, 0)
		corrupt(tb.recs.at(0)) // the thread's tables hold one entry each
		_, err := finalize([]*threadBuf{tb})
		wantAnalysisError(t, err, analysis.ErrInvalidInput, "names position")
	}
}

func TestFinalizeStuckOnOperandCycle(t *testing.T) {
	// Each thread's only node depends on the other's: no real execution
	// can record this, and the merge must diagnose it rather than spin.
	a := &threadBuf{thread: 0}
	appendRec(a, 1, packProv(1, 0))
	b := &threadBuf{thread: 1}
	appendRec(b, 1, packProv(0, 0))
	_, err := finalize([]*threadBuf{a, b})
	wantAnalysisError(t, err, analysis.ErrInvariantViolation, "stuck")
}

func TestBuilderGraphErrorMemoized(t *testing.T) {
	b := NewBuilder()
	tb := b.buf(0)
	appendRec(tb, 9)
	_, err1 := b.Graph()
	_, err2 := b.Graph()
	if err1 == nil || err1 != err2 {
		t.Fatalf("Graph() did not memoize the failure: %v vs %v", err1, err2)
	}
}

func TestBuilderRejectsForeignThreadID(t *testing.T) {
	b := NewBuilder()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-range thread id accepted")
		}
		// The panic value is a structured throw: a typed error the VM's
		// recover boundary surfaces classified instead of as a crash.
		ae, ok := r.(*analysis.Error)
		if !ok {
			t.Fatalf("panic value is %T, want *analysis.Error", r)
		}
		if !errors.Is(ae, analysis.ErrResourceExhausted) || ae.Stage != analysis.StageTrace {
			t.Fatalf("panic value misclassified: %v", ae)
		}
	}()
	b.Node(mir.OpAdd, mir.Pos{}, maxThreads, nil, ddg.NoNode, ddg.NoNode)
}

func TestTruncatedTraceDegradesGracefully(t *testing.T) {
	setMaxNodesPerThread(t, 16)
	res, err := Run(seqReduction(8))
	if err != nil {
		t.Fatalf("a truncated trace must still finalize: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("run not reported as degraded")
	}
	if len(res.TruncatedThreads) != 1 || res.TruncatedThreads[0] != 0 {
		t.Fatalf("TruncatedThreads = %v, want [0]", res.TruncatedThreads)
	}
	d := res.Diagnostic()
	if d == nil || !errors.Is(d, analysis.ErrResourceExhausted) {
		t.Fatalf("Diagnostic() = %v, want ResourceExhausted", d)
	}
	if !strings.Contains(d.Error(), "consistent prefix") {
		t.Fatalf("diagnostic does not explain the degradation: %v", d)
	}
	// The partial graph is exactly the recorded prefix, and well-formed.
	if res.Graph.NumNodes() != 16 {
		t.Fatalf("graph has %d nodes, want the 16-node prefix", res.Graph.NumNodes())
	}
	if err := res.Graph.CheckInvariants(); err != nil {
		t.Fatalf("truncated graph violates invariants: %v", err)
	}
}

func TestCompleteTraceHasNoDiagnostic(t *testing.T) {
	res, err := Run(seqReduction(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() || res.Diagnostic() != nil {
		t.Fatalf("complete trace reported degraded: %v", res.Diagnostic())
	}
}

func TestCanonicalizeRejectsForeignThread(t *testing.T) {
	fb := ddg.NewFrozenBuilder(1, 0)
	fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 300, fb.ScopeID(nil)) // beyond maxThreads
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Canonicalize(g)
	wantAnalysisError(t, err, analysis.ErrInvalidInput, "thread id")
}

func TestCanonicalizeRejectsOversizedStream(t *testing.T) {
	setMaxNodesPerThread(t, 4)
	fb := ddg.NewFrozenBuilder(5, 0)
	for i := 0; i < 5; i++ {
		fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil))
	}
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Canonicalize(g)
	wantAnalysisError(t, err, analysis.ErrResourceExhausted, "exceeds")
}
