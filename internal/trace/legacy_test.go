package trace

// The independent reference the tracer's equivalence tests compare
// against: the original single-lock tracer and the renumbering that maps
// its graphs onto the per-thread tracer's canonical order. Both live in a
// _test.go file of package trace, so the external trace_test package sees
// them while production builds carry one tracer only.

import (
	"fmt"
	"sync"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/vm"
)

// LegacyBuilder is the original single-lock tracer: every node creation
// serializes through one global mutex and the shadow memory is a sharded
// map. It is the reference the parallel-native Builder is validated
// against: same DDG up to the deterministic renumbering (see Canonicalize).
type LegacyBuilder struct {
	mu sync.Mutex
	fb *ddg.FrozenBuilder

	shards [legacyShardCount]legacyShadowShard
}

const legacyShardCount = 64

type legacyShadowShard struct {
	mu sync.Mutex
	m  map[int64]ddg.NodeID
}

// NewLegacyBuilder returns an empty single-lock trace builder.
func NewLegacyBuilder() *LegacyBuilder {
	b := &LegacyBuilder{fb: ddg.NewFrozenBuilder(1024, 1024)}
	for i := range b.shards {
		b.shards[i].m = map[int64]ddg.NodeID{}
	}
	return b
}

// ThreadTracer returns a handle that forwards to the shared single-lock
// state, tagging nodes with the thread id.
func (b *LegacyBuilder) ThreadTracer(thread int32) vm.ThreadTracer {
	return &legacyThreadTracer{b: b, thread: thread}
}

type legacyThreadTracer struct {
	b      *LegacyBuilder
	thread int32
}

func (t *legacyThreadTracer) Node(op mir.Op, pos mir.Pos, scope *ddg.Scope, x, y ddg.NodeID) ddg.NodeID {
	return t.b.Node(op, pos, t.thread, scope, x, y)
}

func (t *legacyThreadTracer) LoadShadow(addr int64) ddg.NodeID { return t.b.LoadShadow(addr) }

func (t *legacyThreadTracer) StoreShadow(addr int64, def ddg.NodeID) { t.b.StoreShadow(addr, def) }

// Node records an operation execution and its def-use arcs under the
// global trace lock. Ids follow global execution order, so every operand
// already has one: the nodes stream straight into the FrozenBuilder.
func (b *LegacyBuilder) Node(op mir.Op, pos mir.Pos, thread int32, scope *ddg.Scope, x, y ddg.NodeID) ddg.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fb.AddNode(op, b.fb.PosID(pos), thread, b.fb.ScopeID(scope), x, y)
}

// LoadShadow returns the defining node of the value at addr.
func (b *LegacyBuilder) LoadShadow(addr int64) ddg.NodeID {
	s := &b.shards[uint64(addr)%legacyShardCount]
	s.mu.Lock()
	defer s.mu.Unlock()
	if def, ok := s.m[addr]; ok {
		return def
	}
	return ddg.NoNode
}

// StoreShadow records that addr now holds a value defined by def; a
// ddg.NoNode def clears the binding.
func (b *LegacyBuilder) StoreShadow(addr int64, def ddg.NodeID) {
	s := &b.shards[uint64(addr)%legacyShardCount]
	s.mu.Lock()
	defer s.mu.Unlock()
	if def == ddg.NoNode {
		delete(s.m, addr)
		return
	}
	s.m[addr] = def
}

// Graph finishes and returns the accumulated DDG. It must be called once,
// after the traced execution has finished. Legacy graphs assign node ids
// in global execution order, so for multi-threaded programs the numbering
// depends on the scheduler interleaving (the dataflow shape does not).
func (b *LegacyBuilder) Graph() (*ddg.Graph, error) { return b.fb.Finish() }

// RunLegacy executes the program under the single-lock tracer.
func RunLegacy(prog *mir.Program, opts ...vm.Option) (*Result, error) {
	b := NewLegacyBuilder()
	opts = append([]vm.Option{vm.WithTracer(b)}, opts...)
	m, err := vm.New(prog, opts...)
	if err != nil {
		return nil, err
	}
	ret, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("trace: running %q (legacy): %w", prog.Name, err)
	}
	g, err := b.Graph()
	if err == nil {
		err = g.CheckInvariants()
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %q produced a malformed DDG (legacy): %w", prog.Name, err)
	}
	return &Result{Graph: g, Return: ret, Ops: m.Ops()}, nil
}

// Canonicalize renumbers a traced DDG into the deterministic order that
// finalize produces: per-thread streams (taken in ascending node-id
// order, which for an execution-ordered graph is each thread's program
// order) interleaved by the same ready-run merge. Graphs produced by the
// per-thread tracer are already canonical, so Canonicalize is the
// identity on them; applying it to a legacy global-lock trace yields the
// exact graph the per-thread tracer builds for the same execution, which
// is how the equivalence tests compare the two tracers. Graphs that the
// per-thread tracer could not have produced — thread ids or per-thread
// stream lengths outside the provisional-id space — are rejected with an
// InvalidInput error.
func Canonicalize(g *ddg.Graph) (*ddg.Graph, error) {
	n := g.NumNodes()
	// Rebuild pseudo-buffers: assign each node a provisional id from its
	// (thread, per-thread order) and re-record its operands (preds are
	// stored in operand order).
	prov := make([]ddg.NodeID, n)
	var bufs []*threadBuf
	for i := 0; i < n; i++ {
		u := ddg.NodeID(i)
		t := g.Thread(u)
		if t < 0 || t >= maxThreads {
			return nil, analysis.Errorf(analysis.StageFinalize, analysis.InvalidInput,
				"trace: Canonicalize: node %d has thread id %d outside [0, %d)", u, t, maxThreads).OnThread(t)
		}
		for int(t) >= len(bufs) {
			bufs = append(bufs, nil)
		}
		if bufs[t] == nil {
			bufs[t] = &threadBuf{thread: t}
		}
		tb := bufs[t]
		if tb.recs.n >= maxNodesPerThread {
			return nil, analysis.Errorf(analysis.StageFinalize, analysis.ResourceExhausted,
				"trace: Canonicalize: thread %d stream exceeds %d nodes", t, maxNodesPerThread).OnThread(t)
		}
		prov[u] = packProv(t, tb.recs.n)
		tb.recs.push(nodeRec{op: g.Op(u), pos: tb.posID(g.Pos(u)), scope: tb.scopeID(g.ScopeOf(u))})
	}
	for i := 0; i < n; i++ {
		u := ddg.NodeID(i)
		tb := bufs[g.Thread(u)]
		for _, p := range g.Preds(u) {
			tb.operands.push(prov[p])
		}
		_, idx := unpackProv(prov[u])
		tb.recs.at(idx).opEnd = uint32(tb.operands.n)
	}
	return finalize(bufs)
}
