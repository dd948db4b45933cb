// Package trace turns instrumented MIR executions into dynamic dataflow
// graphs.
//
// It implements the tracing process of paper §3: every operation execution
// becomes a DDG node, and a shadow memory records, for each heap location,
// the node that defined its current value, so that def-use arcs flow
// through memory transparently. Shadow accesses are synchronized by the
// traced program's own synchronization (happens-before through the VM's
// barriers, joins, and mutexes), which is what makes DDG generation from
// multi-threaded programs seamless.
//
// The tracer is parallel-native: each VM thread records its operations
// into a private append-only buffer, so the node hot path takes no locks
// and tracing scales with the traced program's parallelism. A
// deterministic finalization step merges the buffers into one ddg.Graph,
// assigning node ids by interleaving the per-thread streams in a stable,
// dependency-respecting order — traced DDGs are therefore byte-for-byte
// reproducible whenever the traced program's dataflow is (race-free
// programs with deterministic thread creation order), independently of
// how the Go scheduler interleaved the run.
package trace

import (
	"errors"
	"fmt"
	"sync"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/vm"
)

// Provisional node ids. While tracing, a node is identified by (thread,
// local index) packed into one ddg.NodeID-sized word, so operand and
// shadow-memory bookkeeping needs no global coordination. Finalization
// remaps provisional ids to dense final ids.
const (
	provIndexBits = 24
	provIndexMask = 1<<provIndexBits - 1

	// maxThreads keeps every packed id below ddg.NoNode (thread 255 at
	// index 2^24-1 would collide with the sentinel).
	maxThreads = 255
)

// maxNodesPerThread caps one thread's trace length at the provisional-id
// index width. Reaching it truncates that thread's trace (recording stops,
// the run continues) rather than aborting the execution; a var so tests
// can lower it to exercise the truncation path (see failure_test.go).
var maxNodesPerThread = 1 << provIndexBits

func packProv(thread int32, index int) ddg.NodeID {
	return ddg.NodeID(uint32(thread)<<provIndexBits | uint32(index))
}

func unpackProv(id ddg.NodeID) (thread, index int) {
	return int(id >> provIndexBits), int(id & provIndexMask)
}

// nodeRec is one traced operation execution. opEnd is the end offset of
// the node's operands in the owning buffer's operands slice; node i's
// operands are operands[recs[i-1].opEnd:recs[i].opEnd] (0 for i == 0).
type nodeRec struct {
	op    mir.Op
	pos   mir.Pos
	scope *ddg.Scope
	opEnd uint32
}

// iterRun is one folded loop-iteration run: a maximal range of
// consecutive records [start, end) that executed inside one dynamic
// iteration frame of one static loop. Online compaction maintains these
// incrementally while the thread records (see threadBuf.fold), so
// finalization derives the graph's per-loop iteration indexes from runs
// instead of walking scope chains per node per view. depth is the
// frame's position in the scope chain (outermost 0): when recursion
// nests the same static loop, the deepest run covering a node is the
// frame trace.finalize's index must charge it to, matching
// Scope.FrameFor's innermost-first walk.
type iterRun struct {
	loop  mir.LoopID
	inv   uint64
	iter  int64
	depth int32
	start int32
	end   int32
}

// openFrame is an iteration frame the thread is currently inside: its
// identity (frame pointers are stable for the life of one dynamic
// iteration — NextIter, Enter, and Exit all swap pointers) and the index
// of the first record folded into it.
type openFrame struct {
	frame *ddg.Scope
	start int32
}

// threadBuf is the private trace log of one VM thread: one record per
// executed operation, plus the flattened operand lists (provisional ids,
// NoNode operands dropped at record time). Appends are unsynchronized —
// only the owning thread touches the buffer until the run completes.
type threadBuf struct {
	shadow *shadowMemory
	thread int32

	recs     []nodeRec
	operands []ddg.NodeID

	// truncated is set when the buffer reaches maxNodesPerThread. From then
	// on Node drops records and returns ddg.NoNode, so the execution keeps
	// running and the buffer holds a consistent prefix of the thread's
	// stream (dropped nodes simply become untraced sources downstream).
	truncated bool

	// Online loop-iteration compaction (DESIGN.md §17): the buffer folds
	// its records into per-iteration runs as they are emitted. The hot
	// path cost is one pointer comparison per node — scopes are persistent
	// stacks, so a node in the same iteration as its predecessor carries
	// the identical *Scope and the fold is skipped entirely.
	compact  bool
	curScope *ddg.Scope
	open     []openFrame
	runs     []iterRun
	scratch  []*ddg.Scope
}

// fold updates the open iteration runs for a scope change: runs whose
// frames the new scope left are closed at index, frames it entered open
// new runs there. Frames are compared by pointer — an open frame's
// pointer is kept alive by the open list itself, so address reuse cannot
// confuse identity.
func (b *threadBuf) fold(scope *ddg.Scope, index int) {
	b.scratch = b.scratch[:0]
	for f := scope; f != nil; f = f.Parent {
		b.scratch = append(b.scratch, f)
	}
	// Reverse to outermost-first, mirroring the open list's order.
	for i, j := 0, len(b.scratch)-1; i < j; i, j = i+1, j-1 {
		b.scratch[i], b.scratch[j] = b.scratch[j], b.scratch[i]
	}
	shared := 0
	for shared < len(b.open) && shared < len(b.scratch) && b.open[shared].frame == b.scratch[shared] {
		shared++
	}
	for i := len(b.open) - 1; i >= shared; i-- {
		of := b.open[i]
		if of.start < int32(index) { // frames left without recording stay unmaterialized
			f := of.frame
			b.runs = append(b.runs, iterRun{
				loop: f.Loop, inv: f.Invocation, iter: f.Iter,
				depth: int32(i), start: of.start, end: int32(index),
			})
		}
	}
	b.open = b.open[:shared]
	for i := shared; i < len(b.scratch); i++ {
		b.open = append(b.open, openFrame{frame: b.scratch[i], start: int32(index)})
	}
	b.curScope = scope
}

// closeRuns closes every still-open iteration run at the end of the
// recorded stream. Called by finalization, once the traced execution has
// finished; idempotent.
func (b *threadBuf) closeRuns() {
	n := len(b.recs)
	for i := len(b.open) - 1; i >= 0; i-- {
		of := b.open[i]
		if of.start < int32(n) {
			f := of.frame
			b.runs = append(b.runs, iterRun{
				loop: f.Loop, inv: f.Invocation, iter: f.Iter,
				depth: int32(i), start: of.start, end: int32(n),
			})
		}
	}
	b.open = b.open[:0]
	b.curScope = nil
}

// Node records an operation execution in the thread's buffer and returns
// its provisional id, or ddg.NoNode once the buffer is full.
func (b *threadBuf) Node(op mir.Op, pos mir.Pos, scope *ddg.Scope, operands ...ddg.NodeID) ddg.NodeID {
	index := len(b.recs)
	if index >= maxNodesPerThread {
		b.truncated = true
		return ddg.NoNode
	}
	if b.compact && scope != b.curScope {
		b.fold(scope, index)
	}
	for _, src := range operands {
		if src != ddg.NoNode {
			b.operands = append(b.operands, src)
		}
	}
	b.recs = append(b.recs, nodeRec{op: op, pos: pos, scope: scope, opEnd: uint32(len(b.operands))})
	return packProv(b.thread, index)
}

// operandsOf returns node i's recorded operands.
func (b *threadBuf) operandsOf(i int) []ddg.NodeID {
	start := uint32(0)
	if i > 0 {
		start = b.recs[i-1].opEnd
	}
	return b.operands[start:b.recs[i].opEnd]
}

// LoadShadow returns the defining node of the value at addr.
func (b *threadBuf) LoadShadow(addr int64) ddg.NodeID { return b.shadow.load(addr) }

// StoreShadow records that addr now holds a value defined by def. Storing
// an untraced value (a constant) clears the binding, so stale defining
// nodes never leak through overwritten locations.
func (b *threadBuf) StoreShadow(addr int64, def ddg.NodeID) { b.shadow.store(addr, def) }

// Builder is a vm.Tracer that accumulates per-thread trace buffers and a
// shared paged shadow memory, and merges them into a ddg.Graph once the
// traced execution has finished.
type Builder struct {
	shadow *shadowMemory

	// compact enables online loop-iteration compaction (the default):
	// per-thread buffers fold iteration runs as nodes are emitted and
	// finalization installs ddg.LoopIterIndex tables on the merged graph,
	// so the finder's compacted views group by precomputed ordinals
	// instead of re-deriving the partition from scope chains per view.
	// The graph itself — ops, arcs, scope chains, fingerprint — is
	// byte-identical either way; the differential suite holds the two
	// modes against each other.
	compact bool

	// mu guards the buffer registry only; it is taken once per VM thread
	// (at registration), never per operation.
	mu   sync.Mutex
	bufs []*threadBuf

	g    *ddg.Graph
	gerr error
	done bool
}

// NewBuilder returns an empty trace builder with online compaction on.
func NewBuilder() *Builder {
	return &Builder{shadow: newShadowMemory(), compact: true}
}

// ThreadTracer returns the tracing handle for one VM thread, creating its
// buffer on first use.
func (b *Builder) ThreadTracer(thread int32) vm.ThreadTracer {
	return b.buf(thread)
}

func (b *Builder) buf(thread int32) *threadBuf {
	if thread < 0 || thread >= maxThreads {
		// A structured throw: buf is called from vm.Tracer callbacks with no
		// error return, so the typed error travels as a panic value and
		// vm.Run's recover boundary surfaces it classified, not as a crash.
		panic(analysis.Errorf(analysis.StageTrace, analysis.ResourceExhausted,
			"trace: thread id %d outside the tracer's supported range [0, %d)",
			thread, maxThreads).OnThread(thread))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for int(thread) >= len(b.bufs) {
		b.bufs = append(b.bufs, nil)
	}
	if b.bufs[thread] == nil {
		b.bufs[thread] = &threadBuf{shadow: b.shadow, thread: thread, compact: b.compact}
	}
	return b.bufs[thread]
}

// Node records an operation execution and its def-use arcs on behalf of
// the given thread. It is a convenience for direct (non-VM) use; the VM
// hot path goes through per-thread handles instead.
func (b *Builder) Node(op mir.Op, pos mir.Pos, thread int32, scope *ddg.Scope, operands ...ddg.NodeID) ddg.NodeID {
	return b.buf(thread).Node(op, pos, scope, operands...)
}

// LoadShadow returns the defining node of the value at addr.
func (b *Builder) LoadShadow(addr int64) ddg.NodeID { return b.shadow.load(addr) }

// StoreShadow records that addr now holds a value defined by def.
func (b *Builder) StoreShadow(addr int64, def ddg.NodeID) { b.shadow.store(addr, def) }

// Graph finalizes the per-thread buffers into the merged DDG and returns
// it. It must only be called after the traced execution has finished; the
// first call performs the merge (and freezes the graph into its CSR
// layout) inside a finalize-stage recover boundary, later calls return the
// same outcome. Malformed buffers — dangling operand references, operand
// cycles — come back as *analysis.Error values, never as panics.
func (b *Builder) Graph() (*ddg.Graph, error) {
	if !b.done {
		b.g, b.gerr = finalizeContained(b.bufs)
		b.done = true
	}
	return b.g, b.gerr
}

// finalizeContained runs the buffer merge under a recover boundary, so an
// internal bug in the merge degrades to a structured error.
func finalizeContained(bufs []*threadBuf) (g *ddg.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, analysis.Recovered(analysis.StageFinalize, r)
		}
	}()
	return finalize(bufs)
}

// Truncated lists the VM threads whose buffers hit the per-thread node
// limit, in ascending id order; their traces are consistent prefixes.
func (b *Builder) Truncated() []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ts []int32
	for _, tb := range b.bufs {
		if tb != nil && tb.truncated {
			ts = append(ts, tb.thread)
		}
	}
	return ts
}

// Result bundles the outcome of a traced execution.
type Result struct {
	Graph  *ddg.Graph
	Return mir.Value
	Ops    int64
	// TruncatedThreads lists the VM threads whose trace buffers reached the
	// per-thread node limit. Their streams are consistent prefixes, so the
	// graph is a well-formed partial DDG of the execution rather than the
	// full one; patterns found in it are still real, coverage is not.
	TruncatedThreads []int32
}

// Degraded reports whether the trace is partial.
func (r *Result) Degraded() bool { return len(r.TruncatedThreads) > 0 }

// Diagnostic returns a ResourceExhausted error describing the truncation,
// or nil for a complete trace. It is advisory — the kind of failure that
// belongs in report.Diagnostics next to the graph, not one that voids it.
func (r *Result) Diagnostic() *analysis.Error {
	if !r.Degraded() {
		return nil
	}
	return analysis.Errorf(analysis.StageTrace, analysis.ResourceExhausted,
		"trace truncated: %d thread(s) %v reached the %d-node buffer limit; the DDG is a consistent prefix of the execution",
		len(r.TruncatedThreads), r.TruncatedThreads, maxNodesPerThread).OnThread(r.TruncatedThreads[0])
}

// Run executes the program under instrumentation and returns its DDG, its
// return value, and the number of operations executed. Invalid programs,
// runtime failures, contained panics, and malformed traces all surface as
// errors; a trace cut short by the per-thread buffer limit is not an error
// but is reported through Result.TruncatedThreads.
func Run(prog *mir.Program, opts ...vm.Option) (*Result, error) {
	return runWith(NewBuilder(), prog, opts...)
}

// RunNoCompact is Run with online loop-iteration compaction disabled:
// the trace-then-compact baseline. The returned graph is byte-identical
// to Run's (same ops, arcs, scope chains, fingerprint) but carries no
// iteration indexes, so downstream compacted views re-derive their
// grouping from the scope chains. It is the reference the compaction
// differential tests compare against; production paths use Run.
func RunNoCompact(prog *mir.Program, opts ...vm.Option) (*Result, error) {
	return runWith(&Builder{shadow: newShadowMemory()}, prog, opts...)
}

func runWith(b *Builder, prog *mir.Program, opts ...vm.Option) (*Result, error) {
	opts = append([]vm.Option{vm.WithTracer(b)}, opts...)
	m, err := vm.New(prog, opts...)
	if err != nil {
		return nil, err
	}
	ret, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("trace: running %q: %w", prog.Name, err)
	}
	// No CheckAcyclic pass: finalization emits predecessor-first into a
	// ddg.FrozenBuilder, which rejects any arc that does not flow forward,
	// so the merged DDG is acyclic by construction.
	g, err := b.Graph()
	if err != nil {
		var ae *analysis.Error
		if errors.As(err, &ae) {
			ae.InProgram(prog.Name)
		}
		return nil, err
	}
	return &Result{Graph: g, Return: ret, Ops: m.Ops(), TruncatedThreads: b.Truncated()}, nil
}
