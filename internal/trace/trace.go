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

// nodeRec is one traced operation execution: 16 bytes and no pointers,
// so the garbage collector never scans a trace buffer. pos and scope are
// ids into the owning buffer's intern tables; opEnd is the end offset of
// the node's operands in the buffer's operand stream, so node i's
// operands are operands[recs[i-1].opEnd:recs[i].opEnd] (from 0 for
// i == 0).
type nodeRec struct {
	op    mir.Op
	pos   uint32
	scope uint32
	opEnd uint32
}

// Trace buffers grow in chunks of chunkLen elements.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// chunks is an append-only sequence kept in fixed-size chunks, so growing
// it never copies or re-zeroes what it already holds.
type chunks[T any] struct {
	c [][]T
	n int
}

func (s *chunks[T]) push(v T) {
	if s.n>>chunkBits == len(s.c) {
		s.c = append(s.c, make([]T, chunkLen))
	}
	s.c[s.n>>chunkBits][s.n&chunkMask] = v
	s.n++
}

// at returns element i, which must be below s.n.
func (s *chunks[T]) at(i int) *T { return &s.c[i>>chunkBits][i&chunkMask] }

// filled returns chunk k's elements, which are those below s.n.
func (s *chunks[T]) filled(k int) []T {
	return s.c[k][:min(chunkLen, s.n-k<<chunkBits)]
}

// maxLineTable bounds the per-file line tables; positions on later (or
// negative) lines get a fresh id on each occurrence instead of a slot.
const maxLineTable = 1 << 20

// threadBuf is the private trace log of one VM thread: one record per
// executed operation, the flattened operand lists (provisional ids,
// NoNode operands dropped at record time), and the tables of distinct
// positions and scopes the records name by id. Appends are
// unsynchronized — only the owning thread touches the buffer until the
// run completes.
type threadBuf struct {
	shadow *shadowMemory
	thread int32

	recs     chunks[nodeRec]
	operands chunks[ddg.NodeID]

	// pos is the position table. lines maps each file to a line-indexed
	// table of 1 + the id of that line's position (0: none yet); file and
	// fileLines cache the last file's entry, so interning a position
	// hashes a string only when the file changes.
	pos       []mir.Pos
	lines     map[string][]uint32
	file      string
	fileLines []uint32

	// scopes is the scope table, one entry per loop iteration or so,
	// chunked like the records. A thread's scope changes only at loop
	// boundaries, so a node whose scope is the last entry reuses its id
	// and any other scope is appended; a scope re-entered later may get a
	// second id, which names the same frame.
	scopes chunks[*ddg.Scope]

	// truncated is set when the buffer reaches maxNodesPerThread. From then
	// on Node drops records and returns ddg.NoNode, so the execution keeps
	// running and the buffer holds a consistent prefix of the thread's
	// stream (dropped nodes simply become untraced sources downstream).
	truncated bool
}

// Node records an operation execution in the thread's buffer and returns
// its provisional id, or ddg.NoNode once the buffer is full.
func (b *threadBuf) Node(op mir.Op, pos mir.Pos, scope *ddg.Scope, x, y ddg.NodeID) ddg.NodeID {
	index := b.recs.n
	if index >= maxNodesPerThread {
		b.truncated = true
		return ddg.NoNode
	}
	if x != ddg.NoNode {
		b.operands.push(x)
	}
	if y != ddg.NoNode {
		b.operands.push(y)
	}
	b.recs.push(nodeRec{op: op, pos: b.posID(pos), scope: b.scopeID(scope), opEnd: uint32(b.operands.n)})
	return packProv(b.thread, index)
}

// posID interns p in the position table.
func (b *threadBuf) posID(p mir.Pos) uint32 {
	if p.File != b.file || b.lines == nil {
		if b.lines == nil {
			b.lines = map[string][]uint32{}
		}
		b.lines[b.file] = b.fileLines
		b.file, b.fileLines = p.File, b.lines[p.File]
	}
	if uint(p.Line) < uint(len(b.fileLines)) {
		if id := b.fileLines[p.Line]; id != 0 {
			return id - 1
		}
	}
	id := uint32(len(b.pos))
	b.pos = append(b.pos, p)
	if uint(p.Line) < maxLineTable {
		if n := p.Line + 1 - len(b.fileLines); n > 0 {
			b.fileLines = append(b.fileLines, make([]uint32, n)...)
		}
		b.fileLines[p.Line] = id + 1
	}
	return id
}

// scopeID interns s in the scope table.
func (b *threadBuf) scopeID(s *ddg.Scope) uint32 {
	if n := b.scopes.n; n > 0 && *b.scopes.at(n - 1) == s {
		return uint32(n - 1)
	}
	b.scopes.push(s)
	return uint32(b.scopes.n - 1)
}

// operandRange returns the bounds of node i's operands in the operand
// stream.
func (b *threadBuf) operandRange(i int) (start, end int) {
	if i > 0 {
		start = int(b.recs.at(i - 1).opEnd)
	}
	return start, int(b.recs.at(i).opEnd)
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

	// mu guards the buffer registry only; it is taken once per VM thread
	// (at registration), never per operation.
	mu   sync.Mutex
	bufs []*threadBuf

	g    *ddg.Graph
	gerr error
	done bool
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder {
	return &Builder{shadow: newShadowMemory()}
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
		b.bufs[thread] = &threadBuf{shadow: b.shadow, thread: thread}
	}
	return b.bufs[thread]
}

// Node records an operation execution and its def-use arcs on behalf of
// the given thread. It is a convenience for direct (non-VM) use; the VM
// hot path goes through per-thread handles instead.
func (b *Builder) Node(op mir.Op, pos mir.Pos, thread int32, scope *ddg.Scope, x, y ddg.NodeID) ddg.NodeID {
	return b.buf(thread).Node(op, pos, scope, x, y)
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
	b := NewBuilder()
	opts = append([]vm.Option{vm.WithTracer(b)}, opts...)
	m, err := vm.New(prog, opts...)
	if err != nil {
		return nil, err
	}
	ret, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("trace: running %q: %w", prog.Name, err)
	}
	// Finalization emits predecessor-first into a ddg.FrozenBuilder, which
	// rejects any arc that does not flow forward, so the merged DDG is
	// acyclic by construction.
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
