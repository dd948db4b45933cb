// Package vm executes MIR programs on a shared-memory virtual machine with
// real (goroutine-backed) threads, barriers, and mutexes.
//
// The machine plays the role of the instrumented binary in the paper's
// Figure 1: a Tracer observes every operation execution, every shadow
// memory update, and the dynamic loop scope in which each operation runs.
// With a nil tracer the machine is a plain interpreter, used to validate
// benchmark kernels at reference scale.
package vm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/pagetab"
)

// Tracer observes an instrumented execution. The machine asks it for one
// ThreadTracer per VM thread at thread registration; all per-operation
// tracing then goes through that handle, so a tracer can keep unshared
// per-thread state on the hot path (the trace package records into
// per-thread append-only buffers and merges them after the run).
type Tracer interface {
	// ThreadTracer returns the tracing handle for the given VM thread. It
	// is called once per thread, from the thread that spawns it; the
	// returned handle is used only by the registered thread.
	ThreadTracer(thread int32) ThreadTracer
}

// ThreadTracer observes the operations of one VM thread. The shadow
// memory behind LoadShadow/StoreShadow is shared between all threads of a
// tracer; implementations synchronize those accesses the same way the
// traced program synchronizes the underlying memory (the analogue of the
// paper's synchronized shadow memory, §3).
type ThreadTracer interface {
	// Node records the execution of an operation with operands x and y,
	// returning the new node id. Operand ids are ddg.NoNode for constant
	// or untraced inputs and for the absent y of a unary operation.
	Node(op mir.Op, pos mir.Pos, scope *ddg.Scope, x, y ddg.NodeID) ddg.NodeID
	// LoadShadow returns the node that defined the value at addr, or
	// ddg.NoNode if the location was never traced.
	LoadShadow(addr int64) ddg.NodeID
	// StoreShadow records that the value at addr was defined by def.
	StoreShadow(addr int64, def ddg.NodeID)
}

// Machine executes one program. A Machine is single-use: create, Run,
// inspect.
type Machine struct {
	prog   *mir.Program
	tracer Tracer

	// The heap is a paged flat address space: loads and stores of mapped
	// cells are lock-free array indexings, and only mapping a fresh page
	// takes a lock. Benchmarks are data-race free by construction
	// (disjoint writes between synchronization points), so cells need no
	// per-cell locking; heapSize is the allocation frontier used for
	// bounds checks.
	heap     *pagetab.Table[mir.Value]
	heapSize atomic.Int64

	statics map[string]int64

	barriers map[string]*barrier
	mutexes  map[string]*sync.Mutex

	threadsMu  sync.Mutex
	nextThread int32
	threads    map[int32]*threadState
	wg         sync.WaitGroup

	ops    atomic.Int64
	maxOps int64

	errMu    sync.Mutex
	firstErr error
}

type threadState struct {
	id   int32
	done chan struct{}
	err  error
}

// Option configures a Machine.
type Option func(*Machine)

// WithTracer attaches a tracer to the machine.
func WithTracer(t Tracer) Option {
	return func(m *Machine) { m.tracer = t }
}

// WithMaxOps bounds the total number of executed operations, guarding
// against runaway kernels. The default is 2e9.
func WithMaxOps(n int64) Option {
	return func(m *Machine) { m.maxOps = n }
}

// New creates a machine for the program. A program that fails validation
// is rejected with a verify-stage InvalidInput error carrying every
// validation failure; the machine never executes unvalidated input. Static
// arrays are allocated in declaration order starting at address 0.
func New(prog *mir.Program, opts ...Option) (*Machine, error) {
	if errs := prog.Validate(); len(errs) > 0 {
		return nil, analysis.Wrap(analysis.StageVerify, analysis.InvalidInput,
			errors.Join(errs...), "vm: invalid program").InProgram(prog.Name)
	}
	prog.Layout()
	m := &Machine{
		prog:     prog,
		statics:  map[string]int64{},
		barriers: map[string]*barrier{},
		mutexes:  map[string]*sync.Mutex{},
		threads:  map[int32]*threadState{},
		maxOps:   2_000_000_000,
	}
	for _, opt := range opts {
		opt(m)
	}
	var base int64
	for _, s := range prog.Statics {
		m.statics[s.Name] = base
		base += s.Size
	}
	m.heap = pagetab.New(mir.Value{})
	m.heapSize.Store(base)
	for name, n := range prog.Barriers {
		m.barriers[name] = newBarrier(n)
	}
	for _, name := range prog.Mutexes {
		m.mutexes[name] = &sync.Mutex{}
	}
	return m, nil
}

// StaticBase returns the heap address of a declared static array, or an
// InvalidInput error naming the unknown static.
func (m *Machine) StaticBase(name string) (int64, error) {
	base, ok := m.statics[name]
	if !ok {
		return 0, analysis.Errorf(analysis.StageExecute, analysis.InvalidInput,
			"vm: unknown static %q", name).InProgram(m.prog.Name)
	}
	return base, nil
}

// HeapAt returns the heap value at addr (for inspection after Run), or an
// InvalidInput error for an address outside the allocated heap.
func (m *Machine) HeapAt(addr int64) (mir.Value, error) {
	if addr < 0 || addr >= m.heapSize.Load() {
		return mir.Value{}, analysis.Errorf(analysis.StageExecute, analysis.InvalidInput,
			"vm: HeapAt(%d) out of bounds of %d-cell heap", addr, m.heapSize.Load()).InProgram(m.prog.Name)
	}
	return m.heap.Get(addr), nil
}

// Ops returns the number of operations executed. Threads publish their
// counts in batches, so the value is exact only once Run has returned.
func (m *Machine) Ops() int64 { return m.ops.Load() }

// Run executes the entry function on thread 0 and waits for every spawned
// thread to finish. It returns the entry function's return value (the zero
// Value if it returns nothing) and the first error raised by any thread.
//
// Run is a recover boundary: a panic escaping the interpreter or an
// attached tracer — on the main thread or any spawned one — is converted
// into a structured execute-stage error instead of crashing the process.
// Runtime failures (out-of-bounds access, division by zero, budget
// exhaustion) come back as *analysis.Error values classifiable with
// errors.Is.
func (m *Machine) Run() (ret mir.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			ret, err = mir.Value{}, m.classify(analysis.Recovered(analysis.StageExecute, r))
		}
	}()
	entry := m.prog.Funcs[m.prog.Entry]
	if entry == nil {
		return mir.Value{}, analysis.Errorf(analysis.StageVerify, analysis.InvalidInput,
			"vm: entry function %q not defined", m.prog.Entry).InProgram(m.prog.Name)
	}
	t0 := m.registerThread()
	rv, err := m.runThread(t0, entry, nil)
	m.wg.Wait()
	if err != nil {
		return mir.Value{}, m.classify(err)
	}
	m.errMu.Lock()
	defer m.errMu.Unlock()
	if m.firstErr != nil {
		return mir.Value{}, m.classify(m.firstErr)
	}
	return rv.v, nil
}

// runThread executes fn on thread t inside the thread's own recover
// boundary (each goroutine has its own stack, so every VM thread needs
// one) and retires the thread. Used for thread 0 and spawned threads alike.
func (m *Machine) runThread(t *thread, fn *mir.Func, args []traced) (ret traced, err error) {
	defer func() {
		if r := recover(); r != nil {
			ret, err = traced{}, analysis.Recovered(analysis.StageExecute, r).OnThread(t.id)
		}
		m.finishThread(t, err)
	}()
	ret, _, err = m.callFunc(t, fn, args, nil)
	return ret, err
}

// classify promotes a plain runtime error to a structured execute-stage
// error and stamps the program name on an already-structured one.
func (m *Machine) classify(err error) error {
	var ae *analysis.Error
	if errors.As(err, &ae) {
		ae.InProgram(m.prog.Name)
		return err
	}
	return analysis.Wrap(analysis.StageExecute, analysis.InvalidInput, err,
		"runtime error").InProgram(m.prog.Name)
}

func (m *Machine) registerThread() *thread {
	m.threadsMu.Lock()
	defer m.threadsMu.Unlock()
	id := m.nextThread
	m.nextThread++
	st := &threadState{id: id, done: make(chan struct{})}
	m.threads[id] = st
	t := &thread{m: m, id: id, state: st}
	if m.tracer != nil {
		t.tr = m.tracer.ThreadTracer(id)
	}
	return t
}

func (m *Machine) finishThread(t *thread, err error) {
	if ferr := t.flushOps(); err == nil {
		err = ferr
	}
	if err != nil {
		m.errMu.Lock()
		if m.firstErr == nil {
			m.firstErr = err
		}
		m.errMu.Unlock()
		// A failed thread will never reach its barriers; poison them all
		// so sibling threads unblock (and the error, not a deadlock, is
		// what surfaces).
		for _, b := range m.barriers {
			b.poison()
		}
	}
	t.state.err = err
	close(t.state.done)
}

func (m *Machine) threadByID(id int32) (*threadState, bool) {
	m.threadsMu.Lock()
	defer m.threadsMu.Unlock()
	st, ok := m.threads[id]
	return st, ok
}

// alloc reserves n heap cells and returns the base address. Fresh cells
// read as the zero Value; pages are mapped lazily on first store.
func (m *Machine) alloc(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative allocation size %d", n)
	}
	return m.heapSize.Add(n) - n, nil
}

// load and store access the heap. Mapped cells are reached lock-free; the
// allocation frontier is an atomic, so neither path takes a lock and
// bounds are always checked.
func (m *Machine) load(addr int64) (mir.Value, error) {
	if addr < 0 || addr >= m.heapSize.Load() {
		return mir.Value{}, fmt.Errorf("load out of bounds: address %d", addr)
	}
	return m.heap.Get(addr), nil
}

func (m *Machine) store(addr int64, v mir.Value) error {
	if addr < 0 || addr >= m.heapSize.Load() {
		return fmt.Errorf("store out of bounds: address %d", addr)
	}
	m.heap.Set(addr, v)
	return nil
}

// barrier is a cyclic barrier, the analogue of pthread_barrier_t.
type barrier struct {
	mu         sync.Mutex
	cond       *sync.Cond
	parties    int
	waiting    int
	generation int
	broken     bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until parties threads have arrived, or the barrier has been
// poisoned by a failing thread.
func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return
	}
	gen := b.generation
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.generation++
		b.cond.Broadcast()
		return
	}
	for gen == b.generation && !b.broken {
		b.cond.Wait()
	}
}

// poison permanently releases the barrier; used when a thread errors out.
func (b *barrier) poison() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.broken = true
	b.cond.Broadcast()
}
