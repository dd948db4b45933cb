package vm

import (
	"fmt"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// thread is the per-thread execution context: its id, its current dynamic
// loop scope and the slab its scope frames come from, its private tracing
// handle, and its pending (unpublished) operation count. The scope is what
// the paper's runtime support traces "on loop boundaries" (§6,
// Implementation).
type thread struct {
	m       *Machine
	id      int32
	state   *threadState
	scope   *ddg.Scope
	scopes  ddg.ScopeSlab
	tr      ThreadTracer
	pending int64
	invs    uint64
}

// nextInvocation allocates a dynamic loop-invocation id. Ids are
// (thread, per-thread counter) packed into one word rather than drawn
// from a shared counter: compaction only needs distinctness, and
// per-thread allocation keeps them independent of how the scheduler
// interleaved the run — a requirement for deterministic DDGs. Thread 0
// yields the bare sequence 1, 2, 3, ... so single-threaded traces are
// unchanged.
func (t *thread) nextInvocation() uint64 {
	t.invs++
	return uint64(t.id)<<32 | t.invs
}

// opFlushBatch is how many operations a thread executes between
// publications to the machine's shared counter. Batching keeps the hot
// path free of shared atomics; the operation budget is therefore enforced
// with up to opFlushBatch-1 operations of slack per thread.
const opFlushBatch = 256

// countOp counts one executed operation against the budget.
func (t *thread) countOp() error {
	t.pending++
	if t.pending >= opFlushBatch {
		return t.flushOps()
	}
	return nil
}

// flushOps publishes the thread's pending operation count and enforces
// the budget.
func (t *thread) flushOps() error {
	if t.pending == 0 {
		return nil
	}
	total := t.m.ops.Add(t.pending)
	t.pending = 0
	if total > t.m.maxOps {
		return analysis.Errorf(analysis.StageExecute, analysis.ResourceExhausted,
			"operation budget of %d exceeded", t.m.maxOps).OnThread(t.id)
	}
	return nil
}

// traced pairs a runtime value with the DDG node that defined it
// (ddg.NoNode for constants and other untraced sources).
type traced struct {
	v   mir.Value
	def ddg.NodeID
}

// frame holds the local variables of one function activation.
type frame struct {
	vars map[string]traced
}

func newFrame() *frame { return &frame{vars: map[string]traced{}} }

func (f *frame) get(name string) (traced, bool) {
	tv, ok := f.vars[name]
	return tv, ok
}

func (f *frame) set(name string, tv traced) { f.vars[name] = tv }

// callFunc executes fn with the given arguments in thread t, returning its
// return value.
func (m *Machine) callFunc(t *thread, fn *mir.Func, args []traced, _ *frame) (traced, bool, error) {
	if len(args) != len(fn.Params) {
		return traced{}, false, fmt.Errorf("call of %q with %d args, want %d",
			fn.Name, len(args), len(fn.Params))
	}
	fr := newFrame()
	for i, p := range fn.Params {
		fr.set(p, args[i])
	}
	return m.execStmts(t, fr, fn.Body)
}

// execStmts executes a statement list. It reports whether a return was
// executed and, if so, the returned value.
func (m *Machine) execStmts(t *thread, fr *frame, stmts []mir.Stmt) (traced, bool, error) {
	for _, s := range stmts {
		ret, returned, err := m.execStmt(t, fr, s)
		if err != nil || returned {
			return ret, returned, err
		}
	}
	return traced{}, false, nil
}

func (m *Machine) execStmt(t *thread, fr *frame, s mir.Stmt) (traced, bool, error) {
	fail := func(err error) (traced, bool, error) {
		pos := s.Position()
		return traced{}, false, fmt.Errorf("%s:%d: %w", pos.File, pos.Line, err)
	}
	switch s := s.(type) {
	case *mir.AssignStmt:
		tv, err := m.evalExpr(t, fr, s.X)
		if err != nil {
			return fail(err)
		}
		fr.set(s.Var, tv)

	case *mir.StoreStmt:
		addr, err := m.evalExpr(t, fr, s.Addr)
		if err != nil {
			return fail(err)
		}
		val, err := m.evalExpr(t, fr, s.Val)
		if err != nil {
			return fail(err)
		}
		if err := m.store(addr.v.Int(), val.v); err != nil {
			return fail(err)
		}
		if t.tr != nil {
			t.tr.StoreShadow(addr.v.Int(), val.def)
		}

	case *mir.ForStmt:
		from, err := m.evalExpr(t, fr, s.From)
		if err != nil {
			return fail(err)
		}
		inv := t.nextInvocation()
		entered := false
		for i := from.v.Int(); ; {
			to, err := m.evalExpr(t, fr, s.To)
			if err != nil {
				return fail(err)
			}
			if i >= to.v.Int() {
				break
			}
			if !entered {
				t.scope = t.scopes.Enter(t.scope, s.Loop, inv)
				entered = true
			} else {
				t.scope = t.scopes.NextIter(t.scope)
			}
			fr.set(s.Var, traced{v: mir.IntV(i), def: ddg.NoNode})
			ret, returned, err := m.execStmts(t, fr, s.Body)
			if err != nil || returned {
				if entered {
					t.scope = t.scope.Exit()
				}
				return ret, returned, err
			}
			step, err := m.evalExpr(t, fr, s.Step)
			if err != nil {
				return fail(err)
			}
			i += step.v.Int()
		}
		if entered {
			t.scope = t.scope.Exit()
		}

	case *mir.WhileStmt:
		inv := t.nextInvocation()
		entered := false
		for iter := 0; ; iter++ {
			if !entered {
				t.scope = t.scopes.Enter(t.scope, s.Loop, inv)
				entered = true
			} else {
				t.scope = t.scopes.NextIter(t.scope)
			}
			cond, err := m.evalExpr(t, fr, s.Cond)
			if err != nil {
				t.scope = t.scope.Exit()
				return fail(err)
			}
			if !cond.v.Bool() {
				break
			}
			ret, returned, err := m.execStmts(t, fr, s.Body)
			if err != nil || returned {
				t.scope = t.scope.Exit()
				return ret, returned, err
			}
			if iter > int(m.maxOps) {
				t.scope = t.scope.Exit()
				return fail(analysis.Errorf(analysis.StageExecute, analysis.ResourceExhausted,
					"while loop exceeded operation budget of %d", m.maxOps).OnThread(t.id))
			}
		}
		t.scope = t.scope.Exit()

	case *mir.IfStmt:
		cond, err := m.evalExpr(t, fr, s.Cond)
		if err != nil {
			return fail(err)
		}
		if cond.v.Bool() {
			return m.execStmts(t, fr, s.Then)
		}
		return m.execStmts(t, fr, s.Else)

	case *mir.CallStmt:
		if _, err := m.evalExpr(t, fr, s.Call); err != nil {
			return fail(err)
		}

	case *mir.ReturnStmt:
		if s.X == nil {
			return traced{}, true, nil
		}
		tv, err := m.evalExpr(t, fr, s.X)
		if err != nil {
			return fail(err)
		}
		return tv, true, nil

	case *mir.SpawnStmt:
		callee := m.prog.Funcs[s.Fn]
		if callee == nil {
			return fail(fmt.Errorf("spawn of undefined function %q", s.Fn))
		}
		args := make([]traced, len(s.Args))
		for i, a := range s.Args {
			tv, err := m.evalExpr(t, fr, a)
			if err != nil {
				return fail(err)
			}
			args[i] = tv
		}
		child := m.registerThread()
		fr.set(s.Var, traced{v: mir.IntV(int64(child.id)), def: ddg.NoNode})
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			// runThread installs the child's recover boundary: a panic on a
			// spawned goroutine's stack cannot be caught by Run's own defer.
			m.runThread(child, callee, args)
		}()

	case *mir.JoinStmt:
		handle, err := m.evalExpr(t, fr, s.X)
		if err != nil {
			return fail(err)
		}
		st, ok := m.threadByID(int32(handle.v.Int()))
		if !ok {
			return fail(fmt.Errorf("join of unknown thread %d", handle.v.Int()))
		}
		<-st.done

	case *mir.BarrierStmt:
		m.barriers[s.Name].await()

	case *mir.LockStmt:
		m.mutexes[s.Name].Lock()

	case *mir.UnlockStmt:
		m.mutexes[s.Name].Unlock()

	default:
		return fail(fmt.Errorf("unknown statement %T", s))
	}
	return traced{}, false, nil
}

// evalExpr evaluates an expression, creating DDG nodes for every executed
// operation when a tracer is attached.
func (m *Machine) evalExpr(t *thread, fr *frame, e mir.Expr) (traced, error) {
	switch e := e.(type) {
	case *mir.ConstExpr:
		return traced{v: e.V, def: ddg.NoNode}, nil

	case *mir.VarExpr:
		tv, ok := fr.get(e.Name)
		if !ok {
			return traced{}, fmt.Errorf("read of undefined variable %q", e.Name)
		}
		return tv, nil

	case *mir.StaticExpr:
		base, ok := m.statics[e.Name]
		if !ok {
			return traced{}, fmt.Errorf("reference to undeclared static %q", e.Name)
		}
		return traced{v: mir.IntV(base), def: ddg.NoNode}, nil

	case *mir.BinExpr:
		x, err := m.evalExpr(t, fr, e.X)
		if err != nil {
			return traced{}, err
		}
		y, err := m.evalExpr(t, fr, e.Y)
		if err != nil {
			return traced{}, err
		}
		v, err := mir.EvalBinary(e.Op, x.v, y.v)
		if err != nil {
			pos := e.Position()
			return traced{}, fmt.Errorf("%s:%d: %w", pos.File, pos.Line, err)
		}
		if err := t.countOp(); err != nil {
			return traced{}, err
		}
		def := ddg.NoNode
		if t.tr != nil {
			def = t.tr.Node(e.Op, e.Position(), t.scope, x.def, y.def)
		}
		return traced{v: v, def: def}, nil

	case *mir.UnExpr:
		x, err := m.evalExpr(t, fr, e.X)
		if err != nil {
			return traced{}, err
		}
		v, err := mir.EvalUnary(e.Op, x.v)
		if err != nil {
			pos := e.Position()
			return traced{}, fmt.Errorf("%s:%d: %w", pos.File, pos.Line, err)
		}
		if err := t.countOp(); err != nil {
			return traced{}, err
		}
		def := ddg.NoNode
		if t.tr != nil {
			def = t.tr.Node(e.Op, e.Position(), t.scope, x.def, ddg.NoNode)
		}
		return traced{v: v, def: def}, nil

	case *mir.LoadExpr:
		addr, err := m.evalExpr(t, fr, e.Addr)
		if err != nil {
			return traced{}, err
		}
		v, err := m.load(addr.v.Int())
		if err != nil {
			pos := e.Position()
			return traced{}, fmt.Errorf("%s:%d: %w", pos.File, pos.Line, err)
		}
		def := ddg.NoNode
		if t.tr != nil {
			def = t.tr.LoadShadow(addr.v.Int())
		}
		return traced{v: v, def: def}, nil

	case *mir.CallExpr:
		callee := m.prog.Funcs[e.Fn]
		if callee == nil {
			return traced{}, fmt.Errorf("call of undefined function %q", e.Fn)
		}
		args := make([]traced, len(e.Args))
		for i, a := range e.Args {
			tv, err := m.evalExpr(t, fr, a)
			if err != nil {
				return traced{}, err
			}
			args[i] = tv
		}
		ret, _, err := m.callFunc(t, callee, args, fr)
		return ret, err

	case *mir.AllocExpr:
		count, err := m.evalExpr(t, fr, e.Count)
		if err != nil {
			return traced{}, err
		}
		base, err := m.alloc(count.v.Int())
		if err != nil {
			pos := e.Position()
			return traced{}, fmt.Errorf("%s:%d: %w", pos.File, pos.Line, err)
		}
		return traced{v: mir.IntV(base), def: ddg.NoNode}, nil
	}
	return traced{}, fmt.Errorf("unknown expression %T", e)
}
