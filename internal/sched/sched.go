// Package sched is the process-wide solve scheduler: one work-stealing
// worker pool shared by every pattern-finding run in the process, so
// parallelism is a property of the process, not of each run.
//
// Before this package existed, each core.FindCtx run spawned its own
// GOMAXPROCS matching workers. A single CLI run was fine; the analysis
// daemon running MaxInFlight concurrent analyses oversubscribed the
// machine by that factor, and the subtract/fuse/pipeline phases stayed
// sequential because only the match phase owned goroutines. The scheduler
// inverts the ownership: the process owns one sized Pool, each run
// registers as an Owner, and every parallel phase of a run — match,
// subtract, fuse, pipelines — submits its work to the pool as Tasks.
//
// Scheduling model:
//
//   - Per-owner FIFOs. Each Owner holds its own queue of submitted tasks,
//     served in submission order. The queue never interleaves another
//     run's work.
//
//   - Work stealing across owners. Pool workers claim from the owners
//     round-robin, starting past the last owner served, so a worker that
//     drains one run's queue steals from another run's. A small warm
//     request therefore interleaves with a large cold one task-by-task
//     instead of queueing behind it whole.
//
//   - Helping waiters. Owner.Wait does not block while its own tasks are
//     queued: the waiting goroutine claims and runs them itself
//     (help-first). A run always makes progress on its own goroutine even
//     when every pool worker is busy elsewhere — liveness never depends
//     on pool capacity — and a pool of zero workers degrades to exactly
//     the old sequential finder.
//
//   - Cancellation checked at claim time. An Owner may carry a context
//     (a run's, its budget deadline included); a task claimed after that
//     context is done is dropped — Do(true) runs for its bookkeeping, the
//     work does not — so a doomed task costs one context check.
//
// Determinism: the pool promises nothing about execution order, and the
// finder does not need it to — results land in pre-assigned slots and are
// folded in submission (owner) order after Wait, so delivery order is
// deterministic whatever the stealing did. That is what keeps golden
// corpus output byte-identical with the scheduler default-on.
package sched

import (
	"context"
	"runtime"
	"sync"
	"time"

	"discovery/internal/obs"
)

// Task is one unit of schedulable work.
type Task struct {
	// Do executes the task. expired is true when the task was claimed
	// after its Owner's context was done: the task must then do only its
	// completion bookkeeping, not the work itself.
	// Do must contain its own panics; the pool's last-resort recover
	// keeps a worker alive but discards the panic value (see
	// Stats.Panics).
	Do func(expired bool)
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	// Workers is the pool's goroutine count (helping waiters excluded).
	Workers int
	// Owners is the number of currently registered owners.
	Owners int
	// Queued is the number of submitted tasks not yet claimed; Running is
	// the number currently executing (on workers or helping waiters).
	Queued  int
	Running int
	// Submitted and Completed count tasks over the pool's lifetime;
	// Expired are the completed tasks dropped at claim time by a done
	// owner context.
	Submitted int64
	Completed int64
	Expired   int64
	// Steals counts claims where a pool worker switched owners — the
	// cross-run balancing the shared pool exists for. Helped counts tasks
	// executed by their own owner's waiting goroutine.
	Steals int64
	Helped int64
	// Panics counts Do panics swallowed by the pool's last-resort
	// boundary (always a bug in the task; the finder contains its own).
	Panics int64
}

// fifo is one owner's queue: tasks[head:] are queued in submission
// order.
type fifo struct {
	tasks []Task
	head  int
}

// n returns the number of queued tasks.
func (q *fifo) n() int { return len(q.tasks) - q.head }

func (q *fifo) push(t Task) { q.tasks = append(q.tasks, t) }

// pop removes and returns the next task; q must not be empty.
func (q *fifo) pop() Task {
	t := q.tasks[q.head]
	q.tasks[q.head] = Task{} // drop the closure for the collector
	q.head++
	if q.head == len(q.tasks) {
		q.tasks, q.head = q.tasks[:0], 0
	}
	return t
}

// Pool is a shared worker pool. Create one per process with NewPool, or
// use the process default (Default); submit work through Owners.
type Pool struct {
	rec obs.Recorder

	mu      sync.Mutex
	cond    *sync.Cond // workers sleep here when no task is claimable
	owners  []*Owner
	rr      int // round-robin scan start, advanced past each served owner
	workers int
	closed  bool
	wg      sync.WaitGroup

	queued    int
	running   int
	submitted int64
	completed int64
	expired   int64
	steals    int64
	helped    int64
	panics    int64
}

// Owner is one client of the pool — one pattern-finding run, typically.
// An Owner is safe for concurrent use, but the intended shape is phases:
// Submit a batch, Wait for it, repeat, then Close.
type Owner struct {
	pool *Pool
	ctx  context.Context
	done sync.Cond // signalled when pending reaches zero; shares pool.mu

	q       fifo
	pending int // queued + running tasks of this owner
	closed  bool
}

// NewPool starts a pool of exactly workers goroutines (zero is valid:
// only helping waiters execute then). rec, when non-nil and enabled,
// receives the scheduler metrics (queue depth, steals, task latency);
// nil resolves to the no-op recorder.
func NewPool(workers int, rec obs.Recorder) *Pool {
	if workers < 0 {
		workers = 0
	}
	p := &Pool{rec: obs.OrNop(rec), workers: workers}
	p.cond = &sync.Cond{L: &p.mu}
	if p.rec.Enabled() {
		p.rec.Gauge(obs.MetricSchedWorkers, float64(workers))
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

var defaultPool = sync.OnceValue(func() *Pool { return NewPool(runtime.GOMAXPROCS(0)-1, nil) })

// Default returns the process default pool, built on first use with
// GOMAXPROCS−1 workers and never closed. With the helping waiter every
// owner brings, a run on it sees GOMAXPROCS executors; on one CPU it has
// no workers and a run executes its tasks on its own goroutine.
func Default() *Pool { return defaultPool() }

// Workers returns the pool's goroutine count.
func (p *Pool) Workers() int { return p.workers }

// Executors returns the parallel capacity one owner sees: the pool's
// workers plus the owner's own helping goroutine. The finder submits one
// claimer task per executor for each parallel phase.
func (p *Pool) Executors() int { return p.workers + 1 }

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers:   p.workers,
		Owners:    len(p.owners),
		Queued:    p.queued,
		Running:   p.running,
		Submitted: p.submitted,
		Completed: p.completed,
		Expired:   p.expired,
		Steals:    p.steals,
		Helped:    p.helped,
		Panics:    p.panics,
	}
}

// Close stops the workers after the queue drains. Owners must have Waited
// out their work first; Close does not cancel queued tasks.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// NewOwner registers a client. ctx, when non-nil, is checked at claim
// time: once it is done, every remaining task of this owner is dropped
// (claimed as expired) instead of run.
func (p *Pool) NewOwner(ctx context.Context) *Owner {
	o := &Owner{pool: p, ctx: ctx}
	o.done.L = &p.mu
	p.mu.Lock()
	p.owners = append(p.owners, o)
	p.mu.Unlock()
	return o
}

// Submit queues tasks on the owner's queue. Tasks with a nil Do are
// ignored. Safe to call from any goroutine, including from inside a
// running task of the same owner.
func (o *Owner) Submit(tasks ...Task) {
	p := o.pool
	p.mu.Lock()
	if o.closed {
		p.mu.Unlock()
		panic("sched: Submit on a closed Owner")
	}
	n := 0
	for _, t := range tasks {
		if t.Do == nil {
			continue
		}
		o.q.push(t)
		n++
	}
	o.pending += n
	p.queued += n
	p.submitted += int64(n)
	depth := p.queued
	p.mu.Unlock()
	if n > 0 {
		p.cond.Broadcast()
		if p.rec.Enabled() {
			p.rec.Gauge(obs.MetricSchedQueueDepth, float64(depth))
		}
	}
}

// Wait blocks until every task submitted so far (and any submitted while
// waiting) has completed. The waiting goroutine helps: while its own
// queue is non-empty it claims and runs its own tasks, so a run
// progresses even when every pool worker is serving other owners.
func (o *Owner) Wait() {
	p := o.pool
	p.mu.Lock()
	for o.pending > 0 {
		if o.q.n() > 0 {
			t := o.q.pop()
			p.queued--
			p.running++
			p.helped++
			p.mu.Unlock()
			p.exec(o, t)
			p.mu.Lock()
			continue
		}
		o.done.Wait()
	}
	p.mu.Unlock()
}

// Close deregisters the owner, waiting out any remaining tasks first.
func (o *Owner) Close() {
	o.Wait()
	p := o.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if o.closed {
		return
	}
	o.closed = true
	for i, reg := range p.owners {
		if reg == o {
			p.owners = append(p.owners[:i], p.owners[i+1:]...)
			break
		}
	}
	if p.rr >= len(p.owners) {
		p.rr = 0
	}
}

// worker is one pool goroutine: claim the next owner's head task, run
// it, repeat; sleep when nothing is claimable, exit when the pool is
// closed and drained.
func (p *Pool) worker() {
	defer p.wg.Done()
	var last *Owner
	p.mu.Lock()
	for {
		o, t, ok := p.claimLocked()
		if !ok {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		if last != nil && last != o {
			p.steals++
			if p.rec.Enabled() {
				p.rec.Count(obs.MetricSchedSteals, 1)
			}
		}
		last = o
		p.mu.Unlock()
		p.exec(o, t)
		p.mu.Lock()
	}
}

// claimLocked pops the head task of the first owner with queued work,
// scanning round-robin from just past the last served owner so no owner
// monopolizes the pool. Callers hold p.mu.
func (p *Pool) claimLocked() (*Owner, Task, bool) {
	n := len(p.owners)
	if n == 0 || p.queued == 0 {
		return nil, Task{}, false
	}
	for i := 0; i < n; i++ {
		idx := (p.rr + i) % n
		o := p.owners[idx]
		if o.q.n() == 0 {
			continue
		}
		p.rr = (idx + 1) % n
		t := o.q.pop()
		p.queued--
		p.running++
		return o, t, true
	}
	return nil, Task{}, false
}

// exec runs one claimed task outside the lock and books its completion.
// The context check happens here — at claim time, on the executing
// goroutine — so a doomed task is dropped before any work runs.
func (p *Pool) exec(o *Owner, t Task) {
	expired := o.ctx != nil && o.ctx.Err() != nil
	var start time.Time
	if p.rec.Enabled() {
		start = time.Now()
	}
	panicked := p.run(t, expired)
	if p.rec.Enabled() {
		p.rec.Count(obs.MetricSchedTasks, 1)
		if expired {
			p.rec.Count(obs.MetricSchedExpired, 1)
		} else {
			p.rec.Observe(obs.MetricSchedTaskSeconds, time.Since(start).Seconds())
		}
	}
	p.mu.Lock()
	p.running--
	p.completed++
	if expired {
		p.expired++
	}
	if panicked {
		p.panics++
	}
	o.pending--
	if o.pending == 0 {
		o.done.Broadcast()
	}
	p.mu.Unlock()
}

// run invokes Do inside the pool's last-resort recover boundary: a panic
// escaping a task must not kill a shared worker (which would wedge every
// owner's Wait). The finder's tasks contain their own panics and record
// them as structured failures; anything reaching this boundary is a bug,
// counted but otherwise swallowed in favor of liveness.
func (p *Pool) run(t Task, expired bool) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	t.Do(expired)
	return false
}
