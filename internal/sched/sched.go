// Package sched is the process-wide solve scheduler: one worker pool
// shared by every pattern-finding run in the process, so parallelism is a
// property of the process, not of each run.
//
// Every parallel phase of the finder applies one function to every index
// of a range — a map over the phase's items — so the pool has one
// primitive, Sweep. A sweep owns a counter of unclaimed indices. Its
// caller runs one claimer, which takes the next index until none is left,
// and offers the sweep to the pool's workers so that up to workers+1
// claimers share the range.
//
// Scheduling model:
//
//   - One FIFO of offers. A sweep queues one offer per extra executor it
//     could use on a FIFO shared by every sweep. A worker takes the head
//     offer and runs a claimer of that sweep, so concurrent sweeps (the
//     daemon's concurrent requests) are served in arrival order, one
//     claimer at a time.
//
//   - The caller always claims. A sweep progresses on its own goroutine
//     even when every worker is busy elsewhere, so liveness never depends
//     on pool capacity, and a pool of zero workers runs every sweep on its
//     caller. When the caller's claimer returns (the counter spent or the
//     context done), the sweep withdraws its untaken offers and waits only
//     for the claimers workers already run, each of which ends within one
//     item.
//
//   - Cancellation checked at claim time. A claimer checks the sweep's
//     context before each claim, and a worker drops an offer whose
//     context is done when it takes it (Stats.Expired), so no item starts
//     after the context is done.
//
// Determinism: the pool promises nothing about which executor runs which
// index, and the finder does not need it to — items write pre-assigned
// slots that the caller folds in index order after Sweep returns.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"discovery/internal/obs"
)

// Stats is a point-in-time snapshot of pool activity. The daemon's /stats
// document renders it as its "sched" block.
type Stats struct {
	// Workers is the pool's goroutine count (sweeping callers excluded).
	Workers int `json:"workers"`
	// Queued is the number of offers posted and not yet taken or
	// withdrawn; Running is the number of claimers executing, on workers
	// or on sweeping callers.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Expired counts offers dropped at take because their sweep's context
	// was done.
	Expired int64 `json:"expired"`
	// Steals counts offers run by pool workers: claimers that joined a
	// sweep from outside its caller. Helped counts claimers run by
	// sweeping callers, one per sweep.
	Steals int64 `json:"steals"`
	Helped int64 `json:"helped"`
	// Panics counts item panics caught by the pool's last-resort boundary
	// (always a bug in the item; the finder contains its own).
	Panics int64 `json:"panics"`
}

// Pool is a shared worker pool. Create one per process with NewPool, or
// use the process default (Default).
type Pool struct {
	rec     obs.Recorder
	workers int

	mu     sync.Mutex
	cond   *sync.Cond // workers sleep here while no offer is queued
	offers []*sweep   // offers[head:] in arrival order, one entry per offer
	head   int
	closed bool
	wg     sync.WaitGroup

	queued  int
	running int
	expired int64
	steals  int64
	helped  int64
	panics  int64
}

// sweep is one Sweep call: its range, its claim counter and the state of
// its offers, which the pool mutex guards.
type sweep struct {
	ctx  context.Context
	n    int
	item func(i int)
	next atomic.Int64

	untaken int       // offers still queued; zero once withdrawn
	taken   int       // offers a worker is running
	idle    sync.Cond // signalled when taken drops to zero; L is the pool mutex
}

// NewPool starts a pool of exactly workers goroutines (zero is valid:
// every sweep then runs on its caller). rec, when non-nil and enabled,
// receives the scheduler metrics (queue depth, steals, task latency);
// nil resolves to the no-op recorder.
func NewPool(workers int, rec obs.Recorder) *Pool {
	workers = max(workers, 0)
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
// GOMAXPROCS−1 workers and never closed. With its caller, a sweep on it
// sees GOMAXPROCS executors; on one CPU it has no workers and every sweep
// runs on its caller.
func Default() *Pool { return defaultPool() }

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers: p.workers,
		Queued:  p.queued,
		Running: p.running,
		Expired: p.expired,
		Steals:  p.steals,
		Helped:  p.helped,
		Panics:  p.panics,
	}
}

// Close stops the workers. A sweep in flight finishes on its caller, and
// a sweep started after Close runs on its caller alone. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Sweep runs item(i) once for every index i in [0, n), on the calling
// goroutine plus any pool workers that join, and returns when every
// claimed item has returned. Before each claim it checks ctx: once ctx is
// done, the unclaimed indices are skipped, while a claimed item always
// runs to its end. item must be safe to call concurrently and should
// contain its own panics; one that escapes is counted in Stats.Panics and
// the claimer goes on to the next index.
func (p *Pool) Sweep(ctx context.Context, n int, item func(i int)) {
	if n <= 0 {
		return
	}
	s := &sweep{ctx: ctx, n: n, item: item}
	s.idle.L = &p.mu
	offers := 0
	p.mu.Lock()
	if !p.closed {
		offers = min(n, p.workers+1) - 1
	}
	for i := 0; i < offers; i++ {
		p.offers = append(p.offers, s)
	}
	s.untaken = offers
	p.queued += offers
	depth := p.queued
	p.helped++
	p.running++
	p.mu.Unlock()
	for i := 0; i < offers; i++ {
		p.cond.Signal()
	}
	if offers > 0 && p.rec.Enabled() {
		p.rec.Gauge(obs.MetricSchedQueueDepth, float64(depth))
	}

	p.claim(s)

	p.mu.Lock()
	p.running--
	p.queued -= s.untaken
	s.untaken = 0
	for s.taken > 0 {
		s.idle.Wait()
	}
	p.mu.Unlock()
}

// worker is one pool goroutine: take the head offer, run a claimer of its
// sweep, repeat; sleep while no offer is queued, exit once the pool is
// closed.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for p.head == len(p.offers) && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		s := p.offers[p.head]
		p.offers[p.head] = nil // drop the sweep for the collector
		if p.head++; p.head == len(p.offers) {
			p.offers, p.head = p.offers[:0], 0
		}
		if s.untaken == 0 {
			continue // withdrawn: every index of its sweep is claimed
		}
		s.untaken--
		p.queued--
		if s.ctx.Err() != nil {
			p.expired++
			if p.rec.Enabled() {
				p.rec.Count(obs.MetricSchedExpired, 1)
			}
			continue
		}
		s.taken++
		p.running++
		p.steals++
		p.mu.Unlock()
		if p.rec.Enabled() {
			p.rec.Count(obs.MetricSchedSteals, 1)
		}
		p.claim(s)
		p.mu.Lock()
		p.running--
		if s.taken--; s.taken == 0 {
			s.idle.Signal()
		}
	}
}

// claim runs one claimer of s and books it as a task. A panic escaping an
// item is counted and the claimer restarts at the next index, so a bug in
// one item neither kills a shared worker nor leaves the sweep's other
// indices unrun.
func (p *Pool) claim(s *sweep) {
	var start time.Time
	if p.rec.Enabled() {
		start = time.Now()
	}
	for !p.claimRecovered(s) {
		p.mu.Lock()
		p.panics++
		p.mu.Unlock()
	}
	if p.rec.Enabled() {
		p.rec.Count(obs.MetricSchedTasks, 1)
		p.rec.Observe(obs.MetricSchedTaskSeconds, time.Since(start).Seconds())
	}
}

// claimRecovered takes indices of s until none is left or its context is
// done, inside the pool's last-resort recover boundary; it reports false
// when an item panicked.
func (p *Pool) claimRecovered(s *sweep) (ok bool) {
	defer func() { recover() }() // a panic leaves ok false
	// A non-blocking receive on Done is lock-free, so checking before
	// each claim costs nothing an item would notice.
	done := s.ctx.Done()
	for {
		select {
		case <-done:
			return true
		default:
		}
		i := int(s.next.Add(1) - 1)
		if i >= s.n {
			return true
		}
		s.item(i)
	}
}
