package server

import (
	"context"
	"fmt"
	"time"

	"discovery/internal/obs"
)

// job is one admitted request travelling through the batcher: the request,
// the client's context (cancellation propagates into the finder), and the
// channel the worker answers on.
type job struct {
	ctx      context.Context
	req      *Request
	enqueued time.Time
	done     chan jobDone
}

// jobDone is the worker's answer: a response or an HTTP-mapped error.
type jobDone struct {
	resp *Response
	err  *httpError
}

// submit offers a request to the batcher without blocking. A full queue —
// every worker busy and the waiting room at capacity — is an admission
// failure, answered 503 immediately so clients can back off and retry
// instead of piling up open connections the daemon cannot serve.
func (s *Server) submit(ctx context.Context, req *Request) (*Response, *httpError) {
	j := &job{ctx: ctx, req: req, enqueued: time.Now(), done: make(chan jobDone, 1)}
	select {
	case s.queue <- j:
		s.reg.Gauge(obs.MetricServerQueueDepth, float64(len(s.queue)))
	default:
		s.rejected.Add(1)
		s.reg.Count(obs.L(obs.MetricServerRequests, "status", "rejected"), 1)
		// The bottom rung of the degradation ladder: brownout already
		// clamped budgets on the way here, so a full queue means the
		// daemon is saturated even at reduced per-request cost. Tell the
		// client to come back in a second instead of letting it hammer.
		// The horizon is a constant: the solve pool's backlog never
		// exceeds MaxInFlight offers per worker, so a horizon scaled by
		// it could not tell one saturated moment from another.
		return nil, &httpError{code: 503, msg: "queue full, retry later", retryAfter: retryAfterSeconds}
	}
	select {
	case d := <-j.done:
		return d.resp, d.err
	case <-ctx.Done():
		// The client went away. The worker still drains the job (the
		// buffered done channel never blocks it) and its result still
		// warms the cache and the store for the retry that follows.
		return nil, &httpError{code: 499, msg: "client closed request"}
	}
}

// retryAfterSeconds is the Retry-After horizon of a queue-full 503.
const retryAfterSeconds = 1

// worker is one of MaxInFlight analysis loops. Workers are the batch: at
// most MaxInFlight requests run concurrently, each binding to the shared
// ViewCache's generation for its fingerprint, while the queue holds the
// overflow in admission order.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		wait := time.Since(j.enqueued)
		// Queue occupancy at dequeue drives brownout: it is the freshest
		// pressure signal available before the request starts running.
		occupancy := float64(len(s.queue)) / float64(cap(s.queue))
		s.reg.Observe(obs.MetricServerQueueSeconds, wait.Seconds())
		s.reg.Gauge(obs.MetricServerQueueDepth, float64(len(s.queue)))
		s.reg.Gauge(obs.MetricServerInFlight, float64(s.inflight.Add(1)))

		if err := j.ctx.Err(); err != nil {
			// The client vanished while the job queued; skip the work and
			// make the shed load visible (satellite: the cancelled counter
			// is what distinguishes "clients gave up waiting" from
			// rejected or failed traffic in /stats).
			s.cancelled.Add(1)
			s.reg.Count(obs.MetricServerCancelled, 1)
			s.reg.Count(obs.L(obs.MetricServerRequests, "status", "cancelled"), 1)
			j.done <- jobDone{err: &httpError{code: 499, msg: "client closed request"}}
		} else {
			resp, herr := s.safeProcess(j.ctx, j.req, wait, occupancy)
			if herr == nil {
				s.served.Add(1)
			}
			j.done <- jobDone{resp: resp, err: herr}
		}

		s.reg.Gauge(obs.MetricServerInFlight, float64(s.inflight.Add(-1)))
	}
}

// safeProcess is the worker's recover boundary. The finder contains its
// own phase panics (PR 3), but a panic anywhere else on the request path —
// a store decorator, report rendering, an injected fault outside the
// guarded phases — must cost one 500, not the daemon: every response is
// a correct answer, an explicitly degraded answer, or a clean 5xx.
func (s *Server) safeProcess(ctx context.Context, req *Request, wait time.Duration, occupancy float64) (resp *Response, herr *httpError) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Count(obs.MetricServerPanics, 1)
			s.reg.Count(obs.L(obs.MetricServerRequests, "status", "error"), 1)
			resp, herr = nil, &httpError{code: 500, msg: fmt.Sprintf("internal error: recovered panic: %v", r)}
		}
	}()
	return s.process(ctx, req, wait, occupancy)
}
