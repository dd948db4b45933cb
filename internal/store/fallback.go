package store

import "sync/atomic"

// Fallback decorates a primary Store with a secondary that absorbs the
// primary's failures: a Get whose primary errors is answered from the
// secondary, and a Put whose primary errors lands in the secondary instead
// of being lost. With a durable primary (disk) and an in-memory secondary,
// this is the serving layer's graceful-degradation path: while the disk
// fails, the daemon keeps memoizing into memory and keeps serving warm
// results, trading durability for availability instead of trading
// correctness for anything.
//
// Primary misses also consult the secondary: entries written during a
// degraded window live only there, and first-write-wins immutability makes
// a hit from either side equally authoritative.
type Fallback struct {
	primary, secondary Store
	// onFallback observes each operation the secondary absorbed (op is
	// "get", "put", or "len"), with the primary error that caused it.
	onFallback func(op string, err error)

	degradedOps atomic.Int64
	// degraded records whether the most recent primary operation errored
	// (a clean miss is a success); it is what /healthz reports.
	degraded atomic.Bool
}

// NewFallback wraps primary with secondary as its degradation target.
// onFallback, when non-nil, observes every operation the secondary absorbs.
func NewFallback(primary, secondary Store, onFallback func(op string, err error)) *Fallback {
	return &Fallback{primary: primary, secondary: secondary, onFallback: onFallback}
}

// DegradedOps returns how many operations the secondary absorbed.
func (f *Fallback) DegradedOps() int64 { return f.degradedOps.Load() }

// Degraded reports whether the most recent primary operation errored.
func (f *Fallback) Degraded() bool { return f.degraded.Load() }

// observe records a primary operation's outcome and, on error, counts and
// reports the fallback.
func (f *Fallback) observe(op string, err error) {
	f.degraded.Store(err != nil)
	if err == nil {
		return
	}
	f.degradedOps.Add(1)
	if f.onFallback != nil {
		f.onFallback(op, err)
	}
}

// Get implements Store: primary first; on a primary error the secondary
// answers alone, on a clean primary miss the secondary gets a second look
// (degraded-window writes live only there).
func (f *Fallback) Get(key string) (*Entry, bool, error) {
	e, ok, err := f.primary.Get(key)
	f.observe("get", err)
	if err == nil && ok {
		return e, true, nil
	}
	e2, ok2, err2 := f.secondary.Get(key)
	if err2 != nil {
		if err != nil {
			return nil, false, err // both sides down: report the primary's error
		}
		return nil, false, err2
	}
	return e2, ok2, nil
}

// Put implements Store: primary first, secondary on primary failure. A
// successful primary put does not mirror into the secondary — the
// secondary is a spill, not a replica.
func (f *Fallback) Put(e *Entry) error {
	err := f.primary.Put(e)
	f.observe("put", err)
	if err == nil {
		return nil
	}
	return f.secondary.Put(e)
}

// Len implements Store: the sum of both sides (entries spilled during a
// degraded window and later recomputed into the primary may count twice;
// Len is informational).
func (f *Fallback) Len() (int, error) {
	n, err := f.primary.Len()
	f.observe("len", err)
	if err != nil {
		n = 0
	}
	m, err2 := f.secondary.Len()
	if err2 != nil {
		if err != nil {
			return 0, err
		}
		return n, err2
	}
	return n + m, nil
}

// Close implements Store, closing both sides (secondary last; the first
// error wins).
func (f *Fallback) Close() error {
	err := f.primary.Close()
	if err2 := f.secondary.Close(); err == nil {
		err = err2
	}
	return err
}
