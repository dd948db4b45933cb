package fault

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"discovery/internal/store"
)

// Store wraps inner with the plan's scripted store faults. The decorator
// sits below the server's memory fallback, standing in for the unreliable
// device that fallback exists to survive.
func (p *Plan) Store(inner store.Store) store.Store {
	return &faultStore{plan: p, inner: inner}
}

type faultStore struct {
	plan  *Plan
	inner store.Store
}

// sleep blocks for a rule's scripted latency (default 50ms).
func sleep(r *Rule) {
	d := time.Duration(r.LatencyMS) * time.Millisecond
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	time.Sleep(d)
}

// apply handles the actions common to all store ops; it reports whether
// the operation should proceed to the backend, and the error to return
// when it should not.
func (f *faultStore) apply(op string, r *Rule) (proceed bool, err error) {
	if r == nil {
		return true, nil
	}
	switch r.Action {
	case ActionError:
		return false, injectedError(op, r.Msg)
	case ActionLatency:
		sleep(r)
		return true, nil
	case ActionPanic:
		msg := r.Msg
		if msg == "" {
			msg = "injected store panic"
		}
		panic("fault: " + msg + ": " + op)
	}
	return true, nil
}

func (f *faultStore) Get(key string) (*store.Entry, bool, error) {
	proceed, err := f.apply("store.get", f.plan.next("store.get"))
	if !proceed {
		return nil, false, err
	}
	return f.inner.Get(key)
}

func (f *faultStore) Put(e *store.Entry) error {
	r := f.plan.next("store.put")
	if r != nil && r.Action == ActionTorn {
		return f.tornPut(e)
	}
	proceed, err := f.apply("store.put", r)
	if !proceed {
		return err
	}
	return f.inner.Put(e)
}

// tornPut simulates a crash between write and fsync: the put reports
// success, but what lands is a truncated entry (on a disk backend, written
// torn straight into the directory) or nothing at all (backends without a
// directory — the write is simply lost). Either way the caller believes
// the entry is durable; recovery and read-side quarantine must make the
// lie harmless.
func (f *faultStore) tornPut(e *store.Entry) error {
	type dirStore interface{ Dir() string }
	d, ok := f.inner.(dirStore)
	if !ok {
		return nil // lost write: claimed durable, never stored
	}
	data, err := json.Marshal(e)
	if err != nil || len(data) < 2 {
		return nil
	}
	// Half the document, no trailing newline: exactly what a torn page
	// boundary leaves.
	return os.WriteFile(filepath.Join(d.Dir(), e.Key+".json"), data[:len(data)/2], 0o644)
}

func (f *faultStore) Len() (int, error) {
	proceed, err := f.apply("store.len", f.plan.next("store.len"))
	if !proceed {
		return 0, err
	}
	return f.inner.Len()
}

func (f *faultStore) Close() error { return f.inner.Close() }
