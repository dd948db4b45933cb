// Package store persists analysis results across requests and — with the
// disk backend — across daemon restarts. It is the serving layer's
// memoization table: entries are keyed by content fingerprints (the
// traced graph's 128-bit hash plus a fingerprint of the output-relevant
// options), so an identical submission short-circuits to a lookup instead
// of re-tracing and re-solving.
//
// The package is deliberately a small key–value abstraction with
// swappable backends behind one interface: an in-memory map for tests and
// single-process serving, and an on-disk JSON directory for durability.
// Entries are immutable once put — a put to an existing key is a no-op
// (first write wins, matching the ViewCache's verdict discipline), which
// makes concurrent duplicate submissions idempotent. One decorator,
// Fallback, spills to a second store while the first one fails; it is the
// only degradation layer the serving daemon stacks on a backend.
package store

import (
	"errors"
	"fmt"
	"regexp"
	"time"
)

// Sentinel errors, matched with errors.Is. They separate the caller's
// fault (ErrInvalid) and a finished store (ErrClosed) from backend I/O
// failures, which the disk backend types as analysis.Transient.
var (
	// ErrInvalid marks a request the store rejected by contract (nil
	// entry, malformed key). Retrying cannot help.
	ErrInvalid = errors.New("store: invalid request")
	// ErrClosed marks an operation on a closed store.
	ErrClosed = errors.New("store: closed")
)

// Entry is one stored record. Result entries carry a finished analysis
// report; index entries map a request fingerprint to the result key it
// resolved to, which is what lets a resubmission short-circuit before
// tracing even starts (the request fingerprint is computable from the
// request alone; the graph fingerprint is not).
type Entry struct {
	// Key is the entry's identity within the store (see ResultKey and
	// RequestKey).
	Key string `json:"key"`

	// Target, on index entries, is the result entry's key.
	Target string `json:"target,omitempty"`

	// GraphFP and OptionsFP identify the analysis a result entry answers:
	// the simplified DDG's content hash and the hash of every option that
	// changes the report.
	GraphFP   string `json:"graph_fp,omitempty"`
	OptionsFP string `json:"options_fp,omitempty"`

	// Report is the canonical report.JSON document of the run, stored as
	// opaque bytes (base64 in the serialized entry) so a warm response
	// serves the byte-identical document the cold run produced — embedding
	// it as raw JSON would let the backend's encoder reformat it.
	Report []byte `json:"report,omitempty"`

	// TracedNodes, Patterns, Degraded, and ElapsedMS summarize the run
	// that produced the result, so a warm response can describe the
	// original computation without re-parsing the report.
	TracedNodes int   `json:"traced_nodes,omitempty"`
	Patterns    int   `json:"patterns,omitempty"`
	Degraded    bool  `json:"degraded,omitempty"`
	ElapsedMS   int64 `json:"elapsed_ms,omitempty"`

	// CreatedAt is when the entry was first stored (UTC).
	CreatedAt time.Time `json:"created_at"`
}

// Store is the persistence interface. Implementations must be safe for
// concurrent use; Put must be first-write-wins (storing to an existing
// key keeps the existing entry and is not an error).
type Store interface {
	// Get returns the entry under key, or ok=false when absent.
	Get(key string) (e *Entry, ok bool, err error)
	// Put stores the entry under e.Key unless the key already exists.
	Put(e *Entry) error
	// Len returns the number of stored entries.
	Len() (int, error)
	// Close releases backend resources. The store is unusable afterwards.
	Close() error
}

// ResultKey builds a result entry's key from the graph and options
// fingerprints.
func ResultKey(graphFP, optionsFP string) string {
	return "res-" + graphFP + "-" + optionsFP
}

// RequestKey builds an index entry's key from a request fingerprint.
func RequestKey(requestFP string) string {
	return "req-" + requestFP
}

// keyPattern is the set of keys every backend accepts: the fingerprint
// alphabet plus the separators used by ResultKey/RequestKey. The disk
// backend derives filenames from keys, so the restriction is load-bearing
// there and enforced uniformly for backend interchangeability.
var keyPattern = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,200}$`)

// validate rejects entries no backend may store.
func validate(e *Entry) error {
	if e == nil {
		return fmt.Errorf("%w: nil entry", ErrInvalid)
	}
	if !keyPattern.MatchString(e.Key) {
		return fmt.Errorf("%w: key %q", ErrInvalid, e.Key)
	}
	return nil
}
