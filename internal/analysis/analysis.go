// Package analysis defines the structured-error layer shared by every
// stage of the pattern-discovery pipeline.
//
// The pipeline (verify → execute → trace → finalize → match) is built to
// degrade, not crash: each stage reports failure as a typed *Error that
// names the stage, the failure kind, and the program/thread context, and
// each stage's public entry point is wrapped in a recover boundary that
// converts a surviving internal panic into an Internal error instead of a
// process death. Callers classify with errors.Is/errors.As against the
// Err* sentinels, render with Error(), and attach contained failures to
// report.Diagnostics so a degraded run still produces partial results.
package analysis

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// Stage identifies the pipeline phase an error originated in.
type Stage int

const (
	// StageVerify is static program validation (mir.Validate, vm.New).
	StageVerify Stage = iota + 1
	// StageExecute is VM execution (vm.Run and everything under it).
	StageExecute
	// StageTrace is trace recording (per-thread buffers, shadow memory).
	StageTrace
	// StageFinalize is the merge of trace buffers into the frozen DDG,
	// including DDG invariant checking.
	StageFinalize
	// StageMatch is pattern finding (simplify through merge).
	StageMatch
	// StageStore is result persistence (internal/store backends and the
	// fallback decorator) — the serving layer's I/O boundary, outside the
	// verify→match pipeline proper.
	StageStore
)

// String returns the stage's lower-case name.
func (s Stage) String() string {
	switch s {
	case StageVerify:
		return "verify"
	case StageExecute:
		return "execute"
	case StageTrace:
		return "trace"
	case StageFinalize:
		return "finalize"
	case StageMatch:
		return "match"
	case StageStore:
		return "store"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Kind classifies what went wrong, independently of where.
type Kind int

const (
	// InvalidInput: the input (program, graph, buffer) is malformed or
	// misbehaves at runtime; the pipeline rejected it cleanly.
	InvalidInput Kind = iota + 1
	// InvariantViolation: an internal data-structure invariant does not
	// hold (e.g. a DDG arc flowing backwards); the producing component has
	// a bug or its input was corrupted.
	InvariantViolation
	// ResourceExhausted: a resource bound (operation budget, trace-buffer
	// capacity, the finder budget) cut the work short; partial results are
	// still meaningful, mirroring the budget semantics of core.Result.
	ResourceExhausted
	// Internal: a recovered panic — a bug contained by a recover boundary.
	Internal
	// Transient: the operation failed for a reason expected to pass — an
	// I/O error, an injected fault, a latency-induced deadline. A later
	// attempt may succeed, so the serving layer degrades (memory fallback,
	// then recompute) rather than failing the request; permanent-failure
	// kinds (InvalidInput, InvariantViolation) fail the same way again.
	Transient
)

// String returns the kind's human-readable name.
func (k Kind) String() string {
	switch k {
	case InvalidInput:
		return "invalid input"
	case InvariantViolation:
		return "invariant violation"
	case ResourceExhausted:
		return "resource exhausted"
	case Internal:
		return "internal error"
	case Transient:
		return "transient failure"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NoThread marks an error not attributable to a single VM thread.
const NoThread int32 = -1

// Error is a structured pipeline error: where it happened (Stage), what
// went wrong (Kind), and which program/thread it concerns. It wraps an
// optional cause and, for recovered panics, carries the goroutine stack.
type Error struct {
	Stage   Stage
	Kind    Kind
	Program string // traced program name, "" when unknown
	Thread  int32  // VM thread id, NoThread when not thread-specific
	Msg     string
	Stack   []byte // goroutine stack for recovered panics, else nil
	Err     error  // wrapped cause, may be nil
}

// Errorf builds an error with a formatted message.
func Errorf(stage Stage, kind Kind, format string, args ...any) *Error {
	return &Error{Stage: stage, Kind: kind, Thread: NoThread, Msg: fmt.Sprintf(format, args...)}
}

// Wrap builds an error around a cause with a formatted message.
func Wrap(stage Stage, kind Kind, err error, format string, args ...any) *Error {
	e := Errorf(stage, kind, format, args...)
	e.Err = err
	return e
}

// Recovered converts a recovered panic value into an Internal error
// carrying the panic message and the goroutine stack. A panic whose value
// already is an *Error passes through unchanged, so components deep in a
// callback chain can throw structured errors across frames they do not
// own and still surface them typed at the recover boundary.
func Recovered(stage Stage, v any) *Error {
	if e, ok := v.(*Error); ok {
		return e
	}
	e := Errorf(stage, Internal, "recovered panic: %v", v)
	e.Stack = debug.Stack()
	if cause, ok := v.(error); ok {
		e.Err = cause
	}
	return e
}

// InProgram attaches the program name if none is set, returning e.
func (e *Error) InProgram(name string) *Error {
	if e.Program == "" {
		e.Program = name
	}
	return e
}

// OnThread attaches the VM thread id if none is set, returning e.
func (e *Error) OnThread(id int32) *Error {
	if e.Thread == NoThread {
		e.Thread = id
	}
	return e
}

// Error renders "stage: kind: [program "p":] [thread t:] msg[: cause]".
func (e *Error) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s", e.Stage, e.Kind)
	if e.Program != "" {
		fmt.Fprintf(&sb, ": program %q", e.Program)
	}
	if e.Thread > NoThread {
		fmt.Fprintf(&sb, ": thread %d", e.Thread)
	}
	if e.Msg != "" {
		sb.WriteString(": ")
		sb.WriteString(e.Msg)
	}
	if e.Err != nil {
		sb.WriteString(": ")
		sb.WriteString(e.Err.Error())
	}
	return sb.String()
}

// Unwrap returns the wrapped cause.
func (e *Error) Unwrap() error { return e.Err }

// Is matches classification, not context: the target must be an *Error,
// and each of its non-zero Stage/Kind fields must equal e's. Program,
// Thread, and Msg are context and are ignored, so
//
//	errors.Is(err, analysis.ErrInvalidInput)
//	errors.Is(err, &analysis.Error{Stage: analysis.StageFinalize})
//
// test "any invalid input" and "anything from finalize" respectively.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	if t.Stage != 0 && t.Stage != e.Stage {
		return false
	}
	if t.Kind != 0 && t.Kind != e.Kind {
		return false
	}
	return t.Stage != 0 || t.Kind != 0
}

// Sentinels for errors.Is kind classification.
var (
	ErrInvalidInput       = &Error{Kind: InvalidInput}
	ErrInvariantViolation = &Error{Kind: InvariantViolation}
	ErrResourceExhausted  = &Error{Kind: ResourceExhausted}
	ErrInternal           = &Error{Kind: Internal}
	ErrTransient          = &Error{Kind: Transient}
)
