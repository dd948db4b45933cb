package analysis

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestErrorFormatting(t *testing.T) {
	e := Errorf(StageVerify, InvalidInput, "entry missing").InProgram("kmeans")
	want := `verify: invalid input: program "kmeans": entry missing`
	if got := e.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	e2 := Wrap(StageExecute, ResourceExhausted, errors.New("budget"), "op limit").
		InProgram("md5").OnThread(3)
	for _, part := range []string{"execute", "resource exhausted", `"md5"`, "thread 3", "op limit", "budget"} {
		if !strings.Contains(e2.Error(), part) {
			t.Errorf("Error() = %q missing %q", e2.Error(), part)
		}
	}
}

func TestErrorsIsClassification(t *testing.T) {
	e := Errorf(StageFinalize, InvariantViolation, "arc flows backwards")
	wrapped := fmt.Errorf("tracing: %w", e)

	if !errors.Is(wrapped, ErrInvariantViolation) {
		t.Error("kind sentinel did not match through wrapping")
	}
	if errors.Is(wrapped, ErrInvalidInput) {
		t.Error("wrong kind sentinel matched")
	}
	if !errors.Is(wrapped, &Error{Stage: StageFinalize}) {
		t.Error("stage wildcard did not match")
	}
	if errors.Is(wrapped, &Error{Stage: StageMatch}) {
		t.Error("wrong stage matched")
	}
	if !errors.Is(wrapped, &Error{Stage: StageFinalize, Kind: InvariantViolation}) {
		t.Error("stage+kind did not match")
	}
	if errors.Is(wrapped, &Error{}) {
		t.Error("empty target must not match everything")
	}
}

func TestErrorsAs(t *testing.T) {
	e := Errorf(StageMatch, Internal, "boom").OnThread(2)
	wrapped := fmt.Errorf("outer: %w", e)
	var ae *Error
	if !errors.As(wrapped, &ae) {
		t.Fatal("errors.As failed")
	}
	if ae.Thread != 2 || ae.Stage != StageMatch {
		t.Errorf("As extracted %+v", ae)
	}
}

func TestRecovered(t *testing.T) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = Recovered(StageExecute, r)
			}
		}()
		panic("index out of range")
	}()
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("recovered error has type %T", err)
	}
	if ae.Kind != Internal || ae.Stage != StageExecute {
		t.Errorf("recovered classification = %v/%v", ae.Stage, ae.Kind)
	}
	if len(ae.Stack) == 0 {
		t.Error("recovered panic lost its stack")
	}
	if !strings.Contains(ae.Error(), "index out of range") {
		t.Errorf("recovered message lost: %v", ae)
	}
}

func TestRecoveredPassesThroughStructuredThrows(t *testing.T) {
	thrown := Errorf(StageTrace, ResourceExhausted, "buffer full").OnThread(7)
	got := Recovered(StageFinalize, thrown)
	if got != thrown {
		t.Error("structured panic value was re-wrapped instead of passed through")
	}
	if !errors.Is(got, ErrResourceExhausted) {
		t.Error("pass-through lost classification")
	}
}

func TestContextSettersDoNotOverwrite(t *testing.T) {
	e := Errorf(StageExecute, Internal, "x").InProgram("a").OnThread(1)
	e.InProgram("b").OnThread(2)
	if e.Program != "a" || e.Thread != 1 {
		t.Errorf("context overwritten: %+v", e)
	}
}

func TestStoreStageAndTransientKind(t *testing.T) {
	e := Errorf(StageStore, Transient, "injected store fault")
	for _, part := range []string{"store", "transient failure", "injected store fault"} {
		if !strings.Contains(e.Error(), part) {
			t.Errorf("Error() = %q missing %q", e.Error(), part)
		}
	}
	wrapped := fmt.Errorf("putting entry: %w", e)
	if !errors.Is(wrapped, ErrTransient) {
		t.Error("transient sentinel did not match through wrapping")
	}
	if errors.Is(wrapped, ErrInvalidInput) {
		t.Error("wrong kind sentinel matched")
	}
	if !errors.Is(wrapped, &Error{Stage: StageStore}) {
		t.Error("store stage wildcard did not match")
	}
	// Permanent kinds must stay distinguishable from transient ones: a
	// caller's fault must never read as a backend outage.
	if errors.Is(Errorf(StageStore, InvalidInput, "bad key"), ErrTransient) {
		t.Error("invalid input classified transient")
	}
}
