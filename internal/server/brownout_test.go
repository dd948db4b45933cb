package server

import (
	"context"
	"math"
	"testing"

	"discovery/internal/store"
)

// TestBrownoutFactorCurve pins the clamp curve: identity below the
// threshold, linear decay to the floor at full occupancy, monotone and
// continuous in between.
func TestBrownoutFactorCurve(t *testing.T) {
	for _, tc := range []struct {
		occupancy, want float64
	}{
		{0, 1},
		{0.5, 1},
		{0.75, 1},     // at the threshold: still full budget
		{0.875, 0.55}, // halfway down the ramp
		{1, 0.1},      // the floor
		{1.5, 0.1},    // occupancy can momentarily read past 1
	} {
		if got := brownoutFactor(tc.occupancy); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("brownoutFactor(%v) = %v, want %v", tc.occupancy, got, tc.want)
		}
	}
	prev := 2.0
	for o := 0.0; o <= 1.0; o += 0.01 {
		f := brownoutFactor(o)
		if f > prev+1e-9 {
			t.Fatalf("brownoutFactor not monotone at occupancy %v", o)
		}
		prev = f
	}
}

// TestBrownoutClampsBudget drives process with a saturated queue reading
// and asserts the clamp is applied, counted, and disclosed in the
// response diagnostics.
func TestBrownoutClampsBudget(t *testing.T) {
	st := store.NewMemory()
	s := New(Config{Store: st})
	defer func() { s.Close(); st.Close() }()

	req := &Request{Bench: "md5", Version: "seq"}
	resp, herr := s.process(context.Background(), req, 0, 1.0)
	if herr != nil {
		t.Fatalf("process under full occupancy: %+v", herr)
	}
	if resp.Diagnostics.BrownoutMS <= 0 {
		t.Fatalf("brownout clamp not disclosed: %+v", resp.Diagnostics)
	}
	if s.brownouts.Load() != 1 {
		t.Fatalf("brownouts counter %d, want 1", s.brownouts.Load())
	}

	// Below the threshold nothing is clamped.
	resp, herr = s.process(context.Background(), req, 0, 0.5)
	if herr != nil {
		t.Fatalf("process at half occupancy: %+v", herr)
	}
	if resp.Diagnostics.BrownoutMS != 0 || s.brownouts.Load() != 1 {
		t.Fatalf("clamp below threshold: diag %+v counter %d", resp.Diagnostics, s.brownouts.Load())
	}
}
