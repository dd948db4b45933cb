package server

// Admission brownout: under queue pressure the server progressively clamps
// per-request budgets — producing honest, explicitly degraded results —
// before it resorts to rejecting with 503.
const (
	// brownoutThreshold is the queue occupancy (0..1] where clamping
	// starts.
	brownoutThreshold = 0.75
	// brownoutFloor is the budget fraction still granted at 100%
	// occupancy (the bottom of the clamp curve).
	brownoutFloor = 0.1
)

// brownoutFactor maps queue occupancy to a budget multiplier: 1 below the
// threshold, then linearly down to the floor at full occupancy. The curve
// is the degradation ladder's middle rung — between full service and 503 —
// and is deliberately monotone and continuous so budgets shrink smoothly
// as pressure builds instead of cliff-dropping.
func brownoutFactor(occupancy float64) float64 {
	if occupancy <= brownoutThreshold {
		return 1
	}
	if occupancy >= 1 {
		return brownoutFloor
	}
	span := 1 - brownoutThreshold
	return 1 - (occupancy-brownoutThreshold)/span*(1-brownoutFloor)
}
