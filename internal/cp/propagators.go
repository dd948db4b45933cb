package cp

// Built-in constraints: the ones the matchers post. Each is a bounds- or
// value-consistent propagator; pattern-specific global constraints (e.g.
// reduction chains) implement Propagator directly in the patterns package.

// EqC posts x = c.
func (m *Model) EqC(x *IntVar, c int) { m.Add(&eqC{x: x, c: c}) }

type eqC struct {
	x *IntVar
	c int
}

func (p *eqC) Vars() []*IntVar { return []*IntVar{p.x} }
func (p *eqC) Propagate(s *Space) bool {
	return s.Assign(p.x, p.c)
}

// Linear posts Σ coeffs[i]*vars[i] = rhs with bounds propagation.
func (m *Model) Linear(coeffs []int, vars []*IntVar, rhs int) {
	if len(coeffs) != len(vars) {
		panic("cp: Linear coeffs/vars length mismatch")
	}
	cs := make([]int, len(coeffs))
	vs := make([]*IntVar, len(vars))
	copy(cs, coeffs)
	copy(vs, vars)
	m.Add(&linear{coeffs: cs, vars: vs, rhs: rhs})
}

// SumEq posts Σ vars = rhs.
func (m *Model) SumEq(vars []*IntVar, rhs int) {
	coeffs := make([]int, len(vars))
	for i := range coeffs {
		coeffs[i] = 1
	}
	m.Linear(coeffs, vars, rhs)
}

type linear struct {
	coeffs []int
	vars   []*IntVar
	rhs    int
}

func (p *linear) Vars() []*IntVar { return p.vars }

func (p *linear) Propagate(s *Space) bool {
	// Bounds reasoning: for each variable, the residual slack determines
	// how large/small its term may be.
	lo, hi := 0, 0
	for i, v := range p.vars {
		c := p.coeffs[i]
		if c >= 0 {
			lo += c * s.Min(v)
			hi += c * s.Max(v)
		} else {
			lo += c * s.Max(v)
			hi += c * s.Min(v)
		}
	}
	// Σ ≤ rhs: prune values that force the sum above rhs.
	if lo > p.rhs {
		s.failed = true
		return false
	}
	for i, v := range p.vars {
		c := p.coeffs[i]
		if c == 0 {
			continue
		}
		var termLo int
		if c >= 0 {
			termLo = c * s.Min(v)
		} else {
			termLo = c * s.Max(v)
		}
		slack := p.rhs - (lo - termLo)
		if c > 0 {
			if !s.RemoveAbove(v, floorDiv(slack, c)) {
				return false
			}
		} else {
			if !s.RemoveBelow(v, ceilDiv(slack, c)) {
				return false
			}
		}
	}
	// Σ ≥ rhs: prune values that force the sum below rhs.
	if hi < p.rhs {
		s.failed = true
		return false
	}
	for i, v := range p.vars {
		c := p.coeffs[i]
		if c == 0 {
			continue
		}
		var termHi int
		if c >= 0 {
			termHi = c * s.Max(v)
		} else {
			termHi = c * s.Min(v)
		}
		slack := p.rhs - (hi - termHi) // term must be ≥ slack
		if c > 0 {
			if !s.RemoveBelow(v, ceilDiv(slack, c)) {
				return false
			}
		} else {
			if !s.RemoveAbove(v, floorDiv(slack, c)) {
				return false
			}
		}
	}
	return true
}

func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// AllDifferent posts pairwise disequality over the variables (value
// consistency on assignment).
func (m *Model) AllDifferent(vars []*IntVar) {
	vs := make([]*IntVar, len(vars))
	copy(vs, vars)
	m.Add(&allDifferent{vars: vs})
}

type allDifferent struct{ vars []*IntVar }

func (p *allDifferent) Vars() []*IntVar { return p.vars }

func (p *allDifferent) Propagate(s *Space) bool {
	for _, v := range p.vars {
		if !s.Assigned(v) {
			continue
		}
		val := s.Value(v)
		for _, w := range p.vars {
			if w == v {
				continue
			}
			if s.Assigned(w) && s.Value(w) == val {
				s.failed = true
				return false
			}
			if !s.Remove(w, val) {
				return false
			}
		}
	}
	return true
}
