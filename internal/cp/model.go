package cp

import "fmt"

// IntVar is a finite-domain integer variable. Variables are created on a
// Model; their domains live in Spaces so that search can copy state at
// choice points.
type IntVar struct {
	id   int
	name string
}

func (v *IntVar) String() string { return v.name }

// Model declares variables and constraints.
type Model struct {
	vars     []*IntVar
	initial  []domain
	props    []Propagator
	watchers [][]int // var id -> propagator indices
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NewIntVar declares a variable with domain {lo, ..., hi}.
func (m *Model) NewIntVar(name string, lo, hi int) *IntVar {
	return m.newVar(name, newDomainRange(lo, hi))
}

// NewBoolVar declares a 0/1 variable.
func (m *Model) NewBoolVar(name string) *IntVar { return m.NewIntVar(name, 0, 1) }

func (m *Model) newVar(name string, d domain) *IntVar {
	v := &IntVar{id: len(m.vars), name: name}
	m.vars = append(m.vars, v)
	m.initial = append(m.initial, d)
	m.watchers = append(m.watchers, nil)
	return v
}

// Add registers a propagator and subscribes it to its variables.
func (m *Model) Add(p Propagator) {
	idx := len(m.props)
	m.props = append(m.props, p)
	for _, v := range p.Vars() {
		m.watchers[v.id] = append(m.watchers[v.id], idx)
	}
}

// Propagator prunes variable domains. Propagate returns false on failure
// (an empty domain or detected inconsistency). Propagators must be
// idempotent and monotone.
type Propagator interface {
	// Vars returns the variables whose domain changes re-trigger this
	// propagator.
	Vars() []*IntVar
	// Propagate prunes domains in the space.
	Propagate(s *Space) bool
}

// Space is one node of the search tree: a set of variable domains. Spaces
// are copied at choice points (a copying solver, in the style of Gecode).
type Space struct {
	model *Model
	doms  []domain
	// queue of propagator indices scheduled for execution
	queued []bool
	queue  []int
	failed bool
}

func (m *Model) newSpace() *Space {
	s := &Space{
		model:  m,
		doms:   make([]domain, len(m.initial)),
		queued: make([]bool, len(m.props)),
	}
	for i, d := range m.initial {
		s.doms[i] = d.clone()
		if d.empty() {
			s.failed = true
		}
	}
	return s
}

func (s *Space) clone() *Space {
	c := &Space{
		model:  s.model,
		doms:   make([]domain, len(s.doms)),
		queued: make([]bool, len(s.model.props)),
		failed: s.failed,
	}
	for i := range s.doms {
		c.doms[i] = s.doms[i].clone()
	}
	return c
}

// Min returns the smallest value in v's domain.
func (s *Space) Min(v *IntVar) int { return s.doms[v.id].min() }

// Max returns the largest value in v's domain.
func (s *Space) Max(v *IntVar) int { return s.doms[v.id].max() }

// Size returns the cardinality of v's domain.
func (s *Space) Size(v *IntVar) int { return s.doms[v.id].size }

// Contains reports whether value is in v's domain.
func (s *Space) Contains(v *IntVar, value int) bool { return s.doms[v.id].contains(value) }

// Assigned reports whether v is fixed to a single value.
func (s *Space) Assigned(v *IntVar) bool { return s.doms[v.id].singleton() }

// Value returns v's value; v must be assigned.
func (s *Space) Value(v *IntVar) int {
	d := &s.doms[v.id]
	if !d.singleton() {
		panic(fmt.Sprintf("cp: Value of unassigned variable %s with domain %s", v.name, d))
	}
	return d.min()
}

// Values lists v's domain.
func (s *Space) Values(v *IntVar) []int { return s.doms[v.id].values() }

// Remove prunes value from v's domain, scheduling watchers. It returns
// false if the domain became empty.
func (s *Space) Remove(v *IntVar, value int) bool {
	d := &s.doms[v.id]
	if d.remove(value) {
		if d.empty() {
			s.failed = true
			return false
		}
		s.schedule(v)
	}
	return true
}

// Assign fixes v to value. It returns false if value is not in the domain.
func (s *Space) Assign(v *IntVar, value int) bool {
	d := &s.doms[v.id]
	if d.singleton() && d.min() == value {
		return true
	}
	if !d.assign(value) {
		s.failed = true
		return false
	}
	s.schedule(v)
	return true
}

// RemoveBelow prunes all values < bound from v's domain.
func (s *Space) RemoveBelow(v *IntVar, bound int) bool {
	d := &s.doms[v.id]
	if d.removeBelow(bound) {
		if d.empty() {
			s.failed = true
			return false
		}
		s.schedule(v)
	}
	return true
}

// RemoveAbove prunes all values > bound from v's domain.
func (s *Space) RemoveAbove(v *IntVar, bound int) bool {
	d := &s.doms[v.id]
	if d.removeAbove(bound) {
		if d.empty() {
			s.failed = true
			return false
		}
		s.schedule(v)
	}
	return true
}

// schedule enqueues the watchers of v.
func (s *Space) schedule(v *IntVar) {
	for _, idx := range s.model.watchers[v.id] {
		if !s.queued[idx] {
			s.queued[idx] = true
			s.queue = append(s.queue, idx)
		}
	}
}

// propagate runs scheduled propagators to a fixpoint. It returns false on
// failure. stats may be nil.
func (s *Space) propagate(stats *Stats) bool {
	for len(s.queue) > 0 {
		idx := s.queue[0]
		s.queue = s.queue[1:]
		s.queued[idx] = false
		if stats != nil {
			stats.Propagations++
		}
		if !s.model.props[idx].Propagate(s) || s.failed {
			s.failed = true
			return false
		}
	}
	return true
}

// scheduleAll enqueues every propagator (used at the root).
func (s *Space) scheduleAll() {
	for i := range s.model.props {
		if !s.queued[i] {
			s.queued[i] = true
			s.queue = append(s.queue, i)
		}
	}
}

// Solution is a complete assignment.
type Solution map[*IntVar]int

// Value returns the assigned value of v in the solution.
func (sol Solution) Value(v *IntVar) int { return sol[v] }
