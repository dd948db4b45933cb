package ddg

import (
	"fmt"
	"strings"

	"discovery/internal/mir"
)

// Scope records the dynamic loop scope of a node as a persistent stack of
// loop frames. Sharing tails keeps per-node scope cost constant. Each loop
// *entry* gets a fresh invocation id, so iterations of the same static loop
// executed by different threads (or by repeated calls) remain distinct
// dynamic iterations — exactly what lets a work-split Pthreads loop compact
// to one node per data element, the same as its sequential counterpart.
type Scope struct {
	Parent     *Scope
	Loop       mir.LoopID
	Invocation uint64
	Iter       int64
}

// Enter pushes a frame for a new loop invocation; iteration starts at 0.
func (s *Scope) Enter(loop mir.LoopID, invocation uint64) *Scope {
	return (*ScopeSlab)(nil).Enter(s, loop, invocation)
}

// NextIter returns the scope advanced to the next iteration of its top
// frame. Scopes are immutable; a fresh frame is returned.
func (s *Scope) NextIter() *Scope { return (*ScopeSlab)(nil).NextIter(s) }

// ScopeSlab allocates scope frames in fixed-size chunks, so a loop costs
// one allocation per chunk of iterations rather than one per iteration.
// The zero value is ready to use; a nil *ScopeSlab allocates each frame on
// its own. A slab is not safe for concurrent use (the VM keeps one per
// thread), but the frames it returns are ordinary immutable Scopes.
type ScopeSlab struct {
	free []Scope
}

// scopeSlabChunk is the number of frames one slab allocation holds.
const scopeSlabChunk = 256

func (a *ScopeSlab) frame(f Scope) *Scope {
	var s *Scope
	if a == nil {
		s = new(Scope)
	} else {
		if len(a.free) == 0 {
			a.free = make([]Scope, scopeSlabChunk)
		}
		s, a.free = &a.free[0], a.free[1:]
	}
	*s = f
	return s
}

// Enter is s.Enter(loop, invocation) with the frame taken from the slab.
func (a *ScopeSlab) Enter(s *Scope, loop mir.LoopID, invocation uint64) *Scope {
	return a.frame(Scope{Parent: s, Loop: loop, Invocation: invocation})
}

// NextIter is s.NextIter() with the frame taken from the slab.
func (a *ScopeSlab) NextIter(s *Scope) *Scope {
	return a.frame(Scope{Parent: s.Parent, Loop: s.Loop, Invocation: s.Invocation, Iter: s.Iter + 1})
}

// Exit pops the top frame.
func (s *Scope) Exit() *Scope { return s.Parent }

// Contains reports whether the scope (or an enclosing frame) is inside the
// given static loop.
func (s *Scope) Contains(loop mir.LoopID) bool {
	for f := s; f != nil; f = f.Parent {
		if f.Loop == loop {
			return true
		}
	}
	return false
}

// FrameFor returns the (invocation, iteration) of the frame for the given
// static loop, walking outward from the innermost frame.
func (s *Scope) FrameFor(loop mir.LoopID) (invocation uint64, iter int64, ok bool) {
	for f := s; f != nil; f = f.Parent {
		if f.Loop == loop {
			return f.Invocation, f.Iter, true
		}
	}
	return 0, 0, false
}

// String renders the scope innermost-last, e.g. "L1#0[3]/L2#7[0]".
func (s *Scope) String() string {
	if s == nil {
		return "-"
	}
	var frames []string
	for f := s; f != nil; f = f.Parent {
		frames = append(frames, fmt.Sprintf("L%d#%d[%d]", f.Loop, f.Invocation, f.Iter))
	}
	// Reverse to outermost-first.
	for i, j := 0, len(frames)-1; i < j; i, j = i+1, j-1 {
		frames[i], frames[j] = frames[j], frames[i]
	}
	return strings.Join(frames, "/")
}

// IterationKey identifies one dynamic iteration of one static loop:
// compaction groups nodes by this key (paper §5, DDG Compaction).
type IterationKey struct {
	Loop       mir.LoopID
	Invocation uint64
	Iter       int64
}

// IterationOf returns the iteration key of node u with respect to loop, or
// ok=false if u did not execute inside that loop.
func (g *Graph) IterationOf(u NodeID, loop mir.LoopID) (IterationKey, bool) {
	inv, iter, ok := g.ScopeOf(u).FrameFor(loop)
	if !ok {
		return IterationKey{}, false
	}
	return IterationKey{Loop: loop, Invocation: inv, Iter: iter}, true
}
