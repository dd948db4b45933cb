package ddg

// FuzzPagedCSR drives the out-of-core pager with fuzzer-shaped graphs,
// budgets, and segment sizes, and checks what paging promises: a spilled
// graph answers every adjacency read, from two goroutines at once, with
// exactly the bytes the resident arrays held, still passes full invariant
// checking, and never holds more than its budget plus one segment. The
// graph derivation from the input bytes is deterministic, so every crash
// reproduces.

import (
	"sync"
	"testing"

	"discovery/internal/mir"
)

// graphFromBytes builds a frozen DAG where node i+1's predecessors are
// carved from data[i] — always < i+1, so the stream is valid by
// construction and the fuzzer controls fan-in, hubs, and empty lists.
func graphFromBytes(data []byte) (*Graph, error) {
	if len(data) > 256 {
		data = data[:256]
	}
	fb := NewFrozenBuilder(len(data)+1, len(data)*3)
	pos := mir.Pos{File: "fuzz.c", Line: 1}
	fb.AddNode(mir.OpFAdd, fb.PosID(pos), 0, fb.ScopeID(nil))
	for i, b := range data {
		id := i + 1
		var preds []NodeID
		if b&1 != 0 {
			preds = append(preds, NodeID(int(b>>1)%id))
		}
		if b&2 != 0 {
			preds = append(preds, NodeID(int(b>>3)%id))
		}
		if b&4 != 0 {
			preds = append(preds, NodeID(i)) // chain arc: previous node
		}
		fb.AddNode(mir.OpFMul, fb.PosID(pos), int32(b>>6), fb.ScopeID(nil), preds...)
	}
	return fb.Finish()
}

func FuzzPagedCSR(f *testing.F) {
	f.Add([]byte{}, uint16(1), uint8(0))
	f.Add([]byte{7, 255, 3, 128, 64, 12, 9}, uint16(16), uint8(8))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255}, uint16(4), uint8(1))
	f.Add([]byte{1, 2, 4, 8, 16, 32, 64, 128}, uint16(1024), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, budget uint16, segBytes uint8) {
		resident, err := graphFromBytes(data)
		if err != nil {
			t.Fatalf("resident build: %v", err)
		}
		paged, err := graphFromBytes(data)
		if err != nil {
			t.Fatalf("paged build: %v", err)
		}
		want := renderAdj(resident)
		cfg := SpillConfig{
			Dir:          t.TempDir(),
			Budget:       int64(budget)%4096 + 1,
			SegmentBytes: int(segBytes),
		}
		if err := paged.SpillArcs(cfg); err != nil {
			t.Fatalf("SpillArcs(budget=%d seg=%d): %v", cfg.Budget, cfg.SegmentBytes, err)
		}
		defer paged.CloseSpill()
		var renders [2]string
		var wg sync.WaitGroup
		for i := range renders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				renders[i] = renderAdj(paged)
			}()
		}
		wg.Wait()
		for _, got := range renders {
			if got != want {
				t.Fatalf("paged adjacency diverged (budget=%d seg=%d):\ngot:\n%swant:\n%s",
					cfg.Budget, cfg.SegmentBytes, got, want)
			}
		}
		if err := paged.CheckInvariants(); err != nil {
			t.Fatalf("spilled graph fails invariants: %v", err)
		}
		if paged.Fingerprint() != resident.Fingerprint() {
			t.Fatal("fingerprints diverged after spilling")
		}
		st := paged.PageStats()
		if st.SpilledBytes != int64(resident.NumArcs())*2*4 {
			t.Fatalf("spilled %d bytes, want %d", st.SpilledBytes, resident.NumArcs()*2*4)
		}
		largest := int64(0)
		for _, tab := range []*arcTable{&paged.pager.succ, &paged.pager.pred} {
			for s := range tab.segs {
				largest = max(largest, int64(tab.segs[s].arcs)*4)
			}
		}
		if st.PeakResidentBytes > cfg.Budget+largest {
			t.Fatalf("peak resident %d bytes over budget %d plus the largest segment's %d",
				st.PeakResidentBytes, cfg.Budget, largest)
		}
	})
}

// setPairFromBytes carves two sets from the fuzzer's bytes. data[0] picks
// where the rest splits and a run-length multiplier for the second set,
// so pairs range from equal sizes to one set over a hundred times the
// other's (the binary-search branch of SubsetOf). Each byte
// adds a run of ids: its high nibble is the gap from the previous run's
// start, its low nibble the run's length.
func setPairFromBytes(data []byte) (Set, Set) {
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) > 256 {
		data = data[:256]
	}
	head, rest := data[0], data[1:]
	split := int(head) % (len(rest) + 1)
	runs := func(bs []byte, mult NodeID) Set {
		var ids []NodeID
		var cur NodeID
		for _, b := range bs {
			cur += NodeID(b >> 4)
			for k := NodeID(0); k < (NodeID(b&15)+1)*mult; k++ {
				ids = append(ids, cur+k)
			}
		}
		return NewSet(ids...)
	}
	return runs(rest[:split], 1), runs(rest[split:], NodeID(head>>4)*8+1)
}

// FuzzSetOps checks the set algebra against a map-based reference, in
// both argument orders.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x13, 0x21, 0x05, 0x30})
	f.Add([]byte{0xf2, 0x01, 0x12, 0x00, 0x31})
	f.Add([]byte{0x83, 0x10, 0x11, 0x12, 0x4f, 0x0f, 0x2a})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := setPairFromBytes(data)
		for _, p := range [][2]Set{{a, b}, {b, a}} {
			s, u := p[0], p[1]
			inS, inU := map[NodeID]bool{}, map[NodeID]bool{}
			for _, id := range s {
				inS[id] = true
			}
			for _, id := range u {
				inU[id] = true
			}
			var union, diff, inter []NodeID
			for id := range inS {
				union = append(union, id)
				if inU[id] {
					inter = append(inter, id)
				} else {
					diff = append(diff, id)
				}
			}
			for id := range inU {
				if !inS[id] {
					union = append(union, id)
				}
			}
			if got, want := s.Union(u), NewSet(union...); !got.Equal(want) {
				t.Fatalf("%v ∪ %v = %v, want %v", s, u, got, want)
			}
			if got, want := s.Diff(u), NewSet(diff...); !got.Equal(want) {
				t.Fatalf("%v \\ %v = %v, want %v", s, u, got, want)
			}
			if got, want := s.Intersect(u), NewSet(inter...); !got.Equal(want) {
				t.Fatalf("%v ∩ %v = %v, want %v", s, u, got, want)
			}
			if got, want := s.SubsetOf(u), len(diff) == 0; got != want {
				t.Fatalf("%v ⊆ %v = %v, want %v", s, u, got, want)
			}
			if got, want := s.Disjoint(u), len(inter) == 0; got != want {
				t.Fatalf("%v disjoint from %v = %v, want %v", s, u, got, want)
			}
		}
	})
}

// scopesFromBytes replays the fuzzer's bytes as a loop-scope program and
// returns one scope per emitted node. Each byte's low two bits pick an
// action — 0 enters loop 1+(b>>2)%3 as a fresh invocation (re-entering a
// loop already on the chain is how recursion looks), 1 advances the top
// frame's iteration, 2 exits the top frame, 3 changes nothing — and every
// action is followed by b>>6 nodes in the resulting scope.
func scopesFromBytes(data []byte) []*Scope {
	if len(data) > 256 {
		data = data[:256]
	}
	var s *Scope
	var inv uint64
	var scopes []*Scope
	for _, b := range data {
		switch b & 3 {
		case 0:
			s = s.Enter(mir.LoopID(1+(b>>2)%3), inv)
			inv++
		case 1:
			if s != nil {
				s = s.NextIter()
			}
		case 2:
			if s != nil {
				s = s.Exit()
			}
		}
		for k := 0; k < int(b>>6); k++ {
			scopes = append(scopes, s)
		}
	}
	return scopes
}

// FuzzIterIndex checks the derived loop-iteration indexes against the
// scope chains they summarize: for every node × loop, a graph built
// through FrozenBuilder must index the node exactly under the frame
// Scope.FrameFor reports, with sorted keys, and pass CheckInvariants.
func FuzzIterIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x40, 0x41, 0x41, 0x42, 0x43})
	f.Add([]byte{0x40, 0x44, 0xc0, 0x41, 0x81, 0x42, 0x41, 0xc3})       // recursion: loop 1 inside loop 2 inside loop 1
	f.Add([]byte{0x80, 0x41, 0x46, 0x41, 0xc2, 0xc2, 0x40, 0xc1, 0x03}) // nested, exited, re-entered
	f.Fuzz(func(t *testing.T, data []byte) {
		scopes := scopesFromBytes(data)
		fb := NewFrozenBuilder(len(scopes), len(scopes))
		pos := mir.Pos{File: "fuzz.c", Line: 1}
		for i, s := range scopes {
			var preds []NodeID
			if i > 0 && data[i%len(data)]&0x20 != 0 {
				preds = append(preds, NodeID(i-1))
			}
			fb.AddNode(mir.OpAdd, fb.PosID(pos), 0, fb.ScopeID(s), preds...)
		}
		g, err := fb.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		checkAgainstFrames(t, g, []mir.LoopID{1, 2, 3, 4})
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("CheckInvariants: %v", err)
		}
	})
}
