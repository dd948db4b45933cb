package ddg

import (
	"slices"
	"strconv"
)

// Set is a sorted, duplicate-free set of node ids. The zero value is the
// empty set. Sets are the currency of the iterative pattern finder:
// sub-DDGs, matched components, subtraction and fusion all operate on node
// sets over the original graph (paper §5).
type Set []NodeID

// NewSet builds a set from arbitrary ids, sorting and deduplicating.
func NewSet(ids ...NodeID) Set {
	s := make(Set, len(ids))
	copy(s, ids)
	slices.Sort(s)
	return slices.Compact(s)
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// Contains reports membership via binary search.
func (s Set) Contains(id NodeID) bool {
	_, found := slices.BinarySearch(s, id)
	return found
}

// IndexOf returns the position of id in the sorted set, or -1 if absent.
func (s Set) IndexOf(id NodeID) int {
	if i, found := slices.BinarySearch(s, id); found {
		return i
	}
	return -1
}

// IndexFrom is IndexOf searching outward from position i, which must
// index s: it gallops toward id at doubling distances, then
// binary-searches the bracket it found. A successor of s[i] usually sits
// a few positions on, so the search costs the logarithm of that distance
// rather than of len(s).
func (s Set) IndexFrom(i int, id NodeID) int {
	if id < s[i] {
		return s[:i].IndexOf(id)
	}
	lo, step := i, 1
	for lo+step < len(s) && s[lo+step] < id {
		lo += step
		step *= 2
	}
	if j := s[lo:min(lo+step+1, len(s))].IndexOf(id); j >= 0 {
		return lo + j
	}
	return -1
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// skewed reports whether t is so much larger than s that walking s and
// binary-searching each element in t beats the linear merge: a handful of
// nodes tested against one huge pattern. A probe is a branch the CPU
// mispredicts half the time, a merge step a compare it predicts, so the
// merge wins well past 8 elements of t per element of s (ray-rot's
// subtract diffs ran slower binary-searched at that ratio).
func skewed(s, t Set) bool { return len(t) > 32*len(s) }

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	out := make(Set, 0, len(s))
	i, j := 0, 0
	for i < len(s) {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j < len(t) && t[j] == s[i] {
			i++
			continue
		}
		out = append(out, s[i])
		i++
	}
	return out
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	out := make(Set, 0, min(len(s), len(t)))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	if skewed(s, t) {
		j := 0
		for _, id := range s {
			k, found := slices.BinarySearch(t[j:], id)
			if !found {
				return false
			}
			j += k + 1
		}
		return true
	}
	i, j := 0, 0
	for i < len(s) {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j >= len(t) || t[j] != s[i] {
			return false
		}
		i++
		j++
	}
	return true
}

// Disjoint reports whether s ∩ t = ∅.
func (s Set) Disjoint(t Set) bool {
	if len(s) == 0 || len(t) == 0 {
		return true
	}
	// Range fast path: node sets are localized in the id space, so two
	// of them often do not even overlap in range.
	if s[len(s)-1] < t[0] || t[len(t)-1] < s[0] {
		return true
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// Key returns a canonical, human-readable string key for the set. Tests
// use it to compare node sets by value; the finder's pool deduplicates by
// the 128-bit SubDDG.Key instead.
func (s Set) Key() string {
	buf := make([]byte, 0, len(s)*7)
	for i, id := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(id), 10)
	}
	return string(buf)
}

// Partition splits s into sets by label: s[i] goes to set label[i], in
// [0, k), and the sets of fewer than minLen members are left out, so that
// only the kept members and set headers are allocated. It is a counting
// sort whose forward fill keeps every set ascending; the kept sets follow
// label order. They share one backing array, each capped at its own
// length, so appending to one never overwrites the next.
func Partition(s Set, label []int32, k, minLen int) []Set {
	size := make([]int32, k)
	for _, c := range label {
		size[c]++
	}
	kept, total := 0, 0
	for _, n := range size {
		if int(n) >= minLen {
			kept++
			total += int(n)
		}
	}
	all := make(Set, total)
	out := make([]Set, 0, kept)
	// size[c] becomes label c's index in out, or -1 for a dropped set.
	off := 0
	for c, n := range size {
		if int(n) < minLen {
			size[c] = -1
			continue
		}
		size[c] = int32(len(out))
		out = append(out, all[off:off:off+int(n)])
		off += int(n)
	}
	for i, c := range label {
		if j := size[c]; j >= 0 {
			out[j] = append(out[j], s[i])
		}
	}
	return out
}

// UnionAll returns the union of several sets in one allocation: the
// pieces are concatenated, and when each nonempty piece starts above the
// previous one's last id the concatenation is already the union.
// Otherwise it is sorted and compacted. Linear in the total length for
// ordered pieces, where folding Union one set at a time is quadratic in
// their number.
func UnionAll(sets ...Set) Set {
	if len(sets) == 0 {
		return nil
	}
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	out := make(Set, 0, n)
	ordered := true
	for _, s := range sets {
		if len(s) == 0 {
			continue
		}
		if len(out) > 0 && s[0] <= out[len(out)-1] {
			ordered = false
		}
		out = append(out, s...)
	}
	if !ordered {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}
