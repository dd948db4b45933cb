package ddg

import (
	"slices"
	"sort"
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
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	var prev NodeID
	for i, id := range s {
		if i > 0 && id == prev {
			continue
		}
		out = append(out, id)
		prev = id
	}
	return out
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// Contains reports membership via binary search.
func (s Set) Contains(id NodeID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// IndexOf returns the position of id in the sorted set, or -1 if absent.
func (s Set) IndexOf(id NodeID) int {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return i
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
	if skewed(s, t) {
		j := 0
		for _, id := range s {
			k, found := slices.BinarySearch(t[j:], id)
			j += k
			if !found {
				out = append(out, id)
			}
		}
		return out
	}
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

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// UnionAll returns the union of several sets.
func UnionAll(sets ...Set) Set {
	var out Set
	for _, s := range sets {
		out = out.Union(s)
	}
	return out
}
