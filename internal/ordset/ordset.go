// Package ordset provides an ordered set of small non-negative ints as
// a two-level bitmap: one bit per value in 64-bit words, and a summary
// word per 64 words whose bit w%64 says words[w] is non-empty.
//
// The DSI client keeps its known frames and its pending units in these
// sets, one per span of a few thousand frames, and mutates them on every
// fact it learns. Costs per operation:
//
//   - Insert, Add, Delete and Contains touch one word and at most one
//     summary bit: O(1).
//   - Ceil, Next and Prev scan the rest of one word, then the summary for
//     the next non-empty word: O(1) plus one summary word per 4096 values
//     skipped.
//   - FloorKey probes successors in a binary search over the value
//     space: O(log of the largest element) successor probes.
//   - Reset walks the summary and clears only the non-empty words.
//   - AppendTo and a full iteration cost O(elements + non-empty words).
//
// Memory is the largest value ever inserted / 8 bytes per set (plus
// 1/64 of that for the summary). Storage grows lazily and is retained
// across Reset, so a long-lived query session re-running queries
// reaches a steady state with zero allocations.
//
// An Iter is a value — a set and a position — so it survives mutation
// of its set: stepping from a deleted element finds that position's
// neighbours.
package ordset

import "math/bits"

// Set is an ordered set of non-negative ints. The zero value is an empty
// set ready for use. Sets are not safe for concurrent mutation.
type Set struct {
	words   []uint64 // bit v%64 of words[v/64] is set iff v is an element
	summary []uint64 // bit w%64 of summary[w/64] is set iff words[w] != 0
	n       int
}

// Len returns the number of elements.
func (s *Set) Len() int { return s.n }

// Reset empties the set, retaining its storage, in time proportional to
// the non-empty words.
func (s *Set) Reset() {
	for sw, m := range s.summary {
		if m == 0 {
			continue
		}
		for ; m != 0; m &= m - 1 {
			s.words[sw<<6+bits.TrailingZeros64(m)] = 0
		}
		s.summary[sw] = 0
	}
	s.n = 0
}

// grow extends the storage to hold word w.
func (s *Set) grow(w int) {
	s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	if need := w>>6 + 1; need > len(s.summary) {
		s.summary = append(s.summary, make([]uint64, need-len(s.summary))...)
	}
}

// Insert adds v to the set and reports whether it was absent.
func (s *Set) Insert(v int) bool {
	w := v >> 6
	if w >= len(s.words) {
		s.grow(w)
	}
	bit := uint64(1) << (v & 63)
	old := s.words[w]
	if old&bit != 0 {
		return false
	}
	if old == 0 {
		s.summary[w>>6] |= 1 << (w & 63)
	}
	s.words[w] = old | bit
	s.n++
	return true
}

// Add is Insert that also returns an iterator at v, for callers that go
// on to look at v's neighbours.
func (s *Set) Add(v int) (it Iter, added bool) {
	return Iter{s: s, v: v}, s.Insert(v)
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	w := v >> 6
	return v >= 0 && w < len(s.words) && s.words[w]&(1<<(v&63)) != 0
}

// Delete removes v from the set and reports whether it was present.
func (s *Set) Delete(v int) bool {
	if !s.Contains(v) {
		return false
	}
	w := v >> 6
	s.words[w] &^= 1 << (v & 63)
	if s.words[w] == 0 {
		s.summary[w>>6] &^= 1 << (w & 63)
	}
	s.n--
	return true
}

// next returns the smallest element >= v, -1 when there is none.
func (s *Set) next(v int) int {
	if v < 0 {
		v = 0
	}
	w := v >> 6
	if w >= len(s.words) {
		return -1
	}
	if m := s.words[w] >> (v & 63); m != 0 {
		return v + bits.TrailingZeros64(m)
	}
	// The first non-empty word after w, from the summary.
	w++
	sw := w >> 6
	if sw >= len(s.summary) {
		return -1
	}
	m := s.summary[sw] &^ (1<<(w&63) - 1)
	for m == 0 {
		if sw++; sw == len(s.summary) {
			return -1
		}
		m = s.summary[sw]
	}
	w = sw<<6 + bits.TrailingZeros64(m)
	return w<<6 + bits.TrailingZeros64(s.words[w])
}

// prev returns the largest element <= v, -1 when there is none.
func (s *Set) prev(v int) int {
	if v < 0 || len(s.words) == 0 {
		return -1
	}
	w := v >> 6
	if w >= len(s.words) {
		w = len(s.words) - 1
		v = w<<6 + 63
	}
	if m := s.words[w] << (63 - v&63); m != 0 {
		return v - bits.LeadingZeros64(m)
	}
	// The last non-empty word before w, from the summary.
	if w--; w < 0 {
		return -1
	}
	sw := w >> 6
	m := s.summary[sw] & (2<<(w&63) - 1)
	for m == 0 {
		if sw--; sw < 0 {
			return -1
		}
		m = s.summary[sw]
	}
	w = sw<<6 + 63 - bits.LeadingZeros64(m)
	return w<<6 + 63 - bits.LeadingZeros64(s.words[w])
}

// Iter is a cursor over a Set: the set and a position in it. Copying an
// Iter yields an independent cursor (useful for one-element lookahead),
// and mutating the set leaves it where it was: Next and Prev step to the
// neighbours of its position whether or not that is still an element.
type Iter struct {
	s *Set
	v int // the position; -1 past the end
}

// Begin returns an iterator at the smallest element.
func (s *Set) Begin() Iter { return s.Ceil(0) }

// Valid reports whether the iterator points at a position, not past the
// end.
func (it Iter) Valid() bool { return it.v >= 0 }

// Value returns the current element. The iterator must be Valid.
func (it Iter) Value() int { return it.v }

// Next advances to the next element in ascending order.
func (it *Iter) Next() {
	if it.v >= 0 {
		it.v = it.s.next(it.v + 1)
	}
}

// Prev steps back to the previous element and reports whether there was
// one; at the smallest element the iterator stays where it is. Stepping
// back from past the end (an iterator that is not Valid) lands on the
// largest element.
func (it *Iter) Prev() bool {
	from := it.v - 1
	if it.v < 0 {
		from = len(it.s.words) << 6
	}
	p := it.s.prev(from)
	if p < 0 {
		return false
	}
	it.v = p
	return true
}

// Ceil returns an iterator at the smallest element >= v: v's successor
// search. The iterator is not Valid when every element is below v.
func (s *Set) Ceil(v int) Iter { return Iter{s: s, v: s.next(v)} }

// FloorKey returns an iterator at the largest element v with
// keys[base+v] <= bound, assuming keys[base+v] is ascending over the
// elements in ascending order (the DSI client floors by frame HC value).
// keys is read at elements only: the search bisects the value space and
// probes each midpoint's successor. ok is false when no element
// qualifies (or the set is empty).
func (s *Set) FloorKey(keys []uint64, base int, bound uint64) (it Iter, ok bool) {
	lo := s.next(0)
	if lo < 0 || keys[base+lo] > bound {
		return Iter{s: s, v: -1}, false
	}
	// Invariant: lo is an element that qualifies, and no element at hi or
	// beyond does.
	hi := len(s.words) << 6
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		e := s.next(mid)
		switch {
		case e < 0 || e >= hi:
			hi = mid // no element in [mid, hi)
		case keys[base+e] <= bound:
			lo = e
		default:
			hi = mid // e is the first element at or past mid, and too big
		}
	}
	return Iter{s: s, v: lo}, true
}

// AppendTo appends the elements in ascending order to dst.
func (s *Set) AppendTo(dst []int) []int {
	for sw, m := range s.summary {
		for ; m != 0; m &= m - 1 {
			w := sw<<6 + bits.TrailingZeros64(m)
			for b := s.words[w]; b != 0; b &= b - 1 {
				dst = append(dst, w<<6+bits.TrailingZeros64(b))
			}
		}
	}
	return dst
}
