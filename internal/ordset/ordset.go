// Package ordset provides an ordered set of small non-negative ints
// with amortized-cheap ordered insert and delete, in-order iteration in
// both directions, a successor search, and a predicate floor search.
//
// It replaces the sorted-slice-with-copy idiom (binary search plus
// O(n) element shift per insert) on the DSI client's hot path: the
// client records every frame it learns about in per-segment ordered
// lists, and under large segments those lists grow to thousands of
// entries. The set keeps its elements in a sequence of small sorted
// buckets, so an insert shifts at most one bucket (a few cache lines)
// instead of the whole list, while iteration and binary search stay
// cheap.
//
// A Set retains its bucket storage across Reset, so a long-lived query
// session re-running queries reaches a steady state with zero
// allocations.
package ordset

import "sort"

// bucketMax is the split threshold: a bucket that grows past this many
// elements is cut in half. Inserts shift at most bucketMax elements
// (two cache lines' worth of ints), and splits copy half of that.
const bucketMax = 128

// Set is an ordered set of ints. The zero value is an empty set ready
// for use. Sets are not safe for concurrent mutation.
type Set struct {
	// buckets hold the elements in ascending order: every bucket is
	// sorted, non-empty, and all elements of bucket i precede those of
	// bucket i+1.
	buckets [][]int
	// free recycles bucket storage released by Reset.
	free [][]int
	n    int
}

// Len returns the number of elements.
func (s *Set) Len() int { return s.n }

// Reset empties the set, retaining bucket storage for reuse.
func (s *Set) Reset() {
	for i, b := range s.buckets {
		s.free = append(s.free, b[:0])
		s.buckets[i] = nil
	}
	s.buckets = s.buckets[:0]
	s.n = 0
}

// newBucket returns an empty bucket, recycling freed storage.
func (s *Set) newBucket() []int {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return b
	}
	return make([]int, 0, bucketMax+1)
}

// Insert adds v to the set and reports whether it was absent.
func (s *Set) Insert(v int) bool {
	_, added := s.Add(v)
	return added
}

// Add is Insert that also returns an iterator at v, for callers that go
// on to look at v's neighbours.
func (s *Set) Add(v int) (it Iter, added bool) {
	if len(s.buckets) == 0 {
		b := s.newBucket()
		s.buckets = append(s.buckets, append(b, v))
		s.n = 1
		return Iter{s: s}, true
	}
	// v below every bucket goes into bucket 0.
	bi := s.bucketFor(v)
	if bi < 0 {
		bi = 0
	}
	b := s.buckets[bi]
	at := searchInts(b, v)
	if at < len(b) && b[at] == v {
		return Iter{s: s, bi: bi, si: at}, false
	}
	b = append(b, 0)
	copy(b[at+1:], b[at:])
	b[at] = v
	it = Iter{s: s, bi: bi, si: at}
	if len(b) > bucketMax {
		h := len(b) / 2
		right := append(s.newBucket(), b[h:]...)
		b = b[:h]
		s.buckets = append(s.buckets, nil)
		copy(s.buckets[bi+2:], s.buckets[bi+1:])
		s.buckets[bi+1] = right
		if at >= h {
			it = Iter{s: s, bi: bi + 1, si: at - h}
		}
	}
	s.buckets[bi] = b
	s.n++
	return it, true
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	bi := s.bucketFor(v)
	if bi < 0 {
		return false
	}
	b := s.buckets[bi]
	at := searchInts(b, v)
	return at < len(b) && b[at] == v
}

// Delete removes v from the set and reports whether it was present. A
// bucket that empties is recycled, so every remaining bucket stays
// non-empty.
func (s *Set) Delete(v int) bool {
	bi := s.bucketFor(v)
	if bi < 0 {
		return false
	}
	b := s.buckets[bi]
	at := searchInts(b, v)
	if at == len(b) || b[at] != v {
		return false
	}
	s.n--
	if len(b) == 1 {
		s.free = append(s.free, b[:0])
		copy(s.buckets[bi:], s.buckets[bi+1:])
		s.buckets[len(s.buckets)-1] = nil
		s.buckets = s.buckets[:len(s.buckets)-1]
		return true
	}
	s.buckets[bi] = append(b[:at], b[at+1:]...)
	return true
}

// bucketFor returns the last bucket whose first element is <= v, -1
// when v lies below every bucket (or the set is empty). Closure-free:
// every mutation and search of the DSI client's navigation starts here.
func (s *Set) bucketFor(v int) int {
	lo, hi := -1, len(s.buckets) // invariant: bucket lo qualifies, bucket hi does not
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.buckets[mid][0] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// searchInts returns the index of the first element of sorted b that is
// >= v (sort.SearchInts without the closure).
func searchInts(b []int, v int) int {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Iter is a forward iterator over a Set. Copying an Iter yields an
// independent cursor (useful for one-element lookahead). Mutating the
// set invalidates its iterators.
type Iter struct {
	s      *Set
	bi, si int
}

// Begin returns an iterator at the smallest element.
func (s *Set) Begin() Iter { return Iter{s: s} }

// Valid reports whether the iterator points at an element.
func (it Iter) Valid() bool { return it.bi < len(it.s.buckets) }

// Value returns the current element. The iterator must be Valid.
func (it Iter) Value() int { return it.s.buckets[it.bi][it.si] }

// Next advances to the next element in ascending order.
func (it *Iter) Next() {
	it.si++
	if it.si >= len(it.s.buckets[it.bi]) {
		it.bi++
		it.si = 0
	}
}

// Prev steps back to the previous element and reports whether there was
// one; at the smallest element the iterator stays where it is. Stepping
// back from past the end (an iterator that is not Valid) lands on the
// largest element.
func (it *Iter) Prev() bool {
	if it.si > 0 {
		it.si--
		return true
	}
	if it.bi == 0 {
		return false
	}
	it.bi--
	it.si = len(it.s.buckets[it.bi]) - 1
	return true
}

// Ceil returns an iterator at the smallest element >= v: v's successor
// search. The iterator is not Valid when every element is below v.
func (s *Set) Ceil(v int) Iter {
	bi := s.bucketFor(v)
	if bi < 0 {
		return Iter{s: s}
	}
	si := searchInts(s.buckets[bi], v)
	if si == len(s.buckets[bi]) {
		return Iter{s: s, bi: bi + 1}
	}
	return Iter{s: s, bi: bi, si: si}
}

// Floor returns an iterator at the largest element for which pred
// holds, assuming pred is monotone over the elements in ascending
// order (true on a prefix, false on the rest). ok is false when pred
// holds for no element (or the set is empty).
func (s *Set) Floor(pred func(v int) bool) (it Iter, ok bool) {
	if len(s.buckets) == 0 || !pred(s.buckets[0][0]) {
		return Iter{s: s}, false
	}
	// Last bucket whose first element satisfies pred; its predecessor
	// buckets are entirely within the prefix.
	bi := sort.Search(len(s.buckets), func(i int) bool { return !pred(s.buckets[i][0]) }) - 1
	b := s.buckets[bi]
	si := sort.Search(len(b), func(i int) bool { return !pred(b[i]) }) - 1
	return Iter{s: s, bi: bi, si: si}, true
}

// FloorKey returns an iterator at the largest element v with
// keys[base+v] <= bound, assuming keys[base+v] is ascending over the
// elements in ascending order. It is the closure-free specialization of
// Floor for key-array lookups on hot paths (the DSI client floors by
// frame HC value on every navigation step). ok is false when no element
// qualifies (or the set is empty).
func (s *Set) FloorKey(keys []uint64, base int, bound uint64) (it Iter, ok bool) {
	nb := len(s.buckets)
	if nb == 0 || keys[base+s.buckets[0][0]] > bound {
		return Iter{s: s}, false
	}
	// Last bucket whose first element's key is <= bound.
	lo, hi := 0, nb // invariant: bucket lo qualifies, bucket hi does not
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[base+s.buckets[mid][0]] <= bound {
			lo = mid
		} else {
			hi = mid
		}
	}
	b := s.buckets[lo]
	si, se := 0, len(b) // invariant: element si qualifies, element se does not
	for si+1 < se {
		mid := int(uint(si+se) >> 1)
		if keys[base+b[mid]] <= bound {
			si = mid
		} else {
			se = mid
		}
	}
	return Iter{s: s, bi: lo, si: si}, true
}

// AppendTo appends the elements in ascending order to dst.
func (s *Set) AppendTo(dst []int) []int {
	for _, b := range s.buckets {
		dst = append(dst, b...)
	}
	return dst
}
