package ordset

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// model-check Insert/Contains/iteration against a plain sorted slice.
func TestSetAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var s Set
		model := map[int]bool{}
		n := rng.Intn(2000)
		for i := 0; i < n; i++ {
			v := rng.Intn(1000)
			ins := s.Insert(v)
			if ins == model[v] {
				t.Fatalf("Insert(%d) reported %v, model has %v", v, ins, model[v])
			}
			model[v] = true
		}
		want := make([]int, 0, len(model))
		for v := range model {
			want = append(want, v)
		}
		sort.Ints(want)
		got := s.AppendTo(nil)
		if len(got) != len(want) || s.Len() != len(want) {
			t.Fatalf("trial %d: %d elements, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d = %d, want %d", trial, i, got[i], want[i])
			}
		}
		// Iteration matches AppendTo.
		i := 0
		for it := s.Begin(); it.Valid(); it.Next() {
			if it.Value() != want[i] {
				t.Fatalf("iter element %d = %d, want %d", i, it.Value(), want[i])
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("iterator visited %d elements, want %d", i, len(want))
		}
		// Contains.
		for v := 0; v < 1000; v += 7 {
			if s.Contains(v) != model[v] {
				t.Fatalf("Contains(%d) = %v", v, s.Contains(v))
			}
		}
	}
}

// identityKey is key(v) = v: FloorKey over it is the plain floor search
// "largest element <= bound".
func identityKey(v int) uint64 { return uint64(v) }

func TestFloor(t *testing.T) {
	var s Set
	for _, v := range []int{2, 5, 9, 14, 20} {
		s.Insert(v)
	}
	cases := []struct {
		bound int
		want  int
		ok    bool
	}{
		{1, 0, false}, {2, 2, true}, {3, 2, true}, {5, 5, true},
		{13, 9, true}, {14, 14, true}, {100, 20, true},
	}
	for _, tc := range cases {
		it, ok := s.FloorKey(identityKey, uint64(tc.bound))
		if ok != tc.ok {
			t.Errorf("FloorKey(%d) ok=%v, want %v", tc.bound, ok, tc.ok)
			continue
		}
		if ok && it.Value() != tc.want {
			t.Errorf("FloorKey(%d) = %d, want %d", tc.bound, it.Value(), tc.want)
		}
	}
	if _, ok := (&Set{}).FloorKey(identityKey, 100); ok {
		t.Error("FloorKey on empty set reported ok")
	}
}

func TestFloorQuick(t *testing.T) {
	f := func(raw []uint16, bound uint16) bool {
		var s Set
		for _, v := range raw {
			s.Insert(int(v))
		}
		it, ok := s.FloorKey(identityKey, uint64(bound))
		// Reference: largest inserted value <= bound.
		best, found := 0, false
		for _, v := range raw {
			if int(v) <= int(bound) && (!found || int(v) > best) {
				best, found = int(v), true
			}
		}
		if ok != found {
			return false
		}
		return !ok || it.Value() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// modelFloorKey is FloorKey on a sorted slice: the last element whose
// key is <= bound, -1 for none.
func modelFloorKey(model []int, key func(v int) uint64, bound uint64) int {
	at := sort.Search(len(model), func(i int) bool { return key(model[i]) > bound })
	if at == 0 {
		return -1
	}
	return model[at-1]
}

// TestFloorKeyMatchesFloor holds FloorKey against the sorted-slice floor
// search, with ascending keys that repeat, read at a non-zero base of a
// key table that holds garbage away from the elements: FloorKey may call
// the key function at elements only, and the test fails if it does not.
func TestFloorKeyMatchesFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dom, base = 500, 7
	for trial := 0; trial < 40; trial++ {
		var s Set
		for i := 0; i < rng.Intn(300); i++ {
			s.Insert(rng.Intn(dom))
		}
		model := s.AppendTo(nil)
		keys := make([]uint64, base+dom)
		for i := range keys {
			keys[i] = ^uint64(0) // poison: never an element's key
		}
		v := uint64(0)
		for _, e := range model {
			v += uint64(rng.Intn(5)) // ascending, with repeats
			keys[base+e] = v
		}
		key := func(e int) uint64 {
			if !s.Contains(e) {
				t.Fatalf("FloorKey read the key of %d, which is not an element", e)
			}
			return keys[base+e]
		}
		for probe := 0; probe < 50; probe++ {
			bound := uint64(rng.Intn(int(v) + 2))
			want := modelFloorKey(model, key, bound)
			got, ok := s.FloorKey(key, bound)
			if ok != (want >= 0) {
				t.Fatalf("FloorKey(%d) ok=%v, the model's floor is %d", bound, ok, want)
			}
			if ok && got.Value() != want {
				t.Fatalf("FloorKey(%d) = %d, the model's floor is %d", bound, got.Value(), want)
			}
		}
	}
}

func TestFloorLookahead(t *testing.T) {
	var s Set
	for v := 0; v < 300; v += 3 {
		s.Insert(v)
	}
	it, ok := s.FloorKey(identityKey, 150)
	if !ok || it.Value() != 150 {
		t.Fatalf("floor = %v, %v", it, ok)
	}
	// A copied iterator advances independently (lookahead).
	peek := it
	peek.Next()
	if !peek.Valid() || peek.Value() != 153 {
		t.Fatalf("peek = %d", peek.Value())
	}
	if it.Value() != 150 {
		t.Fatal("advancing the copy moved the original")
	}
}

// TestIterSurvivesMutation steps an iterator from an element that was
// deleted after the iterator was taken, and past elements inserted
// around it.
func TestIterSurvivesMutation(t *testing.T) {
	var s Set
	for _, v := range []int{10, 64, 200} {
		s.Insert(v)
	}
	it, _ := s.Add(100)
	s.Delete(100)
	s.Insert(99)
	s.Insert(101)
	fw, bw := it, it
	if fw.Next(); !fw.Valid() || fw.Value() != 101 {
		t.Fatalf("Next from a deleted position: %v", fw)
	}
	if !bw.Prev() || bw.Value() != 99 {
		t.Fatalf("Prev from a deleted position: %v", bw)
	}
}

func TestResetReusesStorage(t *testing.T) {
	var s Set
	for i := 0; i < 1000; i++ {
		s.Insert(i * 2)
	}
	s.Reset()
	if s.Len() != 0 || s.AppendTo(nil) != nil {
		t.Fatal("Reset left elements behind")
	}
	// After a warm-up cycle, re-filling must not allocate.
	s.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		for i := 0; i < 1000; i++ {
			s.Insert(i * 2)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state refill allocated %.1f times per run", allocs)
	}
}

// seams are the values on either side of a word boundary (64) and of a
// summary-word boundary (4096 = 64 words), plus the ends of the range.
var seams = []int{0, 1, 62, 63, 64, 65, 127, 128, 4031, 4032, 4095, 4096, 4097, 4159, 4160, 8191, 8192, 8193}

// TestWordSeams inserts the seam values in descending order (every
// insert below the previous ones), deletes and re-inserts each, and
// holds the set against the model after every step: a value on either
// side of a word or summary-word boundary is found by Ceil, Next and
// Prev from both directions.
func TestWordSeams(t *testing.T) {
	var s Set
	var model []int
	for i := len(seams) - 1; i >= 0; i-- {
		s.Insert(seams[i])
		model = append([]int{seams[i]}, model...)
		if !checkAgainst(t, &s, model) {
			t.FailNow()
		}
	}
	for i, v := range seams {
		if !s.Delete(v) {
			t.Fatalf("Delete(%d) found nothing", v)
		}
		rest := append(append([]int(nil), seams[:i]...), seams[i+1:]...)
		if !checkAgainst(t, &s, rest) {
			t.FailNow()
		}
		s.Insert(v)
	}
	if !checkAgainst(t, &s, seams) {
		t.FailNow()
	}
}

// TestSummarySeams drains the words under one summary word to empty,
// one word at a time from the middle outwards, refills it, and then
// checks that Reset and a refill of the same values allocate nothing.
func TestSummarySeams(t *testing.T) {
	var s Set
	var model []int
	for v := 4000; v < 8300; v += 3 {
		s.Insert(v)
		model = append(model, v)
	}
	// Every word of summary word 1 (values 4096..8191), middle first.
	for _, w := range []int{96, 95, 97, 64, 127, 65, 126} {
		for v := w << 6; v < (w+1)<<6; v++ {
			s.Delete(v)
		}
	}
	for w := 64; w < 128; w++ {
		for v := w << 6; v < (w+1)<<6; v++ {
			s.Delete(v)
		}
	}
	var kept []int
	for _, v := range model {
		if v < 4096 || v >= 8192 {
			kept = append(kept, v)
		}
	}
	if s.summary[1] != 0 {
		t.Fatalf("summary word 1 is %#x after its words drained", s.summary[1])
	}
	if !checkAgainst(t, &s, kept) {
		t.FailNow()
	}
	// Ceil across the empty summary word lands on the first value past it.
	if it := s.Ceil(4096); !it.Valid() || it.Value() != kept[sort.SearchInts(kept, 4096)] {
		t.Fatalf("Ceil(4096) across the drained summary word: %v", it)
	}
	for _, v := range model {
		s.Insert(v)
	}
	if !checkAgainst(t, &s, model) {
		t.FailNow()
	}
	if s.Delete(3) {
		t.Fatal("Delete of an absent value reported an element")
	}
	allocs := testing.AllocsPerRun(5, func() {
		s.Reset()
		for _, v := range model {
			s.Insert(v)
		}
		for _, v := range seams {
			s.Insert(v)
			s.Delete(v)
		}
	})
	if allocs > 0 {
		t.Errorf("Reset and refill on retained storage allocated %.1f times per run", allocs)
	}
}

// checkAgainst holds the set against a sorted-slice model: contents,
// length, the summary against the words, Ceil for every probe around
// every element, and a walk from each Ceil result forwards (Next) and
// backwards (Prev) across word and summary seams.
func checkAgainst(t testing.TB, s *Set, model []int) bool {
	t.Helper()
	got := s.AppendTo(nil)
	if len(got) != len(model) || s.Len() != len(model) {
		t.Errorf("set holds %d elements (Len %d), model %d", len(got), s.Len(), len(model))
		return false
	}
	for i := range model {
		if got[i] != model[i] {
			t.Errorf("element %d = %d, model %d", i, got[i], model[i])
			return false
		}
	}
	pop := 0
	for w, b := range s.words {
		pop += bits.OnesCount64(b)
		if inSummary := s.summary[w>>6]&(1<<(w&63)) != 0; inSummary != (b != 0) {
			t.Errorf("summary bit of word %d is %v, the word is %#x", w, inSummary, b)
			return false
		}
	}
	for sw := (len(s.words) + 63) >> 6; sw < len(s.summary); sw++ {
		if s.summary[sw] != 0 {
			t.Errorf("summary word %d names words past the storage", sw)
			return false
		}
	}
	if pop != s.Len() {
		t.Errorf("words hold %d bits, Len %d", pop, s.Len())
		return false
	}
	probes := []int{-1, 0}
	for _, v := range model {
		probes = append(probes, v-1, v, v+1)
	}
	for _, v := range probes {
		at := sort.SearchInts(model, v) // model's successor of v
		it := s.Ceil(v)
		if it.Valid() != (at < len(model)) || (it.Valid() && it.Value() != model[at]) {
			t.Errorf("Ceil(%d) disagrees with the model's successor (index %d of %d)", v, at, len(model))
			return false
		}
		// Forwards to the end, then all the way back.
		fw := it
		for i := at; i < len(model); i++ {
			if !fw.Valid() || fw.Value() != model[i] {
				t.Errorf("Ceil(%d): forward walk broke at model index %d", v, i)
				return false
			}
			fw.Next()
		}
		if fw.Valid() {
			t.Errorf("Ceil(%d): forward walk ran past the end", v)
			return false
		}
		for i := len(model) - 1; i >= 0; i-- {
			if !fw.Prev() || fw.Value() != model[i] {
				t.Errorf("Ceil(%d): backward walk broke at model index %d", v, i)
				return false
			}
		}
		if fw.Prev() {
			t.Errorf("Ceil(%d): Prev stepped before the smallest element", v)
			return false
		}
	}
	return true
}

// TestDeleteCeilAgainstModel drives Insert, Add, Delete and Reset from
// a random script and holds the set against a sorted slice after every
// step. Values are drawn from a small domain so words fill, drain to
// their last element and empty.
func TestDeleteCeilAgainstModel(t *testing.T) {
	f := func(script []uint16, dense bool) bool {
		var s Set
		var model []int
		dom := 700
		if dense {
			dom = 60
		}
		for step, raw := range script {
			v, op := int(raw)%dom, int(raw)/dom%8
			at := sort.SearchInts(model, v)
			has := at < len(model) && model[at] == v
			switch {
			case op < 4: // insert, through either entry point
				var added bool
				if op < 2 {
					added = s.Insert(v)
				} else {
					var it Iter
					it, added = s.Add(v)
					if !it.Valid() || it.Value() != v {
						t.Errorf("step %d: Add(%d) returned an iterator elsewhere", step, v)
						return false
					}
				}
				if added == has {
					t.Errorf("step %d: insert of %d reported %v, model has it: %v", step, v, added, has)
					return false
				}
				if !has {
					model = append(model, 0)
					copy(model[at+1:], model[at:])
					model[at] = v
				}
			case op < 7:
				if s.Delete(v) != has {
					t.Errorf("step %d: Delete(%d) disagreed with the model (%v)", step, v, has)
					return false
				}
				if has {
					model = append(model[:at], model[at+1:]...)
				}
			default:
				if step%16 == 0 { // rarely: start over on retained storage
					s.Reset()
					model = model[:0]
				}
			}
			if step%8 == 0 && !checkAgainst(t, &s, model) {
				return false
			}
		}
		return checkAgainst(t, &s, model)
	}
	// Scripts long enough for words to fill (quick's own slices stop at
	// 50 elements).
	cfg := &quick.Config{MaxCount: 60, Values: func(args []reflect.Value, rng *rand.Rand) {
		script := make([]uint16, 200+rng.Intn(3000))
		for i := range script {
			script[i] = uint16(rng.Intn(1 << 16))
		}
		args[0] = reflect.ValueOf(script)
		args[1] = reflect.ValueOf(rng.Intn(3) == 0)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzSet drives a set through a script of Insert / Add / Delete /
// Reset / Ceil / Next / Prev / FloorKey over values below 12 000 (three
// summary words) and holds it against a sorted slice after every step.
// Each step is three bytes: the operation, then the value.
func FuzzSet(f *testing.F) {
	f.Add([]byte{0, 0, 63, 0, 0, 64, 4, 0, 63, 5, 0, 64, 6, 0, 64, 7, 0, 65})
	f.Add([]byte{0, 15, 255, 0, 16, 0, 0, 16, 1, 3, 15, 255, 4, 16, 0, 6, 15, 0, 2, 0, 0, 0, 16, 0})
	f.Add([]byte{1, 46, 223, 0, 0, 1, 4, 16, 0, 5, 31, 255, 6, 46, 223, 7, 46, 224, 3, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var s Set
		var model []int
		for step := 0; step+2 < len(script) && step < 3*400; step += 3 {
			op := script[step] % 8
			v := int(script[step+1])<<8 | int(script[step+2])
			v %= 12000
			at := sort.SearchInts(model, v)
			has := at < len(model) && model[at] == v
			switch op {
			case 0, 1: // Insert, Add
				var added bool
				if op == 0 {
					added = s.Insert(v)
				} else {
					var it Iter
					if it, added = s.Add(v); it.Value() != v {
						t.Fatalf("step %d: Add(%d) returned an iterator at %d", step, v, it.Value())
					}
				}
				if added == has {
					t.Fatalf("step %d: insert of %d reported %v, the model has it: %v", step, v, added, has)
				}
				if !has {
					model = append(model, 0)
					copy(model[at+1:], model[at:])
					model[at] = v
				}
			case 2: // Delete
				if s.Delete(v) != has {
					t.Fatalf("step %d: Delete(%d) disagreed with the model (%v)", step, v, has)
				}
				if has {
					model = append(model[:at], model[at+1:]...)
				}
			case 3: // Reset
				s.Reset()
				model = model[:0]
			case 4: // Ceil, then Next
				it := s.Ceil(v)
				for i := at; i < at+2; i++ {
					if it.Valid() != (i < len(model)) || (it.Valid() && it.Value() != model[i]) {
						t.Fatalf("step %d: Ceil(%d) + %d Next disagree with the model", step, v, i-at)
					}
					it.Next()
				}
			case 5: // Prev from Ceil (past the end lands on the largest)
				it := s.Ceil(v)
				ok := it.Prev()
				if ok != (at > 0) || (ok && it.Value() != model[at-1]) {
					t.Fatalf("step %d: Prev from Ceil(%d) disagrees with the model", step, v)
				}
			case 6: // FloorKey
				got, ok := s.FloorKey(identityKey, uint64(v))
				want := modelFloorKey(model, identityKey, uint64(v))
				if ok != (want >= 0) || (ok && got.Value() != want) {
					t.Fatalf("step %d: FloorKey(%d) = (%v, %v), the model's floor is %d", step, v, got, ok, want)
				}
			case 7: // Contains
				if s.Contains(v) != has {
					t.Fatalf("step %d: Contains(%d) disagrees with the model", step, v)
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("step %d: Len %d, the model holds %d", step, s.Len(), len(model))
			}
			if step%48 == 0 && !checkAgainst(t, &s, model) {
				t.FailNow()
			}
		}
		checkAgainst(t, &s, model)
	})
}

// BenchmarkInsert times the set at the knowledge-base scale of the
// paper's evaluation (10k frames per segment): inserts in random order
// against the naive sorted slice with insert-by-copy, a successor search
// per value of a full set, and deletes in random order.
func BenchmarkInsert(b *testing.B) {
	const n = 10000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	b.Run("ordset", func(b *testing.B) {
		var s Set
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Reset()
			for _, v := range perm {
				s.Insert(v)
			}
		}
	})
	b.Run("sortedslice", func(b *testing.B) {
		buf := make([]int, 0, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kl := buf[:0]
			for _, v := range perm {
				at := sort.SearchInts(kl, v)
				kl = append(kl, 0)
				copy(kl[at+1:], kl[at:])
				kl[at] = v
			}
		}
	})
	b.Run("ceil", func(b *testing.B) {
		var s Set
		for _, v := range perm[:n/4] { // a quarter full: Ceil skips words
			s.Insert(v)
		}
		sink := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range perm {
				if it := s.Ceil(v); it.Valid() {
					sink += it.Value()
				}
			}
		}
		if sink == 0 {
			b.Fatal("no successor found")
		}
	})
	b.Run("delete", func(b *testing.B) {
		var s Set
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, v := range perm {
				s.Insert(v)
			}
			b.StartTimer()
			for _, v := range perm {
				s.Delete(v)
			}
		}
	})
}
