package ordset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// model-check Insert/Contains/iteration/Floor against a plain sorted slice.
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
		it, ok := s.Floor(func(v int) bool { return v <= tc.bound })
		if ok != tc.ok {
			t.Errorf("Floor(<=%d) ok=%v, want %v", tc.bound, ok, tc.ok)
			continue
		}
		if ok && it.Value() != tc.want {
			t.Errorf("Floor(<=%d) = %d, want %d", tc.bound, it.Value(), tc.want)
		}
	}
	if _, ok := (&Set{}).Floor(func(int) bool { return true }); ok {
		t.Error("Floor on empty set reported ok")
	}
}

func TestFloorQuick(t *testing.T) {
	f := func(raw []uint16, bound uint16) bool {
		var s Set
		for _, v := range raw {
			s.Insert(int(v))
		}
		it, ok := s.Floor(func(v int) bool { return v <= int(bound) })
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

func TestFloorKeyMatchesFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dom = 500
	keys := make([]uint64, dom)
	v := uint64(0)
	for i := range keys {
		v += uint64(rng.Intn(5)) // ascending, with repeats
		keys[i] = v
	}
	for trial := 0; trial < 40; trial++ {
		var s Set
		for i := 0; i < rng.Intn(300); i++ {
			s.Insert(rng.Intn(dom))
		}
		for probe := 0; probe < 50; probe++ {
			bound := uint64(rng.Intn(int(v) + 2))
			want, wantOK := s.Floor(func(e int) bool { return keys[e] <= bound })
			got, gotOK := s.FloorKey(keys, 0, bound)
			if gotOK != wantOK {
				t.Fatalf("FloorKey(%d) ok=%v, Floor ok=%v", bound, gotOK, wantOK)
			}
			if gotOK && got.Value() != want.Value() {
				t.Fatalf("FloorKey(%d) = %d, Floor = %d", bound, got.Value(), want.Value())
			}
		}
	}
}

func TestFloorLookahead(t *testing.T) {
	var s Set
	for v := 0; v < 300; v += 3 {
		s.Insert(v)
	}
	it, ok := s.Floor(func(v int) bool { return v <= 150 })
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

func TestSplitOrderPreserved(t *testing.T) {
	// Descending inserts exercise the front-bucket split path.
	var s Set
	for i := 5000; i >= 0; i-- {
		s.Insert(i)
	}
	got := s.AppendTo(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("element %d = %d after descending inserts", i, v)
		}
	}
}

// checkAgainst holds the set against a sorted-slice model: contents,
// length, Ceil for every probe around every element, and a walk from
// each Ceil result forwards (Next) and backwards (Prev) across bucket
// seams.
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
	for _, b := range s.buckets {
		if len(b) == 0 {
			t.Error("empty bucket left in the set")
			return false
		}
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
// step. Values are drawn from a small domain so buckets fill, split,
// drain to their last element and disappear.
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
				if step%16 == 0 { // rarely: start over on recycled storage
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
	// Scripts long enough for buckets to split (quick's own slices stop
	// at 50 elements).
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

// TestDeleteDrainsBuckets deletes every element of a many-bucket set
// one bucket at a time, each bucket down to its last element and past
// it, then refills after Reset: no empty bucket is left behind, and the
// refill reuses the drained storage.
func TestDeleteDrainsBuckets(t *testing.T) {
	var s Set
	var model []int
	for v := 0; v < 1000; v++ {
		s.Insert(v)
		model = append(model, v)
	}
	if len(s.buckets) < 4 {
		t.Fatalf("want several buckets, have %d", len(s.buckets))
	}
	for len(model) > 0 {
		// Empty the second bucket if there is one, else the only one:
		// the seam between its neighbours must close.
		bi := 0
		if len(s.buckets) > 1 {
			bi = 1
		}
		for _, v := range append([]int(nil), s.buckets[bi]...) {
			if !s.Delete(v) {
				t.Fatalf("Delete(%d) found nothing", v)
			}
			at := sort.SearchInts(model, v)
			model = append(model[:at], model[at+1:]...)
		}
		if !checkAgainst(t, &s, model) {
			t.FailNow()
		}
	}
	if s.Delete(3) {
		t.Fatal("Delete on an empty set reported an element")
	}
	s.Reset()
	allocs := testing.AllocsPerRun(5, func() {
		s.Reset()
		for v := 0; v < 1000; v++ {
			s.Insert(v)
		}
		for v := 0; v < 1000; v += 2 {
			s.Delete(v)
		}
	})
	if allocs > 0 {
		t.Errorf("refill and delete on recycled storage allocated %.1f times per run", allocs)
	}
}

// BenchmarkInsert compares the bucketed set against the naive sorted
// slice with insert-by-copy it replaces, at the knowledge-base scale of
// the paper's evaluation (10k frames per segment).
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
}
