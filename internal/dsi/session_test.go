package dsi

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// TestSessionTuneMatchesFreshOpen is the facade's regression contract:
// a session re-tuned with Tune answers every query with exactly the
// results and cost metrics of one freshly opened and tuned at that
// probe slot and loss model over the same layout.
func TestSessionTuneMatchesFreshOpen(t *testing.T) {
	ds := dataset.Uniform(320, 7, 611)
	x, err := Build(ds, Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	x2, err := Build(ds, Config{Capacity: 64, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}

	type arm struct {
		name string
		lay  *Layout // what a fresh session opens over
		open func() (*Session, error)
	}
	mkLay := func(x *Index, mc MultiConfig) *Layout {
		lay, err := NewLayout(x, mc)
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	split := mkLay(x2, MultiConfig{Channels: 3, Scheduler: SchedSplit, SwitchSlots: 2})
	shard := mkLay(x, MultiConfig{Channels: 3, Scheduler: SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 3, x.NF}})
	arms := []arm{
		{"single", x.single, func() (*Session, error) { return Open(x) }},
		{"split layout", split, func() (*Session, error) { return Open(x2, WithLayout(split)) }},
		{"shard layout", shard, func() (*Session, error) { return Open(x, WithLayout(shard)) }},
	}

	side := int(ds.Curve.Side())
	for _, a := range arms {
		s, err := a.open()
		if err != nil {
			t.Fatalf("%s: Open: %v", a.name, err)
		}
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 12; trial++ {
			probe := rng.Int63n(int64(s.Layout().ProbeCycle()))
			var loss *broadcast.LossModel
			mk := func() *broadcast.LossModel { return nil }
			if trial%3 == 2 {
				seed := rng.Int63()
				mk = func() *broadcast.LossModel { return broadcast.NewLossModel(0.3, seed) }
			}
			loss = mk()
			fresh := openClient(a.lay, probe, mk())
			s.Tune(probe, loss)
			if trial%2 == 0 {
				w := randWindow(rng, side)
				wantIDs, wantSt := fresh.Window(w)
				gotIDs, gotSt := s.Window(w)
				if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
					t.Fatalf("%s trial %d: re-tuned session window (%v,%+v) != fresh (%v,%+v)",
						a.name, trial, gotIDs, gotSt, wantIDs, wantSt)
				}
			} else {
				q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
				k := 1 + rng.Intn(6)
				wantIDs, wantSt := fresh.KNN(q, k, Conservative)
				gotIDs, gotSt := s.KNN(q, k, Conservative)
				if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
					t.Fatalf("%s trial %d: re-tuned session kNN (%v,%+v) != fresh (%v,%+v)",
						a.name, trial, gotIDs, gotSt, wantIDs, wantSt)
				}
			}
		}
	}
}

// TestSessionAutoRetune verifies that a query issued without an
// intervening Tune behaves like an explicit re-tune at the previous
// parameters.
func TestSessionAutoRetune(t *testing.T) {
	ds := dataset.Uniform(200, 7, 77)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(x)
	if err != nil {
		t.Fatal(err)
	}
	s.Tune(1234, nil)
	w := spatial.ClampedWindow(40, 40, 30, ds.Curve.Side())
	ids1, st1 := s.Window(w)
	want := append([]int(nil), ids1...)
	ids2, st2 := s.Window(w)
	if !equalInts(ids2, want) || st1 != st2 {
		t.Fatalf("repeat query diverged: (%v,%+v) then (%v,%+v)", want, st1, ids2, st2)
	}
	c := openClient(x.single, 1234, nil)
	wantIDs, wantSt := c.Window(w)
	if !equalInts(ids2, wantIDs) || st2 != wantSt {
		t.Fatalf("auto-retuned session != fresh client")
	}

	// An injected receiver's construction-time probe slot must survive
	// the automatic re-tune too (it used to silently reset to slot 0).
	rxSess, err := Open(x, WithReceiver(NewSimReceiver(x.SingleLayout(), 1234, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ids3, st3 := rxSess.Window(w)
	ids4, st4 := rxSess.Window(w)
	if !equalInts(ids3, wantIDs) || st3 != wantSt {
		t.Fatalf("receiver session first query != fresh client at its probe slot")
	}
	if !equalInts(ids4, wantIDs) || st4 != wantSt {
		t.Fatalf("receiver session auto-retune lost the probe slot: %+v, want %+v", st4, wantSt)
	}
}

// TestOpenOptionErrors covers the facade's validation: a receiver
// combined with a layout, and layouts and receivers of another index.
func TestOpenOptionErrors(t *testing.T) {
	ds := dataset.Uniform(120, 7, 9)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Build(dataset.Uniform(80, 7, 10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := NewLayout(x, MultiConfig{Channels: 2, Scheduler: SchedSplit})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"receiver plus layout", []Option{WithReceiver(NewSimReceiver(lay, 0, nil)), WithLayout(lay)}, "carries its own layout"},
		{"foreign layout", []Option{WithLayout(mustLayout(t, other, MultiConfig{Channels: 1}))}, "different index"},
		{"foreign receiver", []Option{WithReceiver(NewSimReceiver(other.single, 0, nil))}, "different index"},
	}
	for _, tc := range cases {
		_, err := Open(x, tc.opts...)
		if err == nil {
			t.Errorf("%s: Open succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func mustLayout(t testing.TB, x *Index, mc MultiConfig) *Layout {
	t.Helper()
	lay, err := NewLayout(x, mc)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestSessionChannelLossPersists: per-channel loss is part of the loss
// model handed to Tune, so the automatic re-tune keeps it like any
// other model — the session's second query runs under the same
// (advanced) process a reference re-tuned by hand with a twin model
// runs under.
func TestSessionChannelLossPersists(t *testing.T) {
	ds := dataset.Uniform(200, 7, 21)
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := NewLayout(x, MultiConfig{Channels: 3, Scheduler: SchedSplit, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := spatial.ClampedWindow(10, 10, 40, ds.Curve.Side())
	s, err := Open(x, WithLayout(lay))
	if err != nil {
		t.Fatal(err)
	}
	s.Tune(500, broadcast.PerChannel(broadcast.NewLossModel(0.2, 99)))

	// One stateful model per arm: the two RNG streams advance in
	// lockstep query by query.
	refLoss := broadcast.PerChannel(broadcast.NewLossModel(0.2, 99))
	ref := openClient(lay, 500, nil)
	clean := openClient(lay, 500, nil)
	lossy := false
	for trial := 0; trial < 3; trial++ {
		ref.Tune(500, refLoss)
		_, wantSt := ref.Window(w)
		_, st := s.Window(w) // re-tunes automatically after the first
		if st != wantSt {
			t.Fatalf("trial %d: channel loss lost across the re-tune: %+v, want %+v", trial, st, wantSt)
		}
		clean.Tune(500, nil)
		_, cleanSt := clean.Window(w)
		lossy = lossy || st != cleanSt
	}
	if !lossy {
		t.Fatal("the per-channel model never cost anything: the test checks nothing")
	}
}

// TestSessionScheduleResyncSurvivesAutoRetune: a bump scheduled
// between queries must land on the next query even when the session
// re-tunes automatically before it (the re-tune discards a pending
// bump, so ScheduleResync applies it first).
func TestSessionScheduleResyncSurvivesAutoRetune(t *testing.T) {
	x, old, new_ := resyncFixture(t, 500, 41)
	w := spatial.ClampedWindow(10, 10, 60, x.DS.Curve.Side())
	const probe = 300

	s, err := Open(x, WithLayout(old))
	if err != nil {
		t.Fatal(err)
	}
	s.Tune(probe, nil)
	s.Window(w) // consume the fresh tune-in
	if err := s.ScheduleResync(new_, probe+1); err != nil {
		t.Fatal(err)
	}
	gotIDs, got := s.Window(w) // must cross the seam despite the auto re-tune
	if s.Layout() != new_ {
		t.Fatal("the automatic re-tune discarded the scheduled bump")
	}

	ref := openClient(old, probe, nil)
	if err := ref.ScheduleResync(new_, probe+1); err != nil {
		t.Fatal(err)
	}
	wantIDs, want := ref.Window(w)
	if !equalInts(gotIDs, wantIDs) || got != want {
		t.Fatalf("bumped session (%v,%+v), want (%v,%+v)", gotIDs, got, wantIDs, want)
	}
}

// TestSessionAllocsSteadyState asserts the zero-allocation append
// contract through Open and Tune: a warm session answers window queries
// within the fixed window budget.
func TestSessionAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold in normal builds")
	}
	ds := dataset.Uniform(2000, 8, 31)
	x, err := Build(ds, Config{Capacity: 64, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(x)
	if err != nil {
		t.Fatal(err)
	}
	w := spatial.ClampedWindow(100, 140, 25, ds.Curve.Side())
	var buf []int
	for i := 0; i < 3; i++ {
		s.Tune(int64(i*37), nil)
		buf, _ = s.WindowAppend(buf[:0], w)
	}
	probe := int64(0)
	avg := testing.AllocsPerRun(20, func() {
		s.Tune(probe, nil)
		buf, _ = s.WindowAppend(buf[:0], w)
		probe = (probe + 61) % int64(x.CycleSlots())
	})
	if avg > windowAllocBudget {
		t.Errorf("warm session window query allocates %.1f/run, budget %d", avg, windowAllocBudget)
	}
	if len(buf) == 0 {
		t.Fatal("window query returned nothing")
	}
}

// openClient is the tests' way to a session: opened over lay, tuned
// in at probe under loss, with a hop bound installed (boundHops).
func openClient(lay *Layout, probe int64, loss *broadcast.LossModel) *Session {
	s, err := Open(lay.X, WithLayout(lay))
	if err != nil {
		panic(err)
	}
	s.Tune(probe, loss)
	boundHops(s)
	return s
}

// boundHops makes a navigation bug fail fast instead of hanging: a
// chooser that keeps picking a resolved unit sends a query round the
// cycle forever. It installs an onHop that counts the hops of the
// current query (a query ends at the hop that finds nothing pending)
// and panics past 8·NF + 64 of them, naming the layout, the position
// and the pending units as the sets hold them. An onHop installed later
// replaces it, unless it chains to it as hopChecker does.
func boundHops(c *Session) {
	limit := 8*c.x.NF + 64
	hops := 0
	c.onHop = func(p, next int, ok bool) {
		if !ok {
			hops = 0
			return
		}
		if hops++; hops > limit {
			var units []string
			kb := c.kb
			for j := 0; j < kb.nspan && j < len(kb.pend.frames); j++ {
				units = append(units, fmt.Sprintf("span %d frames %v gaps %v",
					j, kb.pend.frames[j].AppendTo(nil), kb.pend.gaps[j].AppendTo(nil)))
			}
			panic(fmt.Sprintf("dsi: %d hops in one query on %v, now at position %d choosing %d; pending: %s",
				hops, c.lay, p, next, strings.Join(units, "; ")))
		}
	}
}
