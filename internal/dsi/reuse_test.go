package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// TestResetClientMatchesFresh is the client-reuse contract: across
// random seeds, strategies, loss models and broadcast configurations, a
// Reset client must answer window and kNN queries with exactly the same
// results AND exactly the same cost metrics (tuning time, access
// latency) as a freshly constructed client.
func TestResetClientMatchesFresh(t *testing.T) {
	configs := []Config{
		{},
		{Segments: 2},
		{Capacity: 512, Segments: 2},
		{Capacity: 64, Sizing: SizingPaperTable},
	}
	for ci, cfg := range configs {
		ds := dataset.Uniform(400, 7, int64(100+ci))
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		side := int(ds.Curve.Side())

		// One long-lived client replays every trial; dirty it with an
		// unrelated query before each comparison so Reset has real state
		// to clear.
		reused := openClient(x.single, 0, nil)
		var buf []int

		for trial := 0; trial < 30; trial++ {
			probe := rng.Int63n(int64(x.CycleSlots()))
			theta := 0.0
			if trial%3 == 1 {
				theta = 0.4
			}
			lossSeed := rng.Int63()
			mkLoss := func() *broadcast.LossModel {
				if theta == 0 {
					return nil
				}
				return broadcast.NewLossModel(theta, lossSeed)
			}

			// Dirty the reused client.
			reused.Tune(rng.Int63n(int64(x.CycleSlots())), nil)
			qd := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
			reused.KNN(qd, 3, Conservative)

			switch trial % 2 {
			case 0:
				w := randWindow(rng, side)
				fresh := openClient(x.single, probe, mkLoss())
				wantIDs, wantSt := fresh.Window(w)

				reused.Tune(probe, mkLoss())
				buf, _ = reused.WindowAppend(buf[:0], w)
				gotSt := reused.Stats()
				if !equalInts(buf, wantIDs) {
					t.Fatalf("cfg %d trial %d: window IDs %v != fresh %v", ci, trial, buf, wantIDs)
				}
				if gotSt != wantSt {
					t.Fatalf("cfg %d trial %d: window stats %+v != fresh %+v", ci, trial, gotSt, wantSt)
				}
			case 1:
				q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
				k := 1 + rng.Intn(10)
				strat := Conservative
				if cfg.Segments <= 1 && trial%4 == 1 {
					strat = Aggressive
				}
				fresh := openClient(x.single, probe, mkLoss())
				wantIDs, wantSt := fresh.KNN(q, k, strat)

				reused.Tune(probe, mkLoss())
				buf, _ = reused.KNNAppend(buf[:0], q, k, strat)
				gotSt := reused.Stats()
				if !equalInts(buf, wantIDs) {
					t.Fatalf("cfg %d trial %d: kNN IDs %v != fresh %v", ci, trial, buf, wantIDs)
				}
				if gotSt != wantSt {
					t.Fatalf("cfg %d trial %d: kNN stats %+v != fresh %+v", ci, trial, gotSt, wantSt)
				}
			}
		}
	}
}

// TestReusedSessionKNNCoverIsPerQuery holds one session through kNN
// queries whose centre and k change every time, with a window query in
// between, against a fresh session per query: the
// search disk a query leaves behind (centre, last radius) must not
// reach the next one, in IDs or in cost.
func TestReusedSessionKNNCoverIsPerQuery(t *testing.T) {
	for ci, cfg := range []Config{{}, {Capacity: 64, Segments: 2}} {
		ds := dataset.Uniform(600, 7, int64(300+ci))
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := Open(x)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(2000 + ci)))
		side := int(ds.Curve.Side())
		var buf []int
		for trial := 0; trial < 24; trial++ {
			probe := rng.Int63n(int64(x.CycleSlots()))
			fresh := openClient(x.single, probe, nil)
			reused.Tune(probe, nil)
			var wantIDs []int
			var wantSt, gotSt broadcast.Stats
			what := "window"
			if trial%3 == 2 {
				w := randWindow(rng, side)
				wantIDs, wantSt = fresh.Window(w)
				buf, gotSt = reused.WindowAppend(buf[:0], w)
			} else {
				// Alternate a far corner with the middle of the grid, and a
				// small k with a large one, so consecutive disks differ in
				// centre, size and final radius.
				q := spatial.Point{X: uint32(rng.Intn(side / 8)), Y: uint32(rng.Intn(side / 8))}
				k := 1 + rng.Intn(3)
				if trial%2 == 1 {
					q = spatial.Point{X: uint32(side/2 + rng.Intn(side/4)), Y: uint32(side/2 + rng.Intn(side/4))}
					k = 8 + rng.Intn(8)
				}
				what = "kNN"
				wantIDs, wantSt = fresh.KNN(q, k, Conservative)
				buf, gotSt = reused.KNNAppend(buf[:0], q, k, Conservative)
			}
			if !equalInts(buf, wantIDs) || gotSt != wantSt {
				t.Fatalf("cfg %d trial %d: reused %s (%v, %+v) != fresh (%v, %+v)",
					ci, trial, what, buf, gotSt, wantIDs, wantSt)
			}
		}
	}
}

// TestResetClientMatchesFreshEEF extends the reuse contract to the
// point-query forwarding path.
func TestResetClientMatchesFreshEEF(t *testing.T) {
	ds := dataset.Uniform(200, 6, 55)
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	reused := openClient(x.single, 0, nil)
	for trial := 0; trial < 20; trial++ {
		probe := rng.Int63n(int64(x.CycleSlots()))
		hc := ds.Objects[rng.Intn(ds.N())].HC

		fresh := openClient(x.single, probe, nil)
		wantF, wantEx, wantSt := fresh.EEF(hc)

		reused.Tune(probe, nil)
		gotF, gotEx, gotSt := reused.EEF(hc)
		if gotF != wantF || gotEx != wantEx || gotSt != wantSt {
			t.Fatalf("trial %d: EEF (%d,%v,%+v) != fresh (%d,%v,%+v)",
				trial, gotF, gotEx, gotSt, wantF, wantEx, wantSt)
		}
	}
}

// TestEpochWrapMatchesFresh drives a warm session across the stamp
// wraparound. A query hands its pages back to the session's free list
// with the stamps it wrote, and after the wrap the epoch restarts at 1:
// stamps written at epoch 1 would read as current facts about whatever
// page index a recycled page serves next, unless the wrap clears every
// page the session owns. The warm session answers a query at epoch 1,
// one at the last epoch before the wrap, then the compared query at
// epoch 1 again, whose IDs and costs must be a fresh session's.
func TestEpochWrapMatchesFresh(t *testing.T) {
	ds := dataset.Uniform(2000, 8, 31)
	x, err := Build(ds, Config{Capacity: 64, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	split := mustLayout(t, x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	side := ds.Curve.Side()
	w := spatial.ClampedWindow(100, 140, 25, side)
	q := spatial.Point{X: 77, Y: 190}
	const probe = 97
	for _, lay := range []*Layout{x.single, split} {
		for _, kind := range []string{"window", "10NN"} {
			query := func(s *Session) ([]int, broadcast.Stats) {
				if kind == "window" {
					return s.Window(w)
				}
				return s.KNN(q, 10, Conservative)
			}
			warm := openClient(lay, 0, nil)
			warm.kb.epoch = 0 // the next Tune runs its query at epoch 1
			warm.Tune(11, nil)
			warm.Window(spatial.ClampedWindow(60, 200, 60, side))
			warm.kb.epoch = epochWrap - 2
			warm.Tune(29, nil)
			warm.KNN(spatial.Point{X: 200, Y: 30}, 5, Conservative)
			if len(warm.kb.frames.owned) == 0 || len(warm.kb.objs.owned) == 0 {
				t.Fatalf("%v: the warm session owns no pages to recycle", lay.Sched)
			}
			warm.Tune(probe, nil)
			if warm.kb.epoch != 1 {
				t.Fatalf("%v: epoch %d after the wrap, want 1", lay.Sched, warm.kb.epoch)
			}
			got, gotSt := query(warm)
			want, wantSt := query(openClient(lay, probe, nil))
			if !equalInts(got, want) || gotSt != wantSt {
				t.Errorf("%v x%d: %s after the wrap (%v, %+v) != fresh (%v, %+v)",
					lay.Sched, lay.Channels(), kind, got, gotSt, want, wantSt)
			}
		}
	}
}

func randWindow(rng *rand.Rand, side int) spatial.Rect {
	cx, cy := rng.Intn(side), rng.Intn(side)
	win := 1 + rng.Intn(side/4)
	return spatial.ClampedWindow(uint32(cx), uint32(cy), uint32(win), uint32(side))
}
