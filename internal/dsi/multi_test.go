package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// TestSingleChannelLayoutBitIdentical is the N=1 reduction contract of
// the channel layer: a multi-channel client over a one-channel layout
// (either scheduler) must answer every query with exactly the same
// results and exactly the same cost metrics as the classic
// single-channel client, loss or no loss.
func TestSingleChannelLayoutBitIdentical(t *testing.T) {
	for _, sched := range []Scheduler{SchedStripe, SchedSplit} {
		for ci, cfg := range []Config{{}, {Segments: 2}, {Capacity: 512, Segments: 2}} {
			ds := dataset.Uniform(300, 7, int64(400+ci))
			x, err := Build(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lay, err := NewLayout(x, MultiConfig{Channels: 1, Scheduler: sched, SwitchSlots: 4})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(7*ci + int(sched))))
			side := int(ds.Curve.Side())
			for trial := 0; trial < 15; trial++ {
				probe := rng.Int63n(int64(x.CycleSlots()))
				var theta float64
				if trial%3 == 2 {
					theta = 0.4
				}
				lossSeed := rng.Int63()
				mkLoss := func() *broadcast.LossModel {
					if theta == 0 {
						return nil
					}
					return broadcast.NewLossModel(theta, lossSeed)
				}
				single := openClient(x.single, probe, mkLoss())
				multi := openClient(lay, probe, mkLoss())
				if trial%2 == 0 {
					w := randWindow(rng, side)
					wantIDs, wantSt := single.Window(w)
					gotIDs, gotSt := multi.Window(w)
					if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
						t.Fatalf("%v cfg %d trial %d: window (%v,%+v) != single (%v,%+v)",
							sched, ci, trial, gotIDs, gotSt, wantIDs, wantSt)
					}
				} else {
					q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
					k := 1 + rng.Intn(8)
					wantIDs, wantSt := single.KNN(q, k, Conservative)
					gotIDs, gotSt := multi.KNN(q, k, Conservative)
					if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
						t.Fatalf("%v cfg %d trial %d: kNN (%v,%+v) != single (%v,%+v)",
							sched, ci, trial, gotIDs, gotSt, wantIDs, wantSt)
					}
				}
			}
		}
	}
}

// TestOneChannelLayoutIsClassicArithmetic: the one-channel layout is
// the stripe layout at N = 1 — the index's own single layout and every
// scheduler asked for one channel alike — and its placements are the
// paper's slot arithmetic: the table of position pos at
// pos·FramePackets, its data TablePackets later, and a probe resuming
// at the next frame start. No stagger applies at one channel.
func TestOneChannelLayoutIsClassicArithmetic(t *testing.T) {
	for _, m := range []int{1, 2} {
		x := buildT(t, 150, 7, 41, Config{Segments: m})
		lays := map[string]*Layout{"single": x.single}
		for _, s := range []Scheduler{SchedStripe, SchedSplit, SchedShard} {
			lays[s.String()] = mustLayout(t, x, MultiConfig{Channels: 1, Scheduler: s, SwitchSlots: 3})
		}
		fp, tp := x.FramePackets, x.TablePackets
		for name, lay := range lays {
			if lay.Channels() != 1 || lay.ChanLen(0) != x.CycleSlots() || lay.stripeOff != nil {
				t.Fatalf("m=%d %s: %d channels, %d of %d slots, stagger %v",
					m, name, lay.Channels(), lay.ChanLen(0), x.CycleSlots(), lay.stripeOff)
			}
			for pos := 0; pos < x.NF; pos++ {
				if ch, slot := lay.TablePlace(pos); ch != 0 || slot != pos*fp {
					t.Fatalf("m=%d %s: table of position %d at (%d,%d), want (0,%d)", m, name, pos, ch, slot, pos*fp)
				}
				if ch, slot := lay.DataPlace(pos); ch != 0 || slot != pos*fp+tp {
					t.Fatalf("m=%d %s: data of position %d at (%d,%d), want (0,%d)", m, name, pos, ch, slot, pos*fp+tp)
				}
			}
			prog := &lay.Air.Channels[0].Program
			for slot := 0; slot < x.CycleSlots(); slot++ {
				pos, within := slot/fp, slot%fp
				table := within < tp
				kind := broadcast.KindData
				if table {
					kind = broadcast.KindIndex
				}
				if got := prog.At(slot).Kind; got != kind {
					t.Fatalf("m=%d %s: slot %d is %v, want %v", m, name, slot, got, kind)
				}
				if p, part, ok := lay.SlotTable(0, slot); ok != table || ok && (p != pos || part != within) {
					t.Fatalf("m=%d %s: SlotTable(0, %d) = (%d,%d,%v)", m, name, slot, p, part, ok)
				}
				if p, off, ok := lay.SlotData(0, slot); ok == table || ok && (p != pos || off != within-tp) {
					t.Fatalf("m=%d %s: SlotData(0, %d) = (%d,%d,%v)", m, name, slot, p, off, ok)
				}
				want := pos
				if within != 0 {
					want = (pos + 1) % x.NF
				}
				if got := lay.probePos(slot); got != want {
					t.Fatalf("m=%d %s: a probe at slot %d resumes at position %d, want %d", m, name, slot, got, want)
				}
			}
		}
	}
}

// multiConfigs spans the scheduler x channel-count x segment grid the
// correctness tests sweep.
func multiConfigs() []MultiConfig {
	return []MultiConfig{
		{Channels: 2, Scheduler: SchedStripe, SwitchSlots: 2},
		{Channels: 3, Scheduler: SchedStripe},
		{Channels: 2, Scheduler: SchedSplit, SwitchSlots: 2},
		{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 1},
	}
}

// TestMultiChannelCorrectness cross-checks every multi-channel query
// against brute force: the channel layer must never change what a query
// answers, only what it costs.
func TestMultiChannelCorrectness(t *testing.T) {
	for ci, cfg := range []Config{{}, {Segments: 2}, {Capacity: 256}} {
		ds := dataset.Uniform(350, 7, int64(900+ci))
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range multiConfigs() {
			lay, err := NewLayout(x, mc)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(50 + ci)))
			side := int(ds.Curve.Side())
			c := openClient(lay, 0, nil)
			for trial := 0; trial < 12; trial++ {
				probe := rng.Int63n(int64(lay.ProbeCycle()))
				var loss *broadcast.LossModel
				if trial%4 == 3 {
					loss = broadcast.NewLossModel(0.3, rng.Int63())
				}
				c.Tune(probe, loss)
				if trial%2 == 0 {
					w := randWindow(rng, side)
					got, st := c.Window(w)
					want := ds.WindowBrute(w)
					if !equalInts(got, want) {
						t.Fatalf("%v x%d cfg %d: window %v got %v want %v",
							mc.Scheduler, mc.Channels, ci, w, got, want)
					}
					if st.LatencyPackets <= 0 {
						t.Fatalf("no latency accounted: %+v", st)
					}
				} else {
					q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
					k := 1 + rng.Intn(8)
					got, _ := c.KNN(q, k, Conservative)
					want, _ := ds.KNNBrute(q, k)
					if !sameDist2(ds, q, got, want) {
						t.Fatalf("%v x%d cfg %d: kNN at %v k=%d got %v want %v",
							mc.Scheduler, mc.Channels, ci, q, k, got, want)
					}
				}
			}
		}
	}
}

// TestMultiClientResetMatchesFresh extends the client-reuse contract to
// multi-channel layouts.
func TestMultiClientResetMatchesFresh(t *testing.T) {
	ds := dataset.Uniform(300, 7, 61)
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range multiConfigs() {
		lay, err := NewLayout(x, mc)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		side := int(ds.Curve.Side())
		reused := openClient(lay, 0, nil)
		for trial := 0; trial < 10; trial++ {
			probe := rng.Int63n(int64(lay.ProbeCycle()))
			lossSeed := rng.Int63()
			mkLoss := func() *broadcast.LossModel {
				if trial%3 != 1 {
					return nil
				}
				return broadcast.NewLossModel(0.35, lossSeed)
			}
			// Dirty the reused client, then replay the trial query.
			reused.Tune(rng.Int63n(int64(lay.ProbeCycle())), nil)
			reused.KNN(spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}, 2, Conservative)

			w := randWindow(rng, side)
			fresh := openClient(lay, probe, mkLoss())
			wantIDs, wantSt := fresh.Window(w)
			reused.Tune(probe, mkLoss())
			gotIDs, gotSt := reused.Window(w)
			if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
				t.Fatalf("%v x%d trial %d: reused (%v,%+v) != fresh (%v,%+v)",
					mc.Scheduler, mc.Channels, trial, gotIDs, gotSt, wantIDs, wantSt)
			}
		}
	}
}

// TestSplitLayoutSwitchesAndImproves: on a split layout a window query
// must actually switch channels, pay the configured switch cost, and —
// the point of separating index from data — finish no later on average
// than the single-channel broadcast of the same index.
func TestSplitLayoutSwitchesAndImproves(t *testing.T) {
	ds := dataset.Uniform(600, 7, 77)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := NewLayout(x, MultiConfig{Channels: 3, Scheduler: SchedSplit, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	side := int(ds.Curve.Side())
	var singleLat, multiLat, switches int64
	single := openClient(x.single, 0, nil)
	multi := openClient(lay, 0, nil)
	for trial := 0; trial < 40; trial++ {
		w := randWindow(rng, side)
		u := rng.Float64()
		single.Tune(int64(u*float64(x.CycleSlots())), nil)
		_, st1 := single.Window(w)
		multi.Tune(int64(u*float64(lay.ProbeCycle())), nil)
		got, st2 := multi.Window(w)
		if !equalInts(got, ds.WindowBrute(w)) {
			t.Fatalf("split window wrong at trial %d", trial)
		}
		singleLat += st1.LatencyPackets
		multiLat += st2.LatencyPackets
		switches += st2.Switches
	}
	if switches == 0 {
		t.Error("split layout never switched channels")
	}
	if multiLat >= singleLat {
		t.Errorf("split layout latency %d packets >= single-channel %d", multiLat, singleLat)
	}
}

// TestLayoutValidation covers layout construction error paths.
func TestLayoutValidation(t *testing.T) {
	ds := dataset.Uniform(40, 6, 3)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayout(x, MultiConfig{Channels: 0}); err == nil {
		t.Error("0 channels accepted")
	}
	if _, err := NewLayout(x, MultiConfig{Channels: 2, SwitchSlots: -1}); err == nil {
		t.Error("negative switch cost accepted")
	}
	if _, err := NewLayout(x, MultiConfig{Channels: x.NF + 1, Scheduler: SchedStripe}); err == nil {
		t.Error("more channels than frames accepted (stripe)")
	}
	if _, err := NewLayout(x, MultiConfig{Channels: x.NF + 2, Scheduler: SchedSplit}); err == nil {
		t.Error("more data channels than frames accepted (split)")
	}
	if _, err := NewLayout(x, MultiConfig{Channels: 2, Scheduler: Scheduler(99)}); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestLayoutPlacementInvariants checks that every frame's table and
// data placements point at the right slots of the right channels.
func TestLayoutPlacementInvariants(t *testing.T) {
	ds := dataset.Uniform(123, 7, 9)
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range multiConfigs() {
		lay, err := NewLayout(x, mc)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, ch := range lay.Air.Channels {
			total += ch.Len()
		}
		if total != x.CycleSlots() {
			t.Errorf("%v x%d: %d total slots, want %d", mc.Scheduler, mc.Channels, total, x.CycleSlots())
		}
		for pos := 0; pos < x.NF; pos++ {
			tc, ts := lay.TablePlace(pos)
			s := lay.Air.Channels[tc].At(ts)
			p, part, ok := lay.SlotTable(tc, ts)
			if s.Kind != broadcast.KindIndex || !ok || p != pos || part != 0 {
				t.Fatalf("%v x%d pos %d: table placed at %+v, inverted to (%d,%d,%v)", mc.Scheduler, mc.Channels, pos, s, p, part, ok)
			}
			dc, dsl := lay.DataPlace(pos)
			d := lay.Air.Channels[dc].At(dsl)
			p, off, ok := lay.SlotData(dc, dsl)
			if d.Kind != broadcast.KindData || !ok || p != pos || off != 0 {
				t.Fatalf("%v x%d pos %d: data placed at %+v, inverted to (%d,%d,%v)", mc.Scheduler, mc.Channels, pos, d, p, off, ok)
			}
		}
	}
}

func sameDist2(ds *dataset.Dataset, q spatial.Point, a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	var da, db float64
	for i := range a {
		da += ds.ByID(a[i]).P.Dist2(q)
		db += ds.ByID(b[i]).P.Dist2(q)
	}
	return da == db
}
