package dsi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// configsUnderTest exercises every structural variant: original and
// reorganized broadcasts, both sizings, different bases and capacities.
var configsUnderTest = []Config{
	{},
	{Segments: 2},
	{Segments: 3},
	{Segments: 4},
	{Capacity: 32},
	{Capacity: 512, Segments: 2},
	{IndexBase: 4},
	{Sizing: SizingUnitFactor},
	{Sizing: SizingUnitFactor, Segments: 2},
	{Sizing: SizingUnitFactor, IndexBase: 4, Segments: 4},
	{Sizing: SizingUnitFactor, Capacity: 32},
	{Sizing: SizingPaperTable, Capacity: 64},
	{Sizing: SizingPaperTable, Capacity: 128, Segments: 2},
	{Sizing: SizingPaperTable, Capacity: 512},
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWindowMatchesBruteForce(t *testing.T) {
	ds := dataset.Uniform(300, 6, 11)
	rng := rand.New(rand.NewSource(99))
	for ci, cfg := range configsUnderTest {
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		for i := 0; i < 12; i++ {
			w := spatial.ClampedWindow(
				uint32(rng.Intn(64)), uint32(rng.Intn(64)),
				uint32(rng.Intn(20)+1), 64)
			probe := rng.Int63n(int64(x.CycleSlots()))
			c := openClient(x.single, probe, nil)
			got, st := c.Window(w)
			want := ds.WindowBrute(w)
			if !equalInts(got, want) {
				t.Fatalf("cfg %d window %v: got %v, want %v", ci, w, got, want)
			}
			if st.TuningPackets > st.LatencyPackets {
				t.Fatalf("cfg %d: tuning exceeds latency: %+v", ci, st)
			}
			if st.LatencyPackets <= 0 {
				t.Fatalf("cfg %d: nonpositive latency", ci)
			}
		}
	}
}

func TestWindowWholeGrid(t *testing.T) {
	ds := dataset.Uniform(100, 6, 3)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 0, nil)
	got, _ := c.Window(spatial.Rect{MinX: 0, MinY: 0, MaxX: 63, MaxY: 63})
	if len(got) != 100 {
		t.Errorf("whole-grid window returned %d objects, want 100", len(got))
	}
}

func TestWindowEmptyResult(t *testing.T) {
	// A dataset confined to the left half; query the right half.
	ds := dataset.Uniform(500, 6, 3)
	var objs []dataset.Object
	for _, o := range ds.Objects {
		if o.P.X < 20 {
			objs = append(objs, o)
		}
	}
	for i := range objs {
		objs[i].ID = i
	}
	left := &dataset.Dataset{Curve: ds.Curve, Objects: objs, Name: "left"}
	x, err := Build(left, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := openClient(x.single, 7, nil)
	got, st := c.Window(spatial.Rect{MinX: 40, MinY: 0, MaxX: 63, MaxY: 63})
	if len(got) != 0 {
		t.Errorf("got %d objects, want none", len(got))
	}
	if st.LatencyPackets <= 0 {
		t.Error("query must still pay the probe")
	}
}

func TestPointQuery(t *testing.T) {
	ds := dataset.Uniform(200, 6, 13)
	for _, cfg := range []Config{{}, {Segments: 2}, {Sizing: SizingPaperTable, Capacity: 64}} {
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Existing point.
		o := ds.Objects[57]
		c := openClient(x.single, 123, nil)
		id, found, _ := c.Point(o.P)
		if !found || id != o.ID {
			t.Errorf("cfg %+v: Point(%v) = (%d,%v), want (%d,true)", cfg, o.P, id, found, o.ID)
		}
		// Missing point: find an unoccupied cell.
		occupied := make(map[uint64]bool)
		for _, oo := range ds.Objects {
			occupied[oo.HC] = true
		}
		var miss spatial.Point
		for v := uint64(0); ; v++ {
			if !occupied[v] {
				mx, my := ds.Curve.Decode(v)
				miss = spatial.Point{X: mx, Y: my}
				break
			}
		}
		c = openClient(x.single, 55, nil)
		if _, found, _ := c.Point(miss); found {
			t.Errorf("cfg %+v: Point(%v) found a nonexistent object", cfg, miss)
		}
	}
}

// TestQueriesOffTheGrid holds every query whose parameters reach past
// the grid to brute force: windows past each edge, on the edge,
// straddling one and inverted; points and kNN centres off the grid.
func TestQueriesOffTheGrid(t *testing.T) {
	ds := dataset.Uniform(2000, 6, 23)
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	const far = math.MaxUint32
	windows := []spatial.Rect{
		{MinX: 70, MinY: 0, MaxX: 90, MaxY: 63},    // past the right edge
		{MinX: 0, MinY: 64, MaxX: 63, MaxY: 80},    // past the top edge
		{MinX: 64, MinY: 64, MaxX: far, MaxY: far}, // past the corner
		{MinX: 64, MinY: 10, MaxX: 64, MaxY: 20},   // on the side itself
		{MinX: 50, MinY: 3, MaxX: 200, MaxY: 9},    // straddling the right edge
		{MinX: 5, MinY: 60, MaxX: 12, MaxY: far},   // straddling the top edge
		{MinX: 40, MinY: 40, MaxX: 99, MaxY: 99},   // straddling the corner
		{MinX: 30, MinY: 5, MaxX: 10, MaxY: 20},    // inverted
		{MinX: 80, MinY: 5, MaxX: 10, MaxY: 20},    // inverted, past the edge
	}
	for i, w := range windows {
		c := openClient(x.single, int64(97*i), nil)
		got, st := c.Window(w)
		if want := ds.WindowBrute(w); !equalInts(got, want) {
			t.Errorf("window %+v: got %v, want %v", w, got, want)
		}
		if st.LatencyPackets <= 0 {
			t.Errorf("window %+v: the probe must still be paid", w)
		}
	}
	for i, p := range []spatial.Point{{X: 64, Y: 5}, {X: 5, Y: 64}, {X: 300, Y: far}} {
		c := openClient(x.single, int64(31*i), nil)
		if id, found, st := c.Point(p); found || st.LatencyPackets <= 0 {
			t.Errorf("Point(%v) = (%d, %v, %+v), want not found after a probe", p, id, found, st)
		}
		for _, strat := range []Strategy{Conservative, Aggressive} {
			c := openClient(x.single, int64(31*i), nil)
			got, _ := c.KNN(p, 4, strat)
			want, _ := ds.KNNBrute(p, 4)
			gd, wd := knnDistances(ds, p, got), knnDistances(ds, p, want)
			if len(gd) != len(wd) {
				t.Fatalf("%v kNN at %v: got %v, want %v", strat, p, got, want)
			}
			for j := range gd {
				if gd[j] != wd[j] {
					t.Errorf("%v kNN at %v: got %v, want %v", strat, p, got, want)
					break
				}
			}
		}
	}
}

func knnDistances(ds *dataset.Dataset, q spatial.Point, ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = ds.ByID(id).P.Dist(q)
	}
	sort.Float64s(out)
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	ds := dataset.Uniform(300, 6, 17)
	rng := rand.New(rand.NewSource(5))
	for ci, cfg := range configsUnderTest {
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		for _, strat := range []Strategy{Conservative, Aggressive} {
			for i := 0; i < 8; i++ {
				q := spatial.Point{X: uint32(rng.Intn(64)), Y: uint32(rng.Intn(64))}
				k := rng.Intn(12) + 1
				probe := rng.Int63n(int64(x.CycleSlots()))
				c := openClient(x.single, probe, nil)
				got, st := c.KNN(q, k, strat)
				if len(got) != k {
					t.Fatalf("cfg %d %v: got %d ids, want %d", ci, strat, len(got), k)
				}
				want, _ := ds.KNNBrute(q, k)
				gd := knnDistances(ds, q, got)
				wd := knnDistances(ds, q, want)
				for j := range gd {
					if gd[j] != wd[j] {
						t.Fatalf("cfg %d %v q=%v k=%d: distance[%d] = %v, want %v (ids %v vs %v)",
							ci, strat, q, k, j, gd[j], wd[j], got, want)
					}
				}
				if st.TuningPackets > st.LatencyPackets {
					t.Fatalf("cfg %d %v: tuning exceeds latency", ci, strat)
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	ds := dataset.Uniform(50, 6, 19)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 3, nil)
	if got, _ := c.KNN(spatial.Point{X: 1, Y: 1}, 0, Conservative); got != nil {
		t.Error("k=0 must return nil")
	}
	c = openClient(x.single, 3, nil)
	got, _ := c.KNN(spatial.Point{X: 1, Y: 1}, 100, Conservative)
	if len(got) != 50 {
		t.Errorf("k>n returned %d, want all 50", len(got))
	}
	// k = n exactly.
	c = openClient(x.single, 900, nil)
	got, _ = c.KNN(spatial.Point{X: 60, Y: 60}, 50, Aggressive)
	if len(got) != 50 {
		t.Errorf("k=n returned %d", len(got))
	}
}

func TestKNNQueryAtObjectLocation(t *testing.T) {
	ds := dataset.Uniform(200, 6, 23)
	x, _ := Build(ds, Config{Segments: 2})
	o := ds.Objects[100]
	c := openClient(x.single, 42, nil)
	got, _ := c.KNN(o.P, 1, Conservative)
	if len(got) != 1 || got[0] != o.ID {
		t.Errorf("1NN at object location = %v, want [%d]", got, o.ID)
	}
}

func TestQueriesFromEveryProbePosition(t *testing.T) {
	// Exhaustive probe sweep on a small broadcast: correctness must not
	// depend on where the client tunes in.
	ds := dataset.Uniform(40, 5, 29)
	for _, cfg := range []Config{{}, {Segments: 2}} {
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := spatial.Rect{MinX: 5, MinY: 5, MaxX: 25, MaxY: 25}
		want := ds.WindowBrute(w)
		q := spatial.Point{X: 16, Y: 16}
		wantKNN, _ := ds.KNNBrute(q, 5)
		wd := knnDistances(ds, q, wantKNN)
		step := x.FramePackets/3 + 1
		for probe := 0; probe < x.CycleSlots(); probe += step {
			c := openClient(x.single, int64(probe), nil)
			got, _ := c.Window(w)
			if !equalInts(got, want) {
				t.Fatalf("cfg %+v probe %d: window mismatch", cfg, probe)
			}
			c = openClient(x.single, int64(probe), nil)
			gotKNN, _ := c.KNN(q, 5, Conservative)
			if gd := knnDistances(ds, q, gotKNN); !equalFloats(gd, wd) {
				t.Fatalf("cfg %+v probe %d: kNN mismatch", cfg, probe)
			}
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLatencyBoundedByFewCycles(t *testing.T) {
	// DSI queries must terminate within a small number of cycles.
	ds := dataset.Uniform(300, 6, 31)
	for _, cfg := range []Config{{}, {Segments: 2}} {
		x, _ := Build(ds, cfg)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 10; i++ {
			q := spatial.Point{X: uint32(rng.Intn(64)), Y: uint32(rng.Intn(64))}
			c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
			_, st := c.KNN(q, 10, Conservative)
			if st.LatencyPackets > 3*int64(x.CycleSlots()) {
				t.Errorf("cfg %+v: kNN took %d packets (> 3 cycles of %d)",
					cfg, st.LatencyPackets, x.CycleSlots())
			}
		}
	}
}

func TestClusteredDatasetQueries(t *testing.T) {
	ds := dataset.Clustered(dataset.ClusteredConfig{
		N: 400, Order: 7, Clusters: 8, Spread: 0.05, Isolated: 0.2, Seed: 5,
	})
	x, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		q := spatial.Point{X: uint32(rng.Intn(128)), Y: uint32(rng.Intn(128))}
		c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
		got, _ := c.KNN(q, 7, Conservative)
		want, _ := ds.KNNBrute(q, 7)
		if !equalFloats(knnDistances(ds, q, got), knnDistances(ds, q, want)) {
			t.Fatalf("clustered kNN mismatch at %v", q)
		}
		w := spatial.ClampedWindow(uint32(rng.Intn(128)), uint32(rng.Intn(128)), 25, 128)
		c = openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
		gotW, _ := c.Window(w)
		if !equalInts(gotW, ds.WindowBrute(w)) {
			t.Fatalf("clustered window mismatch at %v", w)
		}
	}
}

func TestConservativeVsAggressiveTradeoff(t *testing.T) {
	// Paper section 3.4/4.1: on the original (m=1) broadcast, the
	// aggressive strategy should use no more tuning than conservative
	// on average, while conservative should have no more latency.
	ds := dataset.Uniform(1000, 7, 37)
	x, _ := Build(ds, Config{})
	rng := rand.New(rand.NewSource(3))
	var consLat, consTune, aggLat, aggTune float64
	const trials = 60
	for i := 0; i < trials; i++ {
		q := spatial.Point{X: uint32(rng.Intn(128)), Y: uint32(rng.Intn(128))}
		probe := rng.Int63n(int64(x.CycleSlots()))
		c := openClient(x.single, probe, nil)
		_, st := c.KNN(q, 10, Conservative)
		consLat += float64(st.LatencyPackets)
		consTune += float64(st.TuningPackets)
		c = openClient(x.single, probe, nil)
		_, st = c.KNN(q, 10, Aggressive)
		aggLat += float64(st.LatencyPackets)
		aggTune += float64(st.TuningPackets)
	}
	if aggTune > consTune {
		t.Errorf("aggressive tuning %v > conservative %v", aggTune/trials, consTune/trials)
	}
	if consLat > aggLat*1.05 {
		t.Errorf("conservative latency %v > aggressive %v", consLat/trials, aggLat/trials)
	}
}

func TestReorganizedImprovesKNN(t *testing.T) {
	// Paper section 4.1: the two-segment reorganized broadcast beats
	// the original broadcast's conservative strategy on tuning time
	// (our measured win is ~25% at paper scale) while staying within a
	// modest factor on access latency.
	ds := dataset.Uniform(1000, 7, 41)
	orig, _ := Build(ds, Config{})
	reorg, _ := Build(ds, Config{Segments: 2})
	rng := rand.New(rand.NewSource(4))
	var oLat, oTune, rLat, rTune float64
	const trials = 60
	for i := 0; i < trials; i++ {
		q := spatial.Point{X: uint32(rng.Intn(128)), Y: uint32(rng.Intn(128))}
		probe := rng.Int63n(int64(orig.CycleSlots()))
		c := openClient(orig.single, probe, nil)
		_, st := c.KNN(q, 10, Conservative)
		oLat += float64(st.LatencyPackets)
		oTune += float64(st.TuningPackets)
		c = openClient(reorg.single, probe%int64(reorg.CycleSlots()), nil)
		_, st = c.KNN(q, 10, Conservative)
		rLat += float64(st.LatencyPackets)
		rTune += float64(st.TuningPackets)
	}
	if rTune > oTune {
		t.Errorf("reorganized tuning %v worse than original %v", rTune/trials, oTune/trials)
	}
	if rLat > oLat*1.25 {
		t.Errorf("reorganized latency %v much worse than original %v", rLat/trials, oLat/trials)
	}
}

func TestStatsProbeSlotRecorded(t *testing.T) {
	ds := dataset.Uniform(100, 6, 43)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 777, nil)
	_, st := c.Window(spatial.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})
	if st.ProbeSlot != 777 {
		t.Errorf("ProbeSlot = %d, want 777", st.ProbeSlot)
	}
	if st.Capacity != 64 {
		t.Errorf("Capacity = %d", st.Capacity)
	}
}

func TestKNNRadiusNeverBelowTrueKth(t *testing.T) {
	// Sanity: the kNN result's max distance equals the brute-force kth
	// distance (no object closer than the kth is missed).
	ds := dataset.Uniform(500, 7, 47)
	x, _ := Build(ds, Config{Segments: 2})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		q := spatial.Point{X: uint32(rng.Intn(128)), Y: uint32(rng.Intn(128))}
		c := openClient(x.single, rng.Int63n(int64(x.CycleSlots())), nil)
		got, _ := c.KNN(q, 10, Conservative)
		maxD := 0.0
		for _, id := range got {
			if d := ds.ByID(id).P.Dist(q); d > maxD {
				maxD = d
			}
		}
		if kth := ds.KthDist(q, 10); math.Abs(maxD-kth) > 1e-9 {
			t.Errorf("q=%v: result max dist %v != brute kth %v", q, maxD, kth)
		}
	}
}

var sinkStats broadcast.Stats

func BenchmarkWindowQuery(b *testing.B) {
	ds := dataset.Uniform(1000, 7, 1)
	x, _ := Build(ds, Config{})
	rng := rand.New(rand.NewSource(1))
	c := openClient(x.single, 0, nil)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := spatial.ClampedWindow(uint32(rng.Intn(128)), uint32(rng.Intn(128)), 13, 128)
		c.Tune(rng.Int63n(int64(x.CycleSlots())), nil)
		buf, sinkStats = c.WindowAppend(buf[:0], w)
	}
}

func BenchmarkKNNConservative(b *testing.B) {
	ds := dataset.Uniform(1000, 7, 1)
	x, _ := Build(ds, Config{})
	rng := rand.New(rand.NewSource(1))
	c := openClient(x.single, 0, nil)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := spatial.Point{X: uint32(rng.Intn(128)), Y: uint32(rng.Intn(128))}
		c.Tune(rng.Int63n(int64(x.CycleSlots())), nil)
		buf, sinkStats = c.KNNAppend(buf[:0], q, 10, Conservative)
	}
}

// BenchmarkKNNAggressive exercises the aggressive hop rule, whose
// frame-distance evaluations now read coordinates precomputed at Build
// instead of Hilbert-decoding each table entry per hop.
func BenchmarkKNNAggressive(b *testing.B) {
	ds := dataset.Uniform(1000, 7, 1)
	x, _ := Build(ds, Config{})
	rng := rand.New(rand.NewSource(1))
	c := openClient(x.single, 0, nil)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := spatial.Point{X: uint32(rng.Intn(128)), Y: uint32(rng.Intn(128))}
		c.Tune(rng.Int63n(int64(x.CycleSlots())), nil)
		buf, sinkStats = c.KNNAppend(buf[:0], q, 10, Aggressive)
	}
}

var sinkDist float64

// BenchmarkFrameDist2 measures a frame's distance to the query point
// from the cell coordinates precomputed at Build.
func BenchmarkFrameDist2(b *testing.B) {
	ds := dataset.Uniform(1000, 7, 1)
	x, _ := Build(ds, Config{})
	c := openClient(x.single, 0, nil)
	q := spatial.Point{X: 77, Y: 19}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDist += c.frameDist2(q, i%x.NF)
	}
}
