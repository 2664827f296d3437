package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// hopBed runs trials aggressive kNN queries over the layout with the
// arrival-time hop pricing toggled by posHopOnly, returning total
// latency and tuning packets. Result IDs must not depend on the
// toggle, so the caller can compare costs knowing answers agree.
func hopBed(t *testing.T, lay *Layout, trials int, seed int64, check func(q int, ids []int)) (lat, tun int64) {
	t.Helper()
	sess, err := Open(lay.X, WithReceiver(NewSimReceiver(lay, 0, nil)))
	if err != nil {
		t.Fatal(err)
	}
	side := int(lay.X.DS.Curve.Side())
	cycle := int64(lay.ProbeCycle())
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < trials; q++ {
		probe := rng.Int63n(cycle)
		p := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
		sess.Tune(probe, nil)
		ids, st := sess.KNN(p, 5, Aggressive)
		check(q, ids)
		lat += st.LatencyPackets
		tun += st.TuningPackets
	}
	return lat, tun
}

// TestAggressiveHopClassicUnchanged pins the timed-hop gate shut on
// single-channel layouts: with one data channel, position order is
// time order, and the aggressive hop must behave bit-identically with
// the pricing enabled or disabled.
func TestAggressiveHopClassicUnchanged(t *testing.T) {
	ds := dataset.Uniform(500, 7, 2)
	x, err := Build(ds, Config{Capacity: 64, ObjectBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	lay := x.SingleLayout()

	results := make(map[int][]int)
	record := func(q int, ids []int) { results[q] = append([]int(nil), ids...) }
	latNew, tunNew := hopBed(t, lay, 60, 9, record)

	sess, err := Open(x, WithReceiver(NewSimReceiver(lay, 0, nil)))
	if err != nil {
		t.Fatal(err)
	}
	sess.posHopOnly = true
	side := int(ds.Curve.Side())
	cycle := int64(lay.ProbeCycle())
	rng := rand.New(rand.NewSource(9))
	var latOld, tunOld int64
	for q := 0; q < 60; q++ {
		probe := rng.Int63n(cycle)
		p := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
		sess.Tune(probe, nil)
		ids, st := sess.KNN(p, 5, Aggressive)
		latOld += st.LatencyPackets
		tunOld += st.TuningPackets
		want := results[q]
		if len(ids) != len(want) {
			t.Fatalf("query %d: result count changed", q)
		}
		for i := range ids {
			if ids[i] != want[i] {
				t.Fatalf("query %d: result %d changed with the hop toggle", q, i)
			}
		}
	}
	if latNew != latOld || tunNew != tunOld {
		t.Fatalf("classic aggressive kNN changed: lat %d -> %d, tun %d -> %d", latOld, latNew, tunOld, tunNew)
	}
}

// TestAggressiveHopShardZipf demands the arrival-time pricing actually
// pays off where it is supposed to: on a sharded layout over a Zipf
// clustered dataset with uneven shards, hops priced by per-shard
// arrival time must beat purely positional hops in aggregate latency,
// without changing any query's answer.
func TestAggressiveHopShardZipf(t *testing.T) {
	ds := dataset.Clustered(dataset.ClusteredConfig{
		N: 1200, Order: 8, Clusters: 24, Spread: 0.02, Isolated: 0.1, Seed: 4,
	})
	x, err := Build(ds, Config{Capacity: 64, ObjectBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	nf := x.NF
	// Deliberately uneven shards: the hot head of the Zipf curve
	// crowds the first channel while the tail spreads thin.
	lay, err := NewLayout(x, MultiConfig{
		Channels:    4,
		Scheduler:   SchedShard,
		SwitchSlots: 2,
		ShardBounds: []int{0, nf / 6, nf / 2, nf},
	})
	if err != nil {
		t.Fatal(err)
	}

	const trials = 120
	results := make(map[int][]int)
	record := func(q int, ids []int) { results[q] = append([]int(nil), ids...) }
	latNew, _ := hopBed(t, lay, trials, 5, record)

	sess, err := Open(x, WithReceiver(NewSimReceiver(lay, 0, nil)))
	if err != nil {
		t.Fatal(err)
	}
	sess.posHopOnly = true
	side := int(ds.Curve.Side())
	cycle := int64(lay.ProbeCycle())
	rng := rand.New(rand.NewSource(5))
	var latOld int64
	for q := 0; q < trials; q++ {
		probe := rng.Int63n(cycle)
		p := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
		sess.Tune(probe, nil)
		ids, st := sess.KNN(p, 5, Aggressive)
		latOld += st.LatencyPackets
		want := results[q]
		if len(ids) != len(want) {
			t.Fatalf("query %d: result count changed", q)
		}
		for i := range ids {
			if ids[i] != want[i] {
				t.Fatalf("query %d: result %d changed with the hop toggle", q, i)
			}
		}
	}
	if latNew >= latOld {
		t.Fatalf("timed hop pricing did not improve sharded Zipf latency: %d (timed) vs %d (positional)", latNew, latOld)
	}
	t.Logf("sharded Zipf aggregate latency: %d (timed) vs %d (positional), %.1f%% lower",
		latNew, latOld, 100*(1-float64(latNew)/float64(latOld)))
}
