package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// shardBoundsOf builds bounds from shard sizes (which must sum to nf).
func shardBoundsOf(sizes ...int) []int {
	b := []int{0}
	for _, s := range sizes {
		b = append(b, b[len(b)-1]+s)
	}
	return b
}

// TestShardMatchesSplitOneShard is the PR's regression contract: a
// sharded layout with a single shard is exactly the split layout with
// one data channel — same placements, same per-shard catalog, same
// client decisions, bit for bit, loss or no loss.
func TestShardMatchesSplitOneShard(t *testing.T) {
	for ci, cfg := range []Config{{}, {Capacity: 256}} {
		ds := dataset.Uniform(320, 7, int64(130+ci))
		x, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		split, err := NewLayout(x, MultiConfig{Channels: 2, Scheduler: SchedSplit, SwitchSlots: 2})
		if err != nil {
			t.Fatal(err)
		}
		shard, err := NewLayout(x, MultiConfig{Channels: 2, Scheduler: SchedShard, SwitchSlots: 2,
			ShardBounds: []int{0, x.NF}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(17 + ci)))
		side := int(ds.Curve.Side())
		for trial := 0; trial < 15; trial++ {
			probe := rng.Int63n(int64(split.ProbeCycle()))
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
			a := openClient(split, probe, mkLoss())
			b := openClient(shard, probe, mkLoss())
			if trial%2 == 0 {
				w := randWindow(rng, side)
				wantIDs, wantSt := a.Window(w)
				gotIDs, gotSt := b.Window(w)
				if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
					t.Fatalf("cfg %d trial %d: shard window (%v,%+v) != split (%v,%+v)",
						ci, trial, gotIDs, gotSt, wantIDs, wantSt)
				}
			} else {
				q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
				k := 1 + rng.Intn(8)
				wantIDs, wantSt := a.KNN(q, k, Conservative)
				gotIDs, gotSt := b.KNN(q, k, Conservative)
				if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
					t.Fatalf("cfg %d trial %d: shard kNN (%v,%+v) != split (%v,%+v)",
						ci, trial, gotIDs, gotSt, wantIDs, wantSt)
				}
			}
		}
	}
}

// TestShardLayoutCorrectness cross-checks sharded queries against brute
// force across uneven shard maps — including single-frame shards and
// cycle lengths that are not multiples of each other.
func TestShardLayoutCorrectness(t *testing.T) {
	ds := dataset.Uniform(351, 7, 901)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nf := x.NF
	for _, bounds := range [][]int{
		shardBoundsOf(nf/2, nf-nf/2),       // two halves
		shardBoundsOf(7, 13, nf-20),        // coprime hot cycles vs cold tail
		shardBoundsOf(1, nf-2, 1),          // single-frame shards at both ends
		shardBoundsOf(23, 54, 100, nf-177), // four uneven shards
		shardBoundsOf(nf-1, 1),             // all load on one shard, one stray frame
	} {
		mc := MultiConfig{Channels: len(bounds), Scheduler: SchedShard, SwitchSlots: 2, ShardBounds: bounds}
		lay, err := NewLayout(x, mc)
		if err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
		// Unequal cycles: verify the per-channel lengths really differ
		// and are not multiples where the shard map says so.
		for s := 0; s+1 < len(bounds)-1; s++ {
			if got := lay.ChanLen(1 + s); got != (bounds[s+1]-bounds[s])*lay.DataPackets {
				t.Fatalf("bounds %v: shard %d cycle %d", bounds, s, got)
			}
		}
		rng := rand.New(rand.NewSource(int64(len(bounds))))
		side := int(ds.Curve.Side())
		c := openClient(lay, 0, nil)
		if c.kb.nspan != len(bounds)-1 {
			t.Fatalf("bounds %v: client has %d knowledge spans, want %d", bounds, c.kb.nspan, len(bounds)-1)
		}
		for trial := 0; trial < 10; trial++ {
			probe := rng.Int63n(int64(lay.ProbeCycle()))
			var loss *broadcast.LossModel
			if trial%4 == 3 {
				loss = broadcast.NewLossModel(0.3, rng.Int63())
			}
			c.Tune(probe, loss)
			if trial%2 == 0 {
				w := randWindow(rng, side)
				got, st := c.Window(w)
				if want := ds.WindowBrute(w); !equalInts(got, want) {
					t.Fatalf("bounds %v: window %v got %v want %v", bounds, w, got, want)
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
					t.Fatalf("bounds %v: kNN at %v k=%d got %v want %v", bounds, q, k, got, want)
				}
			}
		}
	}
}

// TestShardLayoutValidation covers the shard-map error paths: empty
// shards, uncovered frames, mismatched channel counts, and reorganized
// broadcasts.
func TestShardLayoutValidation(t *testing.T) {
	ds := dataset.Uniform(60, 6, 3)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nf := x.NF
	cases := []struct {
		name string
		mc   MultiConfig
	}{
		{"empty shard", MultiConfig{Channels: 3, Scheduler: SchedShard, ShardBounds: []int{0, 20, 20, nf}}},
		{"empty shard via dup sentinel", MultiConfig{Channels: 3, Scheduler: SchedShard, ShardBounds: []int{0, nf, nf}}},
		{"missing head", MultiConfig{Channels: 2, Scheduler: SchedShard, ShardBounds: []int{5, nf}}},
		{"missing tail", MultiConfig{Channels: 2, Scheduler: SchedShard, ShardBounds: []int{0, nf - 3}}},
		{"descending", MultiConfig{Channels: 3, Scheduler: SchedShard, ShardBounds: []int{0, 30, 20, nf}}},
		{"channel mismatch", MultiConfig{Channels: 4, Scheduler: SchedShard, ShardBounds: []int{0, 10, nf}}},
		{"no bounds", MultiConfig{Channels: 3, Scheduler: SchedShard}},
	}
	for _, tc := range cases {
		if _, err := NewLayout(x, tc.mc); err == nil {
			t.Errorf("%s accepted: %+v", tc.name, tc.mc)
		}
	}
	// Reorganized broadcasts cannot shard (shards are HC spans).
	xr, err := Build(ds, Config{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayout(xr, MultiConfig{Channels: 2, Scheduler: SchedShard, ShardBounds: []int{0, xr.NF}}); err == nil {
		t.Error("reorganized broadcast accepted for sharding")
	}
}

// TestShardPlacementInvariants checks every table and data placement of
// a sharded layout, and that total bandwidth equals the single-channel
// program (equal aggregate bandwidth with any other layout of the same
// index).
func TestShardPlacementInvariants(t *testing.T) {
	ds := dataset.Uniform(123, 7, 9)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := shardBoundsOf(11, 49, x.NF-60)
	lay, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 1, ShardBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ch := range lay.Air.Channels {
		total += ch.Len()
	}
	if total != x.CycleSlots() {
		t.Errorf("%d total slots, want %d", total, x.CycleSlots())
	}
	for pos := 0; pos < x.NF; pos++ {
		tc, ts := lay.TablePlace(pos)
		if tc != 0 {
			t.Fatalf("pos %d: table on channel %d", pos, tc)
		}
		s := lay.Air.Channels[tc].At(ts)
		if s.Kind != broadcast.KindIndex {
			t.Fatalf("pos %d: table placed at %+v", pos, s)
		}
		dc, dsl := lay.DataPlace(pos)
		wantCh := 1
		for pos >= bounds[wantCh] {
			wantCh++
		}
		if dc != wantCh {
			t.Fatalf("pos %d: data on channel %d, want %d", pos, dc, wantCh)
		}
		d := lay.Air.Channels[dc].At(dsl)
		if d.Kind != broadcast.KindData {
			t.Fatalf("pos %d: data placed at %+v", pos, d)
		}
		// Slot inversions agree with the placements.
		if p2, part, ok := lay.SlotTable(tc, ts); !ok || p2 != pos || part != 0 {
			t.Fatalf("pos %d: SlotTable inverted to (%d,%d,%v)", pos, p2, part, ok)
		}
		if p2, off, ok := lay.SlotData(dc, dsl); !ok || p2 != pos || off != 0 {
			t.Fatalf("pos %d: SlotData inverted to (%d,%d,%v)", pos, p2, off, ok)
		}
	}
}

// TestShardClientResetMatchesFresh extends the client-reuse contract to
// sharded layouts (whose knowledge base carries per-shard spans).
func TestShardClientResetMatchesFresh(t *testing.T) {
	ds := dataset.Uniform(280, 7, 61)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := shardBoundsOf(17, 100, x.NF-117)
	lay, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 2, ShardBounds: bounds})
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
		reused.Tune(rng.Int63n(int64(lay.ProbeCycle())), nil)
		reused.KNN(spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}, 2, Conservative)

		w := randWindow(rng, side)
		fresh := openClient(lay, probe, mkLoss())
		wantIDs, wantSt := fresh.Window(w)
		reused.Tune(probe, mkLoss())
		gotIDs, gotSt := reused.Window(w)
		if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
			t.Fatalf("trial %d: reused (%v,%+v) != fresh (%v,%+v)",
				trial, gotIDs, gotSt, wantIDs, wantSt)
		}
	}
}

// TestShardHotQueriesFaster is the unit-level version of the sharded
// experiment's acceptance: with all query load on a small HC span, a
// layout that gives that span its own small shard answers those queries
// with lower latency than uniform striping at the same channel count.
func TestShardHotQueriesFaster(t *testing.T) {
	ds := dataset.Uniform(600, 7, 77)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hot := 40 // frames at the head of the HC order
	shard, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 2,
		ShardBounds: shardBoundsOf(hot/2, hot/2, x.NF-hot)})
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var shardLat, splitLat int64
	cs := openClient(shard, 0, nil)
	cu := openClient(split, 0, nil)
	for trial := 0; trial < 60; trial++ {
		// Query a random hot object's cell neighborhood.
		o := ds.Objects[rng.Intn(hot)]
		w := hilbertWindow(o.P.X, o.P.Y)
		u := rng.Float64()
		cs.Tune(int64(u*float64(shard.ProbeCycle())), nil)
		if got, _ := cs.Window(w); !equalInts(got, ds.WindowBrute(w)) {
			t.Fatalf("shard window wrong at trial %d", trial)
		}
		cu.Tune(int64(u*float64(split.ProbeCycle())), nil)
		cu.Window(w)
		shardLat += cs.Stats().LatencyPackets
		splitLat += cu.Stats().LatencyPackets
	}
	if shardLat >= splitLat {
		t.Errorf("hot-span shard latency %d packets >= uniform split %d", shardLat, splitLat)
	}
}
