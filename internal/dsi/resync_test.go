package dsi

import (
	"math/rand"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/spatial"
)

// resyncFixture builds an index and two sharded layouts over it with
// different shard maps: the "old" and "new" directory of a re-plan.
func resyncFixture(t *testing.T, n int, seed int64) (*Index, *Layout, *Layout) {
	t.Helper()
	ds := dataset.Uniform(n, 7, seed)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nf := x.NF
	old, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 2,
		ShardBounds: shardBoundsOf(nf/3, nf/3, nf-2*(nf/3))})
	if err != nil {
		t.Fatal(err)
	}
	new_, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 2,
		ShardBounds: shardBoundsOf(25, 80, nf-105)})
	if err != nil {
		t.Fatal(err)
	}
	return x, old, new_
}

// TestResyncMidQueryCorrectness: a client whose broadcast swaps shard
// directories mid-query — at any point of the query — still answers
// exactly, for window and kNN queries, with and without packet loss.
func TestResyncMidQueryCorrectness(t *testing.T) {
	x, old, new_ := resyncFixture(t, 500, 41)
	ds := x.DS
	rng := rand.New(rand.NewSource(7))
	side := int(ds.Curve.Side())
	c := openClient(old, 0, nil)
	fired := 0
	for trial := 0; trial < 60; trial++ {
		// Recreate the old-directory client when the previous trial's
		// swap went through (a resynced client is a new-layout client).
		if c.Layout() != old {
			c = openClient(old, 0, nil)
			fired++
		}
		probe := rng.Int63n(int64(old.ProbeCycle()))
		var loss *broadcast.LossModel
		if trial%5 == 4 {
			loss = broadcast.NewLossModel(0.3, rng.Int63())
		}
		c.Tune(probe, loss)
		// The seam lands anywhere from immediately to deep into the
		// query; late seams exercise queries that finish before it.
		delay := rng.Int63n(int64(old.ProbeCycle()))
		if err := c.ScheduleResync(new_, probe+delay); err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			w := randWindow(rng, side)
			got, _ := c.Window(w)
			if want := ds.WindowBrute(w); !equalInts(got, want) {
				t.Fatalf("trial %d (delay %d): window %v got %v want %v", trial, delay, w, got, want)
			}
		} else {
			q := spatial.Point{X: uint32(rng.Intn(side)), Y: uint32(rng.Intn(side))}
			k := 1 + rng.Intn(8)
			got, _ := c.KNN(q, k, Conservative)
			want, _ := ds.KNNBrute(q, k)
			if !sameDist2(ds, q, got, want) {
				t.Fatalf("trial %d (delay %d): kNN at %v k=%d got %v want %v", trial, delay, q, k, got, want)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no trial actually crossed a directory swap")
	}
}

// TestResyncIdenticalDirectoryBitIdentical is the drift experiment's
// control contract at the client level: a version bump whose new
// directory carries the same shard bounds (re-planning "disabled" — the
// re-planner kept the plan) must not change a single client decision,
// result, or cost metric.
func TestResyncIdenticalDirectoryBitIdentical(t *testing.T) {
	ds := dataset.Uniform(400, 7, 43)
	x, err := Build(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := shardBoundsOf(30, 120, x.NF-150)
	mk := func() *Layout {
		lay, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 2,
			ShardBounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	layA, layA2 := mk(), mk()
	rng := rand.New(rand.NewSource(3))
	side := int(ds.Curve.Side())
	plain := openClient(layA, 0, nil)
	bumped := openClient(layA, 0, nil)
	for trial := 0; trial < 25; trial++ {
		probe := rng.Int63n(int64(layA.ProbeCycle()))
		delay := rng.Int63n(int64(layA.ChanLen(0)) * 2)
		plain.Tune(probe, nil)
		bumped.Tune(probe, nil)
		if err := bumped.ScheduleResync(layA2, probe+delay); err != nil {
			t.Fatal(err)
		}
		w := randWindow(rng, side)
		wantIDs, wantSt := plain.Window(w)
		gotIDs, gotSt := bumped.Window(w)
		if !equalInts(gotIDs, wantIDs) || gotSt != wantSt {
			t.Fatalf("trial %d: bumped (%v,%+v) != plain (%v,%+v)",
				trial, gotIDs, gotSt, wantIDs, wantSt)
		}
		// The swap really happened on the bumped client (when reached).
		if bumped.Layout() != layA2 && gotSt.LatencyPackets > delay {
			t.Fatalf("trial %d: query ran past the seam without resyncing", trial)
		}
	}
}

// TestResyncPreservesKnowledge white-boxes the knowledge rebuild: every
// fact learned before the bump — known frames, located objects,
// retrieved objects — survives it, the span partition mirrors the new
// bounds, and the new directory's splits are seeded as catalog facts.
func TestResyncPreservesKnowledge(t *testing.T) {
	x, old, new_ := resyncFixture(t, 450, 47)
	c := openClient(old, 0, nil)
	kb := c.kb

	rng := rand.New(rand.NewSource(11))
	knownFrames := map[int]bool{}
	for i := 0; i < 60; i++ {
		f := rng.Intn(x.NF)
		kb.addFrameFact(f, x.minHC[f])
		knownFrames[f] = true
	}
	locObjs := map[int]uint64{}
	retObjs := map[int]bool{}
	for i := 0; i < 40; i++ {
		id := rng.Intn(x.DS.N())
		kb.locate(id, x.DS.Objects[id].HC)
		locObjs[id] = x.DS.Objects[id].HC
		if i%2 == 0 {
			kb.markRetrieved(id)
			retObjs[id] = true
		}
	}

	if err := c.Resync(new_); err != nil {
		t.Fatal(err)
	}

	bounds := new_.ShardBounds()
	if kb.nspan != len(bounds)-1 {
		t.Fatalf("nspan %d after resync, want %d", kb.nspan, len(bounds)-1)
	}
	for s := 0; s < kb.nspan; s++ {
		if kb.spanStart[s] != bounds[s] || kb.splits[s] != x.minHC[bounds[s]] {
			t.Fatalf("span %d: start %d splits %d, want %d %d",
				s, kb.spanStart[s], kb.splits[s], bounds[s], x.minHC[bounds[s]])
		}
		// New-directory catalog: each span's first frame is known.
		if !kb.frameKnown(bounds[s]) {
			t.Fatalf("span %d start frame %d not seeded from the new directory", s, bounds[s])
		}
	}
	for f := range knownFrames {
		if !kb.frameKnown(f) {
			t.Fatalf("frame %d forgotten by resync", f)
		}
		if kb.frameHC(f) != x.minHC[f] {
			t.Fatalf("frame %d HC corrupted", f)
		}
		j := kb.frameSpan(f)
		if !kb.known[j].Contains(f - kb.spanStart[j]) {
			t.Fatalf("frame %d missing from span %d's known set", f, j)
		}
	}
	// Known sets hold exactly the known frames (no stale offsets).
	total := 0
	for j := 0; j < kb.nspan; j++ {
		total += kb.known[j].Len()
		base := kb.spanStart[j]
		for it := kb.known[j].Begin(); it.Valid(); it.Next() {
			if !kb.frameKnown(base + it.Value()) {
				t.Fatalf("span %d lists unknown frame %d", j, base+it.Value())
			}
		}
	}
	for id, hc := range locObjs {
		if !kb.objLocated(id) || kb.objHC(id) != hc {
			t.Fatalf("object %d location lost", id)
		}
	}
	for id := range retObjs {
		if !kb.retrieved(id) {
			t.Fatalf("object %d retrieval lost", id)
		}
	}
	_ = total
}

// TestResyncStaleTuneIn: a client that tunes in holding the previous
// directory version (built against the old layout) converges by
// re-seeding from the new directory before navigating — the catalog
// seed path — and answers every query exactly on the new broadcast.
func TestResyncStaleTuneIn(t *testing.T) {
	x, old, new_ := resyncFixture(t, 500, 53)
	ds := x.DS
	rng := rand.New(rand.NewSource(13))
	side := int(ds.Curve.Side())
	for trial := 0; trial < 20; trial++ {
		stale := openClient(old, 0, nil)
		probe := rng.Int63n(int64(new_.ProbeCycle()))
		stale.Tune(probe, nil)
		if err := stale.Resync(new_); err != nil {
			t.Fatal(err)
		}
		w := randWindow(rng, side)
		got, _ := stale.Window(w)
		if want := ds.WindowBrute(w); !equalInts(got, want) {
			t.Fatalf("trial %d: stale tune-in window got %v want %v", trial, got, want)
		}
	}
}

// TestResyncValidation covers the protocol's error paths, and that
// Tune discards a pending bump.
func TestResyncValidation(t *testing.T) {
	x, old, new_ := resyncFixture(t, 300, 59)
	c := openClient(old, 0, nil)

	otherDS := dataset.Uniform(300, 7, 60)
	otherX, err := Build(otherDS, Config{})
	if err != nil {
		t.Fatal(err)
	}
	otherLay, err := NewLayout(otherX, MultiConfig{Channels: 4, Scheduler: SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, 10, 20, otherX.NF}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Resync(otherLay); err == nil {
		t.Error("resync onto a different index accepted")
	}

	split, err := NewLayout(x, MultiConfig{Channels: 4, Scheduler: SchedSplit, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Resync(split); err == nil {
		t.Error("resync onto a split layout accepted")
	}
	splitClient := openClient(split, 0, nil)
	if err := splitClient.Resync(new_); err == nil {
		t.Error("resync of a split client accepted")
	}

	wide, err := NewLayout(x, MultiConfig{Channels: 5, Scheduler: SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, 10, 20, 30, x.NF}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Resync(wide); err == nil {
		t.Error("resync across channel counts accepted")
	}
	if err := c.ScheduleResync(wide, 0); err == nil {
		t.Error("ScheduleResync did not validate eagerly")
	}

	// Self-resync is a no-op; Tune discards a pending bump.
	if err := c.Resync(old); err != nil {
		t.Errorf("self-resync: %v", err)
	}
	if err := c.ScheduleResync(new_, 0); err != nil {
		t.Fatal(err)
	}
	c.Tune(0, nil)
	w := randWindow(rand.New(rand.NewSource(1)), int(x.DS.Curve.Side()))
	c.Window(w)
	if c.Layout() != old {
		t.Error("Reset did not discard the pending resync")
	}
}
