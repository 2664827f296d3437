package station

import (
	"reflect"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

// cacheBed builds a coded single-channel broadcast and seed-searches a
// loss draw under which the first read of table pos costs a recovery,
// returning the primed receiver, the table position and slot, and the
// recovered content.
func cacheBed(t testing.TB) (rx *WireReceiver, pos, ts int, want []dsi.TableEntry) {
	t.Helper()
	ds := dataset.Uniform(220, 7, 521)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rsCode()
	tx, err := NewMultiTransmitterFEC(x.SingleLayout(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lay := x.SingleLayout()
	for seed := int64(1); seed < 400; seed++ {
		m := broadcast.GilbertForTheta(0.25, 2, seed)
		m.AffectsData = true
		r, err := NewFECReceiver(lay, 1, tx, cfg, 0, m)
		if err != nil {
			t.Fatal(err)
		}
		for pos = 0; pos < 8 && pos < x.NF; pos++ {
			_, ts = lay.TablePlace(pos)
			r.DozeUntilPos(ts)
			tab, ok := r.Table(pos)
			if ok && r.Recovered() > 0 {
				return r, pos, ts, append([]dsi.TableEntry(nil), tab.Entries...)
			}
		}
	}
	t.Fatal("no seed exercised a table recovery")
	return nil, 0, 0, nil
}

// TestFECTableCacheWarmReread pins the recovered-unit cache's promise:
// after a table read that cost a recovery, re-reading the same table a
// cycle later — across a Reset, on an error-free channel — serves from
// the cache with ZERO extra air slots: the clock, latency, and tuning
// stats do not move, and the content is the recovery's.
func TestFECTableCacheWarmReread(t *testing.T) {
	rx, pos, ts, want := cacheBed(t)

	// New query: re-tune error-free at the current slot. The window is
	// dropped; the cache survives.
	rx.Reset(rx.Now(), nil)
	rx.DozeUntilPos(ts)
	now0 := rx.Now()
	st0 := rx.Stats()
	tab, ok := rx.Table(pos)
	if !ok {
		t.Fatal("warm table re-read failed")
	}
	st1 := rx.Stats()
	if rx.Now() != now0 || st1.TuningPackets != st0.TuningPackets || st1.LatencyPackets != st0.LatencyPackets {
		t.Fatalf("warm re-read cost air slots: clock %d -> %d, tuning %d -> %d, latency %d -> %d",
			now0, rx.Now(), st0.TuningPackets, st1.TuningPackets, st0.LatencyPackets, st1.LatencyPackets)
	}
	if rx.CacheHits() != 1 {
		t.Fatalf("CacheHits = %d, want 1", rx.CacheHits())
	}
	if tab.Pos != pos || !reflect.DeepEqual(tab.Entries, want) {
		t.Fatalf("cached table differs from the recovered one")
	}
}

// TestFECTableCacheDroppedOnFollow checks the cache dies with the
// schedule generation: after Follow the same congruent read must hit
// the air again, not the stale cache.
func TestFECTableCacheDroppedOnFollow(t *testing.T) {
	rx, pos, ts, _ := cacheBed(t)
	rx.Reset(rx.Now(), nil)
	rx.Follow(rx.Layout())
	rx.DozeUntilPos(ts)
	now0 := rx.Now()
	if _, ok := rx.Table(pos); !ok {
		t.Fatal("table read failed on the error-free channel")
	}
	if rx.CacheHits() != 0 {
		t.Fatalf("CacheHits = %d after Follow, want 0", rx.CacheHits())
	}
	if rx.Now() == now0 {
		t.Fatal("read cost no air slots; stale cache served after Follow")
	}
}

// BenchmarkFECTableCacheHit measures the cache's hit path: a warm
// table re-read, start to finish (doze plus decode), with no air
// reception at all.
func BenchmarkFECTableCacheHit(b *testing.B) {
	rx, pos, ts, _ := cacheBed(b)
	rx.Reset(rx.Now(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.DozeUntilPos(ts)
		if _, ok := rx.Table(pos); !ok {
			b.Fatal("cache hit failed")
		}
	}
}
