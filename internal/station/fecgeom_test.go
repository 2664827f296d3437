package station

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"dsi/internal/dsi"
)

// TestCodedGeometrySharedByEveryHolder: a coded transmitter and the
// receivers over its layout and code hold one geometry, and a receiver
// costs what it keeps beside it, a few hundred bytes of per-channel
// decode state, not a copy of the physical program. The exported view
// refers to the shared geometry's channels.
func TestCodedGeometrySharedByEveryHolder(t *testing.T) {
	_, _, lay := wireTestBed(t, 300, 557, quarterBounds)
	tx, err := NewMultiTransmitterFEC(lay, wireLossyCode)
	if err != nil {
		t.Fatal(err)
	}
	geo := tx.air.Load().cur.fec
	for i := 0; i < 3; i++ {
		var rx *WireReceiver
		kept := ownHeap(func() {
			if rx, err = NewFECReceiver(lay, 1, tx, wireLossyCode, 0, nil); err != nil {
				t.Fatal(err)
			}
		}).live
		if rx.geo != geo {
			t.Fatalf("receiver %d holds a geometry of its own", i)
		}
		if rx.air != geo.air {
			t.Fatalf("receiver %d tunes a physical program of its own", i)
		}
		t.Logf("receiver %d retains %d B", i, kept)
		if kept >= 4<<10 {
			var g *fecGeom
			own := ownHeap(func() { g, _ = newFECGeom(lay, wireLossyCode) }).live
			runtime.KeepAlive(g)
			t.Errorf("receiver %d retains %d B, want under 4 KiB; a geometry is %d B", i, kept, own)
		}
	}
	if c := tx.CodedGeometry(); c[0].c != &geo.chs[0] {
		t.Error("the transmitter's exported geometry is a copy")
	}
}

// TestCodedGeometryFreedWithItsHolders: the cache keeps nothing alive
// by itself. Once the transmitter and receiver holding a geometry are
// gone, the geometry and the layout it was built for are both
// collected.
func TestCodedGeometryFreedWithItsHolders(t *testing.T) {
	_, x, _ := wireTestBed(t, 300, 557, quarterBounds)
	geo, lay := func() (weak.Pointer[fecGeom], weak.Pointer[dsi.Layout]) {
		lay, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: quarterBounds(x.NF),
		})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := NewMultiTransmitterFEC(lay, wireLossyCode)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewFECReceiver(lay, 1, tx, wireLossyCode, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(rx.geo), weak.Make(lay)
	}()
	runtime.GC()
	if geo.Value() != nil {
		t.Error("a geometry outlives every holder")
	}
	if lay.Value() != nil {
		t.Error("a layout outlives its geometry's holders")
	}
}

// TestConcurrentReceiversBuildOneGeometry: receivers attaching at once
// over a layout nobody holds yet build one geometry between them. Their
// catalog layout is their own, equal to the transmitter's but not the
// same value, as a network client's is.
func TestConcurrentReceiversBuildOneGeometry(t *testing.T) {
	_, x, lay := wireTestBed(t, 300, 557, quarterBounds)
	tx, err := NewMultiTransmitterFEC(lay, wireLossyCode)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: quarterBounds(x.NF),
	})
	if err != nil {
		t.Fatal(err)
	}
	rxs := make([]*WireReceiver, 8)
	var wg sync.WaitGroup
	for i := range rxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rx, err := NewFECReceiver(cat, 1, tx, wireLossyCode, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			rxs[i] = rx
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, rx := range rxs {
		if rx.geo != rxs[0].geo {
			t.Fatalf("receiver %d holds another geometry than receiver 0", i)
		}
	}
	if rxs[0].geo == tx.air.Load().cur.fec {
		t.Fatal("receivers over their own catalog layout share the transmitter's geometry")
	}
}

// TestCodedGeometryRetainsItsProgram: a geometry keeps its physical air
// program, one byte a slot, and a fixed amount per channel — a few
// hundred bytes of frame shape and channel state, and the program's
// rounding up to its allocation size class or page — no table per
// slot, and allocates nothing beyond what it keeps. The beds are the
// massive testbed's coded arm and the wire_lossy shape; a geometry that
// tabulates its slot maps (~15 B a slot) fails both.
func TestCodedGeometryRetainsItsProgram(t *testing.T) {
	const perChannel = 8 << 10
	for _, bed := range []codedBed{massiveCodedBed(t), wireLossyBed(t)} {
		var g *fecGeom
		use := ownHeap(func() {
			var err error
			if g, err = newFECGeom(bed.lay, bed.cfg); err != nil {
				t.Fatal(err)
			}
		})
		program := 0
		for _, c := range g.air.Channels {
			program += len(c.Slots)
		}
		budget := int64(program + perChannel*len(g.chs))
		t.Logf("%s: %d physical slots on %d channels; the geometry allocates %d B and retains %d B, budget %d B",
			bed.name, program, len(g.chs), use.bytes, use.live, budget)
		if use.live > budget || use.bytes > budget {
			t.Errorf("%s: the geometry allocates %d B and retains %d B, want at most its %d-B program and %d B a channel",
				bed.name, use.bytes, use.live, program, perChannel)
		}
	}
}
