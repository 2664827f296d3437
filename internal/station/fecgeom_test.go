package station

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"dsi/internal/dsi"
)

// heapRetained is the live heap a value built by build holds once the
// collector has run.
func heapRetained(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and pooled garbage, which survives one collection
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestCodedGeometrySharedByEveryHolder: a coded transmitter and the
// receivers over its layout and code hold one geometry, and a receiver
// costs what it keeps beside it, a few hundred bytes of per-channel
// decode state, not a copy of the slot maps.
func TestCodedGeometrySharedByEveryHolder(t *testing.T) {
	_, _, lay := wireTestBed(t, 300, 557, quarterBounds)
	tx, err := NewMultiTransmitterFEC(lay, wireLossyCode)
	if err != nil {
		t.Fatal(err)
	}
	geo := tx.air.Load().cur.fec
	for i := 0; i < 3; i++ {
		var rx *WireReceiver
		kept := heapRetained(func() any {
			rx, err = NewFECReceiver(lay, 1, tx, wireLossyCode, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			return rx
		})
		if rx.geo != geo {
			t.Fatalf("receiver %d holds a geometry of its own", i)
		}
		t.Logf("receiver %d retains %d B", i, kept)
		if kept >= 4<<10 {
			own := heapRetained(func() any { g, _ := newFECGeom(lay, wireLossyCode); return g })
			t.Errorf("receiver %d retains %d B, want under 4 KiB; a geometry is %d B", i, kept, own)
		}
	}
	if c := tx.CodedGeometry(); &c[0].LogOf[0] != &geo.chs[0].logOf[0] {
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
