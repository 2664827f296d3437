// A flat-out station: 256-slot flushes, what a stalled subscriber can
// hold of them, and what building one costs on the source net_flood
// serves.

package netsrv

import (
	"context"
	"path/filepath"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/diskstore"
	"dsi/internal/dsi"
	"dsi/internal/sched"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// TestFlatOutStallHoldsAtMost2048Slots: a flat-out Block-mode station
// sends flatOutSlots-wide flushes, and a subscriber that never reads
// stalls it with at most 2 048 slots built: its full queue and the flush
// the pacer cannot hand over. 256-slot flushes into a 32-deep queue
// would hold 8 192.
func TestFlatOutStallHoldsAtMost2048Slots(t *testing.T) {
	full := make(chan struct{})
	var srv *Server
	var c *streamConn
	var err error
	srv, err = New(Config{
		Source: newStampSource(4, 64, true), CtrlEvery: 64, Block: true,
		// The pacer is about to build a flush with the queue full: that
		// flush is the last one it builds.
		Tick: func(int64) {
			if len(c.q) == cap(c.q) && full != nil {
				close(full)
				full = nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.batch != flatOutSlots || srv.depth*flatOutSlots != maxQueuedSlots {
		t.Fatalf("flat out: %d-slot flushes into %d-deep queues, want %d-slot ones into %d",
			srv.batch, srv.depth, flatOutSlots, maxQueuedSlots/flatOutSlots)
	}
	wait := full
	c, unsub := srv.subscribe(nil)
	defer unsub()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Run(ctx)
	}()
	<-wait
	cancel()
	<-done

	if built := srv.Now(); built > maxQueuedSlots {
		t.Fatalf("a stalled subscriber let the station build %d slots, want at most %d", built, maxQueuedSlots)
	}
	queued := 0
	for len(c.q) > 0 {
		fl := <-c.q
		if fl.slots != 0 && fl.slots != flatOutSlots { // 0: the control snapshot
			t.Errorf("a queued flush of %d slots, want %d", fl.slots, flatOutSlots)
		}
		queued += fl.slots
		srv.release(fl)
	}
	// The queue's first flush is the control snapshot, of no slots.
	if want := maxQueuedSlots - flatOutSlots; queued != want {
		t.Fatalf("the stalled queue holds %d slots, want %d", queued, want)
	}
}

// TestPacedFlushShapeUnchanged: a paced station keeps its rate/200-slot
// flush and its 32-deep queues.
func TestPacedFlushShapeUnchanged(t *testing.T) {
	for _, tc := range []struct{ rate, batch int }{{1, 1}, {20000, 100}, {8000, 40}, {10_000_000, 4096}} {
		if batch, depth := flushShape(tc.rate); batch != tc.batch || depth != streamQueueDepth {
			t.Errorf("%d slots/s: %d-slot flushes into %d-deep queues, want %d into %d", tc.rate, batch, depth, tc.batch, streamQueueDepth)
		}
	}
}

// BenchmarkBuildFlush is the station's side of a flat-out stream: one
// flush built from a wire-cycle image of the net_flood shape (2 000
// uniform objects, a balanced four-channel shard layout, 64-byte
// packets, control frames every 256 slots) and released; ns/slot is the
// cost of one slot of every channel.
func BenchmarkBuildFlush(b *testing.B) {
	img := floodImage(b)
	defer img.Close()
	srv, err := New(Config{Source: img, Meta: img.Meta(), CtrlEvery: 256})
	if err != nil {
		b.Fatal(err)
	}
	srv.release(srv.buildFlush(srv.batch)) // the one recycled flush reaches its size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.release(srv.buildFlush(srv.batch))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*srv.batch), "ns/slot")
}

// floodImage writes and maps the image net_flood's station serves.
func floodImage(tb testing.TB) *diskstore.ImageSource {
	tb.Helper()
	const n, order, seed, channels, switchSlots = 2000, 8, 1, 4, 2
	ds := dataset.Uniform(n, order, seed)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, Segments: 1, ReserveMCPtr: true})
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := sched.Uniform(x, channels-1)
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := plan.Layout(switchSlots)
	if err != nil {
		tb.Fatal(err)
	}
	mt, err := station.NewMultiTransmitter(lay)
	if err != nil {
		tb.Fatal(err)
	}
	meta := wire.StationMeta{
		Dataset:  wire.StationDataset{Kind: "uniform", N: n, Order: order, Seed: seed, Sum: ds.Checksum()},
		Capacity: 64, Segments: 1, ReserveMCPtr: true,
		Channels: lay.Channels(), Scheduler: "shard", SwitchSlots: switchSlots,
		ShardBounds: lay.ShardBounds(),
	}
	info, ok := diskstore.InfoFor(mt, meta)
	if !ok {
		tb.Fatalf("the image layer cannot size a %T", mt)
	}
	path := filepath.Join(tb.TempDir(), "flood.img")
	if err := diskstore.WriteImageFile(path, mt, info); err != nil {
		tb.Fatal(err)
	}
	img, err := diskstore.OpenImage(path)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}
