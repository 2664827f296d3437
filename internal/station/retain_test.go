package station

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// TestGenerationRetainsNoTables: a transmitter keeps no per-position
// bytes. Built, and after serving a whole cycle of every channel, it
// retains under 2 KiB plus a clock (and, coded, a parity
// scratch) a channel, whatever the frame count — uncoded, and coded
// beside a geometry held elsewhere. The stored tables it replaced were
// the encoded table plus a slice header a position, about 1.5 MB here.
func TestGenerationRetainsNoTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-frame index")
	}
	ds := dataset.Uniform(20000, 9, 5)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range []dsi.MultiConfig{
		{Channels: 1},
		{Channels: 4, Scheduler: dsi.SchedSplit},
		{Channels: 4, Scheduler: dsi.SchedShard, ShardBounds: quarterBounds(x.NF)},
	} {
		lay, err := dsi.NewLayout(x, mc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []wire.FECConfig{{}, wireLossyCode} {
			name := fmt.Sprintf("%v x%d code %+v", mc.Scheduler, mc.Channels, cfg)
			// The coded geometry is shared with the layout's receivers;
			// hold it outside the measured build, as a receiver does.
			geo, err := sharedFECGeom(lay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tx *MultiTransmitter
			live := ownHeap(func() {
				if tx, err = NewMultiTransmitterFEC(lay, cfg); err != nil {
					t.Fatal(err)
				}
				run := make([]Packet, 256)
				buf := make([]byte, 0, len(run)*(x.Cfg.Capacity+wire.ParityHeaderSize))
				for ch := 0; ch < lay.Channels(); ch++ {
					for s := 0; s < tx.ChanSlots(ch); s += len(run) {
						tx.ReadRunAt(run, buf, ch, int64(s))
					}
				}
			}).live
			runtime.KeepAlive(tx)
			runtime.KeepAlive(geo)
			budget := int64(2048 + lay.Channels()*int(unsafe.Sizeof(clock{})))
			if cfg.Enabled() {
				// Each channel's tail scratch, as TestCodedTransmitterRetainsNoParity sizes it.
				stride := wire.ParityHeaderSize + x.Cfg.Capacity
				widest, header := max(x.TablePackets, x.ObjPackets), int(unsafe.Sizeof([]byte(nil)))
				budget += int64(lay.Channels() * (int(unsafe.Sizeof(tailScratch{})) +
					widest*(x.Cfg.Capacity+header) +
					max(cfg.Table.Tail(), cfg.Object.Tail())*stride + max(cfg.Table.Parity, cfg.Object.Parity)*header))
			}
			if live > budget {
				t.Errorf("%s: a transmitter over %d frames retains %d B after a cycle, budget %d B", name, x.NF, live, budget)
			}
		}
	}
}
