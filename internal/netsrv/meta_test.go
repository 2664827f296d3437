package netsrv

import (
	"reflect"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// TestMetaDescribesOneGeneration: while a swap is in flight, /v1/meta
// describes one generation whole — version, channel count, shard bounds
// and FEC descriptor — at every slot of the transition window, where the
// index channel already airs the staged directory and the data channels
// still finish their old cycles. The document used to pair the staged
// version (and descriptor) with the committed bounds, a catalog no
// generation had.
func TestMetaDescribesOneGeneration(t *testing.T) {
	x, err := dsi.Build(dataset.Uniform(240, 7, 11), dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	shard := func(bounds ...int) *dsi.Layout {
		lay, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	lays := map[uint32]*dsi.Layout{
		1: shard(0, x.NF/4, x.NF/2, x.NF),
		2: shard(0, x.NF/8, 7*x.NF/8, x.NF),
	}
	tx, err := station.NewMultiTransmitter(lays[1])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Source: tx, Layout: lays[1], Meta: wire.StationMeta{
		Scheduler: "shard", Channels: 4, ShardBounds: lays[1].ShardBounds(), Version: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The swap turns coding on, so the descriptor has a version to check.
	code := wire.FECConfig{Table: wire.FECCode{Groups: 1, Parity: 1}, Object: wire.FECCode{Groups: 4, Parity: 1}}
	swap, err := tx.StageFEC(lays[2], code, 100)
	if err != nil {
		t.Fatal(err)
	}
	last := swap
	for ch := 0; ch < lays[1].Channels(); ch++ {
		s, _ := tx.SeamOf(ch)
		last = max(last, s)
	}
	if last == swap {
		t.Fatal("every channel seams at the global seam: the window is empty, pick other bounds")
	}
	for abs := swap; abs < last; abs++ {
		srv.abs.Store(abs)
		m := srv.meta()
		lay := lays[m.Version]
		if lay == nil {
			t.Fatalf("slot %d: meta announces version %d, which never went on air", abs, m.Version)
		}
		if m.Channels != lay.Channels() || !reflect.DeepEqual(m.ShardBounds, lay.ShardBounds()) {
			t.Fatalf("slot %d: meta v%d carries %d channels bounded %v, version %d's layout has %d bounded %v",
				abs, m.Version, m.Channels, m.ShardBounds, m.Version, lay.Channels(), lay.ShardBounds())
		}
		if m.FECDesc != nil {
			if _, v, err := wire.DecodeFECDesc(m.FECDesc); err != nil || v != m.Version {
				t.Fatalf("slot %d: meta v%d carries FEC descriptor v%d (%v)", abs, m.Version, v, err)
			}
		}
	}
}
