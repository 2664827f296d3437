package dsi

import (
	"reflect"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
)

// TestReserveMCPtrWidensTables: reserving the multi-channel pointer
// width grows the table budget by exactly one channel-id byte per
// entry.
func TestReserveMCPtrWidensTables(t *testing.T) {
	ds := dataset.Uniform(256, 7, 31)
	x, err := Build(ds, Config{Capacity: 32, Sizing: SizingUnitFactor})
	if err != nil {
		t.Fatal(err)
	}
	xr, err := Build(ds, Config{Capacity: 32, Sizing: SizingUnitFactor, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	if xr.E != x.E {
		t.Fatalf("reservation changed the entry count: %d vs %d", xr.E, x.E)
	}
	if want := x.TableBytes() + x.E; xr.TableBytes() != want {
		t.Fatalf("reserved table is %dB, want %d", xr.TableBytes(), want)
	}
	if xr.TablePackets <= x.TablePackets {
		t.Fatalf("tight 32B config did not gain a table packet: %d vs %d", xr.TablePackets, x.TablePackets)
	}
}

// TestReserveMCPtrDefaultBitIdentical: with the option off nothing
// changes, and on a configuration whose tables have headroom anyway,
// turning it on leaves the whole N=1 broadcast bit-identical (same
// geometry, same program, same tables) — the reservation only matters
// when it must.
func TestReserveMCPtrDefaultBitIdentical(t *testing.T) {
	ds := dataset.Uniform(300, 7, 33)
	plain, err := Build(ds, Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	reserved, err := Build(ds, Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NF != reserved.NF || plain.NO != reserved.NO || plain.E != reserved.E ||
		plain.Base != reserved.Base || plain.TablePackets != reserved.TablePackets ||
		plain.FramePackets != reserved.FramePackets {
		t.Fatalf("geometry changed: %v vs %v", plain, reserved)
	}
	a, b := plain.single, reserved.single
	if a.ChanLen(0) != b.ChanLen(0) {
		t.Fatalf("cycle changed: %d vs %d slots", a.ChanLen(0), b.ChanLen(0))
	}
	for slot := 0; slot < a.ChanLen(0); slot++ {
		ap, apart, aok := a.SlotTable(0, slot)
		bp, bpart, bok := b.SlotTable(0, slot)
		dp, doff, dok := a.SlotData(0, slot)
		ep, eoff, eok := b.SlotData(0, slot)
		if a.Air.Channels[0].At(slot) != b.Air.Channels[0].At(slot) ||
			ap != bp || apart != bpart || aok != bok || dp != ep || doff != eoff || dok != eok {
			t.Fatalf("slot %d placed differently", slot)
		}
	}
	for pos := 0; pos < plain.NF; pos++ {
		a, b := plain.TableAt(pos), reserved.TableAt(pos)
		if a.OwnHC != b.OwnHC || !reflect.DeepEqual(a.Entries, b.Entries) {
			t.Fatalf("table %d changed", pos)
		}
	}
	// And the two engines answer identically.
	w := hilbertWindow(40, 40)
	ids1, st1 := openClient(plain.single, 7, nil).Window(w)
	ids2, st2 := openClient(reserved.single, 7, nil).Window(w)
	if !equalInts(ids1, ids2) || st1 != st2 {
		t.Fatalf("query results differ: (%v,%+v) vs (%v,%+v)", ids1, st1, ids2, st2)
	}
}

// TestReserveMCPtrAutoSizing: under SizingAuto the reservation enters
// the entries-per-packet computation, so one-packet tables stay
// one-packet with the wider entries (fewer entries if necessary).
func TestReserveMCPtrAutoSizing(t *testing.T) {
	ds := dataset.Uniform(500, 7, 35)
	x, err := Build(ds, Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	if x.TableBytes() > x.TablePackets*64 {
		t.Fatalf("auto-sized table %dB exceeds its %d packets", x.TableBytes(), x.TablePackets)
	}
	if got := (64 - broadcast.HCBytes) / (broadcast.HCBytes + broadcast.MCPtrBytes); x.E > got {
		t.Fatalf("E=%d entries cannot fit one packet at the reserved width (max %d)", x.E, got)
	}
}
