package dsi

import (
	"reflect"
	"runtime"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
)

// oracleTables is the table store Build used to keep: every position's
// table computed once, the entries sharing one backing array. It is the
// reference AppendTable is held to.
func oracleTables(x *Index) []Table {
	tables := make([]Table, x.NF)
	entries := make([]TableEntry, x.NF*x.E)
	for pos := range tables {
		tables[pos] = oracleMakeTable(x, pos, entries[pos*x.E:(pos+1)*x.E:(pos+1)*x.E])
	}
	return tables
}

// oracleMakeTable is the stored tables' rule: the frame's own smallest
// HC value and E entries at distances 1, Base, Base², ... ahead.
func oracleMakeTable(x *Index, pos int, dst []TableEntry) Table {
	t := Table{Pos: pos, OwnHC: x.minHC[x.PosToFrame(pos)], Entries: dst[:0]}
	dist := 1
	for i := 0; i < x.E; i++ {
		tp := (pos + dist) % x.NF
		t.Entries = append(t.Entries, TableEntry{TargetPos: tp, MinHC: x.minHC[x.PosToFrame(tp)]})
		dist *= x.Base
	}
	return t
}

// TestTablesMatchOracle: the table AppendTable computes at every
// position equals the one Build used to store, under every sizing, one
// to three segments and either pointer reservation — whether it starts
// from no buffer or from the previous table's entries.
func TestTablesMatchOracle(t *testing.T) {
	ds := dataset.Uniform(700, 7, 13)
	for _, sizing := range []Sizing{SizingAuto, SizingUnitFactor, SizingPaperTable} {
		for m := 1; m <= 3; m++ {
			for _, reserve := range []bool{false, true} {
				cfg := Config{Capacity: 64, Sizing: sizing, Segments: m, ReserveMCPtr: reserve, ObjectBytes: 256}
				x, err := Build(ds, cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				want := oracleTables(x)
				var ents []TableEntry
				for pos := 0; pos < x.NF; pos++ {
					fresh := x.AppendTable(pos, nil)
					reused := x.AppendTable(pos, ents)
					ents = reused.Entries
					if !reflect.DeepEqual(fresh, want[pos]) || !reflect.DeepEqual(reused, want[pos]) {
						t.Fatalf("%+v pos %d: AppendTable = %+v / %+v, oracle %+v", cfg, pos, fresh, reused, want[pos])
					}
				}
			}
		}
	}
}

// TestIndexRetainsNoTables: what Build keeps alive is the per-frame
// minHC and cell coordinates, the single-channel layout and a fixed
// slack — no table, decoded or otherwise. The stored tables it replaced
// cost E·16 B of entries plus a 40-byte header a frame.
func TestIndexRetainsNoTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort heap accounting")
	}
	ds := dataset.Uniform(20000, 9, 5)
	for _, cfg := range []Config{{Capacity: 64}, {Capacity: 64, Segments: 2, Sizing: SizingUnitFactor}} {
		var x *Index
		built := ownHeap(func() {
			var err error
			if x, err = Build(ds, cfg); err != nil {
				t.Fatal(err)
			}
		})
		var lay *Layout
		single := ownHeap(func() { lay = mustLayout(t, x, MultiConfig{Channels: 1}) })
		const slack = 16 << 10
		perFrame := int64(8 + 4 + 4) // minHC, cellX, cellY
		if budget := perFrame*int64(x.NF) + single.live + slack; built.live > budget {
			t.Errorf("%+v: Build retains %d B over %d frames, budget %d B (%d B a frame, a %d B layout, %d B slack)",
				cfg, built.live, x.NF, budget, perFrame, single.live, slack)
		}
		runtime.KeepAlive(x)
		runtime.KeepAlive(lay)
	}
}

// TestSimReceiverFailedTableKeepsLast: the simulator receiver computes
// each table into its own, and a read that loses a packet leaves the
// last intact table as it was — the session's lastTable points at it,
// and the aggressive kNN hop rule reads it after a failed read.
func TestSimReceiverFailedTableKeepsLast(t *testing.T) {
	x := buildT(t, 400, 7, 3, Config{Capacity: 64, Segments: 2})
	rx := NewSimReceiver(x.SingleLayout(), 0, broadcast.NewLossModel(0.5, 7))
	var last *Table
	var kept Table
	failed := 0
	for i := 0; i < 4*x.NF; i++ {
		pos := (i * 37) % x.NF
		rx.DozeUntilPos(pos)
		tab, ok := rx.Table(pos)
		if ok {
			if want := x.AppendTable(pos, nil); !reflect.DeepEqual(*tab, want) {
				t.Fatalf("pos %d: table %+v, want %+v", pos, *tab, want)
			}
			last, kept = tab, Table{Pos: tab.Pos, OwnHC: tab.OwnHC, Entries: append([]TableEntry(nil), tab.Entries...)}
			continue
		}
		if tab != nil {
			t.Fatalf("pos %d: a failed read returned a table", pos)
		}
		if last != nil {
			failed++
			if !reflect.DeepEqual(*last, kept) {
				t.Fatalf("pos %d: a failed read changed the last table to %+v, was %+v", pos, *last, kept)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no read failed after an intact one; the loss path went unexercised")
	}
}
