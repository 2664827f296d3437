package wire

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

// oracleTable is the table dsi.Build used to store at position pos: the
// frame's own smallest HC value and E entries at distances 1, Base,
// Base², ... ahead.
func oracleTable(x *dsi.Index, pos int) dsi.Table {
	t := dsi.Table{Pos: pos, OwnHC: x.MinHC(x.PosToFrame(pos))}
	dist := 1
	for i := 0; i < x.E; i++ {
		tp := (pos + dist) % x.NF
		t.Entries = append(t.Entries, dsi.TableEntry{TargetPos: tp, MinHC: x.MinHC(x.PosToFrame(tp))})
		dist *= x.Base
	}
	return t
}

// oracleTableMC is TableMC over the stored table.
func oracleTableMC(lay *dsi.Layout, pos int) (ownHC uint64, entries []MCEntry, err error) {
	t := oracleTable(lay.X, pos)
	entries = make([]MCEntry, len(t.Entries))
	for i, e := range t.Entries {
		ch, idx := lay.DataFrameIndex(e.TargetPos)
		if ch > 0xff {
			return 0, nil, fmt.Errorf("wire: entry %d channel %d exceeds the 1-byte channel id", i, ch)
		}
		if idx > 0xffff {
			return 0, nil, fmt.Errorf("wire: entry %d frame index %d exceeds the 2-byte pointer", i, idx)
		}
		entries[i] = MCEntry{MinHC: e.MinHC, Ch: uint8(ch), Frame: uint16(idx)}
	}
	return t.OwnHC, entries, nil
}

// oracleLayoutTables is the encoder the transmitter used to store every
// table with: each position's table materialized in the format
// ClassicTables selects, each checked against the packet budget.
func oracleLayoutTables(lay *dsi.Layout) ([][]byte, error) {
	x := lay.X
	out := make([][]byte, x.NF)
	budget := x.TablePackets * x.Cfg.Capacity
	for pos := 0; pos < x.NF; pos++ {
		buf, err := oracleLayoutTable(lay, pos)
		if err != nil {
			return nil, fmt.Errorf("wire: position %d: %w", pos, err)
		}
		if len(buf) > budget {
			return nil, fmt.Errorf("wire: position %d: table %dB exceeds %d packet budget %dB",
				pos, len(buf), x.TablePackets, budget)
		}
		out[pos] = buf
	}
	return out, nil
}

func oracleLayoutTable(lay *dsi.Layout, pos int) ([]byte, error) {
	if ClassicTables(lay) {
		return EncodeTable(oracleTable(lay.X, pos), lay.X.NF)
	}
	own, entries, err := oracleTableMC(lay, pos)
	if err != nil {
		return nil, err
	}
	return EncodeTableMC(own, entries), nil
}

// checkLayoutTables holds the layout's table bytes and its refusal to
// the oracle: CheckLayoutTables refuses exactly the layouts the oracle
// cannot encode, and for an accepted one AppendLayoutTable appends each
// position's stored bytes after whatever dst held, as does
// AppendLayoutTablePart for every run of whole parts and for a spread
// of other byte ranges.
func checkLayoutTables(t testing.TB, name string, lay *dsi.Layout) {
	t.Helper()
	want, oracleErr := oracleLayoutTables(lay)
	err := CheckLayoutTables(lay)
	if (err == nil) != (oracleErr == nil) {
		t.Fatalf("%s: CheckLayoutTables = %v, oracle %v", name, err, oracleErr)
	}
	if err != nil {
		return
	}
	x := lay.X
	size := LayoutTableSize(lay)
	prefix := []byte("prefix")
	for pos := 0; pos < x.NF; pos++ {
		if len(want[pos]) != size {
			t.Fatalf("%s pos %d: oracle table %dB, LayoutTableSize %dB", name, pos, len(want[pos]), size)
		}
		got := AppendLayoutTable(append([]byte(nil), prefix...), lay, pos)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want[pos]) {
			t.Fatalf("%s pos %d: AppendLayoutTable = %x, oracle %x", name, pos, got[len(prefix):], want[pos])
		}
		// Every run of whole parts, and a spread of other byte ranges.
		type span struct{ from, to int }
		var spans []span
		for from := 0; from < size; from += x.Cfg.Capacity {
			for to := from; to < size; to += x.Cfg.Capacity {
				spans = append(spans, span{from, to})
			}
			spans = append(spans, span{from, size})
		}
		for i := 0; i < 8; i++ {
			from := (pos*31 + i*17) % (size + 1)
			spans = append(spans, span{from, from + (pos*7+i*13)%(size+1-from)})
		}
		for _, r := range spans {
			got := AppendLayoutTablePart(prefix[:len(prefix):len(prefix)], lay, pos, r.from, r.to)
			if !bytes.Equal(got[len(prefix):], want[pos][r.from:r.to]) {
				t.Fatalf("%s pos %d: part [%d,%d) = %x, oracle %x", name, pos, r.from, r.to, got[len(prefix):], want[pos][r.from:r.to])
			}
		}
	}
}

// TestLayoutTableBytesMatchOracle: the table bytes computed per read
// equal, byte for byte, the tables the transmitter used to store, on
// the single-channel, stripe, split and shard layouts of every sizing
// and segment count, either pointer reservation.
func TestLayoutTableBytesMatchOracle(t *testing.T) {
	ds := dataset.Uniform(300, 7, 17)
	for _, cfg := range []dsi.Config{
		{},
		{Capacity: 32},
		{Capacity: 32, ReserveMCPtr: true},
		{Capacity: 64, Segments: 2, Sizing: dsi.SizingUnitFactor},
		{Capacity: 64, Segments: 3, Sizing: dsi.SizingUnitFactor, ReserveMCPtr: true},
		{Capacity: 64, Sizing: dsi.SizingPaperTable, ObjectBytes: 256},
		{Capacity: 512, Segments: 2},
	} {
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range []dsi.MultiConfig{
			{Channels: 1},
			{Channels: 3, Scheduler: dsi.SchedStripe, SwitchSlots: 2},
			{Channels: 4, Scheduler: dsi.SchedStripe},
			{Channels: 3, Scheduler: dsi.SchedSplit},
			{Channels: 4, Scheduler: dsi.SchedShard, ShardBounds: []int{0, 7, x.NF / 2, x.NF}},
		} {
			if mc.Scheduler == dsi.SchedShard && (cfg.Segments > 1 || x.NF < 16) {
				continue // shards are HC spans of the unreorganized broadcast, and need frames to cut
			}
			lay, err := dsi.NewLayout(x, mc)
			if err != nil {
				t.Fatal(err)
			}
			checkLayoutTables(t, fmt.Sprintf("%+v %v x%d", cfg, mc.Scheduler, mc.Channels), lay)
		}
	}
}

// TestLayoutTablePointerWidths: past 65 536 frames a pointer can
// outgrow its field — a classic forward distance Base^i, a data
// channel's frame index — and CheckLayoutTables refuses exactly what
// the stored-table encoder refused.
func TestLayoutTablePointerWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 70 000-frame index")
	}
	ds := dataset.Uniform(70000, 9, 3)
	// Base 260 needs a third entry, 260² = 67 600 frames ahead.
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, Sizing: dsi.SizingUnitFactor, IndexBase: 260, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mc   dsi.MultiConfig
		want string
	}{
		{dsi.MultiConfig{Channels: 1}, "distance 67600"},
		{dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedSplit}, "frame index 69999"},
		{dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedShard, ShardBounds: []int{0, x.NF}}, "frame index 69999"},
		{dsi.MultiConfig{Channels: 2, Scheduler: dsi.SchedStripe}, ""},
		{dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit}, ""},
	} {
		lay, err := dsi.NewLayout(x, tc.mc)
		if err != nil {
			t.Fatal(err)
		}
		_, oracleErr := oracleLayoutTables(lay)
		err = CheckLayoutTables(lay)
		if (err == nil) != (tc.want == "") || (err == nil) != (oracleErr == nil) {
			t.Fatalf("%v x%d: CheckLayoutTables = %v, oracle %v, want %q", tc.mc.Scheduler, tc.mc.Channels, err, oracleErr, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v x%d: %v does not name %q", tc.mc.Scheduler, tc.mc.Channels, err, tc.want)
		}
	}
}

// FuzzLayoutTables holds the computed table bytes and the arithmetic
// refusal to the stored-table oracle over datasets, object sizes,
// segment counts and schedulers.
func FuzzLayoutTables(f *testing.F) {
	f.Add(uint16(300), uint8(7), uint16(1024), uint8(1), uint8(0), uint8(1))
	f.Add(uint16(257), uint8(6), uint16(100), uint8(2), uint8(1), uint8(3))
	f.Add(uint16(256), uint8(7), uint16(40), uint8(1), uint8(2), uint8(2))
	f.Add(uint16(97), uint8(5), uint16(512), uint8(3), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, n uint16, order uint8, objBytes uint16, segments, sched, channels uint8) {
		ord := uint(order%6) + 4 // 4..9
		num := int(n)%(1<<(2*ord)) + 1
		if num > 4000 {
			num = num%4000 + 1
		}
		ds := dataset.Uniform(num, ord, int64(n))
		for _, sizing := range []dsi.Sizing{dsi.SizingAuto, dsi.SizingUnitFactor, dsi.SizingPaperTable} {
			for _, reserve := range []bool{false, true} {
				cfg := dsi.Config{Capacity: 32 << (objBytes % 3), Sizing: sizing, Segments: int(segments%3) + 1,
					ObjectBytes: int(objBytes%2048) + 1, ReserveMCPtr: reserve}
				x, err := dsi.Build(ds, cfg)
				if err != nil {
					continue // a configuration the sizing refuses
				}
				mc := dsi.MultiConfig{Channels: int(channels%5) + 1, Scheduler: dsi.Scheduler(sched % 3), SwitchSlots: int(sched / 3 % 4)}
				if mc.Scheduler == dsi.SchedShard {
					for s := 0; s < mc.Channels-1; s++ {
						mc.ShardBounds = append(mc.ShardBounds, s*x.NF/max(mc.Channels-1, 1))
					}
					mc.ShardBounds = append(mc.ShardBounds, x.NF)
				}
				lay, err := dsi.NewLayout(x, mc)
				if err != nil {
					continue // a layout the placement refuses
				}
				checkLayoutTables(t, fmt.Sprintf("n=%d order=%d %+v %+v", num, ord, cfg, mc), lay)
			}
		}
	})
}
