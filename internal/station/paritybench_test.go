package station

import (
	"runtime"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// codedBed is one coded broadcast the parity tests and benchmarks run
// on: a layout under a code.
type codedBed struct {
	name string
	lay  *dsi.Layout
	cfg  wire.FECConfig
}

// massiveCodedBed is the massive testbed's coded arm: 10 000 objects at
// Hilbert order 8, 64-byte packets, 1 KiB objects, one channel, one XOR
// row per group of up to four members.
func massiveCodedBed(tb testing.TB) codedBed {
	tb.Helper()
	x, err := dsi.Build(dataset.Uniform(10000, 8, 1), dsi.Config{Capacity: 64, ObjectBytes: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	groups := func(k int) int { return (k + 3) / 4 }
	return codedBed{"massive", x.SingleLayout(), wire.FECConfig{
		Table:  wire.FECCode{Groups: groups(x.TablePackets), Parity: 1},
		Object: wire.FECCode{Groups: groups(x.ObjPackets), Parity: 1},
	}}
}

// wireLossyBed is the wire_lossy workload's shape: 5 000 objects at
// order 8, 64-byte packets, 1 KiB objects, multi-channel pointers, a
// four-channel shard layout under wireLossyCode (objects RS 4×2, tables
// 1×2).
func wireLossyBed(tb testing.TB) codedBed {
	tb.Helper()
	x, err := dsi.Build(dataset.Uniform(5000, 8, 1), dsi.Config{Capacity: 64, ObjectBytes: 1024, ReserveMCPtr: true})
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: skewedBounds(x.NF),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return codedBed{"wire_lossy", lay, wireLossyCode}
}

// BenchmarkCodedTransmitterBuild is what putting a coded broadcast on
// air costs (ns/op, B/op): NewMultiTransmitterFEC over a layout nobody
// holds a geometry of, so every build derives the geometry as well.
func BenchmarkCodedTransmitterBuild(b *testing.B) {
	for _, bed := range []codedBed{massiveCodedBed(b), wireLossyBed(b)} {
		b.Run(bed.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC() // the last build's geometry leaves the cache
				b.StartTimer()
				if _, err := NewMultiTransmitterFEC(bed.lay, bed.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParityRead is what reading a parity tail costs (ns/unit):
// every iteration reads every parity tail of one cycle of every
// channel — those of table units only, then all of them — each unit's
// as one run into a stride-sized buffer, so each run encodes its tail.
// It allocates nothing.
func BenchmarkParityRead(b *testing.B) {
	for _, bed := range []codedBed{massiveCodedBed(b), wireLossyBed(b)} {
		tx, err := NewMultiTransmitterFEC(bed.lay, bed.cfg)
		if err != nil {
			b.Fatal(err)
		}
		g := tx.air.Load().cur
		for _, tables := range []bool{true, false} {
			var tails []span
			for ch := range g.fec.chs {
				for ui := range g.fec.chs[ch].units() {
					u := g.fec.chs[ch].unit(ui)
					if tail := g.fec.code(u.table).Tail(); tail > 0 && (u.table || !tables) {
						tails = append(tails, span{ch, int64(u.physStart + u.n), tail})
					}
				}
			}
			name := bed.name + "/all"
			if tables {
				name = bed.name + "/table"
			}
			b.Run(name, func(b *testing.B) {
				dst := make([]Packet, 64)
				buf := make([]byte, 0, len(dst)*(bed.lay.X.Cfg.Capacity+wire.ParityHeaderSize))
				b.ReportAllocs()
				for b.Loop() {
					for _, s := range tails {
						tx.ReadRunAt(dst[:s.n], buf, s.ch, s.abs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tails)), "ns/unit")
			})
		}
	}
}
