package broadcast_test

import (
	"math/bits"
	"testing"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
	"dsi/internal/dsi"
)

// lostSink keeps the benchmarked reads from being optimized away.
var lostSink int

// BenchmarkTunerRead is the per-packet cost of a lossy read (ns/op is
// ns per packet): Tuner.Read under Gilbert-Elliott loss at theta 0.3
// with bursts of 8, the loss process of the benchmark's wire_lossy
// workload, on the one-channel air of an index and on a four-channel
// shard air of the same index (the index channel and three data
// shards), which the reader walks a channel per 1 024 packets. The
// mask16 cases read the same packets sixteen at a time through
// ReadMask, the batch a byte-level receiver draws one object's losses
// with.
func BenchmarkTunerRead(b *testing.B) {
	x, err := dsi.Build(dataset.Uniform(5000, 8, 1), dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		b.Fatal(err)
	}
	shard, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 6, x.NF / 2, x.NF},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		air   *broadcast.Air
		batch int
	}{
		{"single", x.SingleLayout().Air, 1},
		{"shard4", shard.Air, 1},
		{"single/mask16", x.SingleLayout().Air, 16},
		{"shard4/mask16", shard.Air, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tu := broadcast.NewTuner(bc.air, 0, 0, broadcast.GilbertForTheta(0.3, 8, 1))
			chans := bc.air.NumChannels()
			lost := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += bc.batch {
				if (i+bc.batch)>>10 != i>>10 { // a batch ends a 1 024-packet stretch
					tu.Switch((tu.Channel() + 1) % chans)
				}
				if bc.batch == 1 {
					if _, ok := tu.Read(); !ok {
						lost++
					}
					continue
				}
				lost += bc.batch - bits.OnesCount64(tu.ReadMask(bc.batch))
			}
			lostSink = lost
		})
	}
}
