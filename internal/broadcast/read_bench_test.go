package broadcast_test

import (
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
// shards), which the reader walks a channel per 1 024 packets.
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
		name string
		air  *broadcast.Air
	}{{"single", x.SingleLayout().Air}, {"shard4", shard.Air}} {
		b.Run(bc.name, func(b *testing.B) {
			tu := broadcast.NewTuner(bc.air, 0, 0, broadcast.GilbertForTheta(0.3, 8, 1))
			chans := bc.air.NumChannels()
			lost := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&1023 == 1023 {
					tu.Switch((tu.Channel() + 1) % chans)
				}
				if _, ok := tu.Read(); !ok {
					lost++
				}
			}
			lostSink = lost
		})
	}
}
