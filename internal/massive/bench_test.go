package massive

import "testing"

// BenchmarkReplay measures the event-driven engine per arm: one
// iteration replays the whole population, and the custom metrics carry
// the percentile surface into the benchmark output (clients/s plus
// pNN-prefixed units).
func BenchmarkReplay(b *testing.B) {
	bed, err := NewTestbed(BedConfig{N: 2000, Order: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const clients = 5000
	for _, arm := range bed.Arms {
		b.Run(arm.Name, func(b *testing.B) {
			var rep Report
			for i := 0; i < b.N; i++ {
				res := Run(bed, arm, Config{Clients: clients})
				rep = res.ReportOf(arm, bed.X.Cfg.Capacity, 0)
			}
			b.ReportMetric(float64(clients)*float64(b.N)/b.Elapsed().Seconds(), "clients/s")
			b.ReportMetric(rep.Latency.P95, "p95_lat_B")
			b.ReportMetric(rep.Latency.P99, "p99_lat_B")
			b.ReportMetric(rep.Tuning.P95, "p95_tun_B")
			b.ReportMetric(StateBytesPerClient, "state_B/client")
		})
	}
}

// BenchmarkReplayReference is the step-wise baseline at the same
// population, for the event-driven speedup ratio.
func BenchmarkReplayReference(b *testing.B) {
	bed, err := NewTestbed(BedConfig{N: 2000, Order: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const clients = 5000
	for _, arm := range bed.Arms {
		b.Run(arm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunReference(bed, arm, Config{Clients: clients})
			}
			b.ReportMetric(float64(clients)*float64(b.N)/b.Elapsed().Seconds(), "clients/s")
		})
	}
}

// BenchmarkReplayKNN is one round of the registered replay_knn workload:
// the N = 10 000 testbed, and per arm 150 clients all running 5NN on two
// workers. One iteration replays every arm once.
func BenchmarkReplayKNN(b *testing.B) {
	bed, err := NewTestbed(BedConfig{N: 10000, Order: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Clients: 150, KNNFrac: 1, K: 5, Workers: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, arm := range bed.Arms {
			Run(bed, arm, cfg)
		}
	}
	clients := float64(cfg.Clients * len(bed.Arms) * b.N)
	b.ReportMetric(clients/b.Elapsed().Seconds(), "clients/s")
}
