// Aggregation: the percentile regression surface. A million-client
// replay's deliverable is the latency/tuning/switch distributions per
// layout — p50/p95/p99/p999, not just means — plus the engine's own
// throughput (clients/sec) and state budget (bytes/client).

package massive

import "sort"

// Dist summarizes one metric's distribution across the population.
type Dist struct {
	Mean float64
	P50  float64
	P95  float64
	P99  float64
	P999 float64
}

// Report is one arm's aggregate outcome. Latency and Tuning are in
// bytes (packets scaled by the air's packet capacity, matching the
// experiment harness's reporting units); Switches is a count.
type Report struct {
	Name     string
	Clients  int
	Latency  Dist
	Tuning   Dist
	Switches Dist

	Seconds        float64
	ClientsPerSec  float64
	BytesPerClient float64
}

// Percentile returns the p-quantile (0 < p < 1) of sorted vs by the
// nearest-rank method. The experiment harness's distribution metrics
// use it too, so massive percentiles and its DistMetrics percentiles
// are comparable.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	rank := int(p*float64(len(vs))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(vs) {
		rank = len(vs) - 1
	}
	return vs[rank]
}

// distOf summarizes column scaled by unit bytes per packet.
func distOf(col func(i int) float64, n int, scale float64) Dist {
	vs := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		vs[i] = col(i) * scale
		sum += vs[i]
	}
	sort.Float64s(vs)
	return Dist{
		Mean: sum / float64(n),
		P50:  Percentile(vs, 0.50),
		P95:  Percentile(vs, 0.95),
		P99:  Percentile(vs, 0.99),
		P999: Percentile(vs, 0.999),
	}
}

// ReportOf aggregates a result into the arm's report. secs is the
// wall-clock of the replay (0 leaves ClientsPerSec unset).
func (r *Result) ReportOf(arm *Arm, capacity int, secs float64) Report {
	n := len(r.Lat)
	rep := Report{
		Name:           arm.Name,
		Clients:        n,
		BytesPerClient: StateBytesPerClient,
	}
	if n == 0 {
		return rep
	}
	bytesPer := float64(capacity)
	rep.Latency = distOf(func(i int) float64 { return float64(r.Lat[i]) }, n, bytesPer)
	rep.Tuning = distOf(func(i int) float64 { return float64(r.Tun[i]) }, n, bytesPer)
	rep.Switches = distOf(func(i int) float64 { return float64(r.Sw[i]) }, n, 1)
	if secs > 0 {
		rep.Seconds = secs
		rep.ClientsPerSec = float64(n) / secs
	}
	return rep
}
