// The metric vocabulary: every name the benchmark reports, with its
// unit, direction and — for end-to-end metrics — the bound by which it
// may worsen before a change counts as a regression. BENCHMARK.json is
// generated from these tables (`manifest`), and later issues name their
// claims and their "must not move" rows with the names fixed here.

package main

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// get worse; 0 on per-layer metrics, which have none.
	Bound float64
	// Abs, when set, makes Bound an absolute difference instead of a
	// share (ratios that sit at 0 or 1). Only `compare` uses it.
	Abs bool
}

// universalDefs are the end-to-end metrics every workload reports: the
// ones BENCHMARK.json registers as end_to_end. Their bounds were set
// from the spread measured over ten seeds (see README.md): the contract
// fixes one bound per metric for all workloads, so the noisiest workload
// sets it.
var universalDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "access_latency_bytes_mean", Unit: "B", Better: "lower", Bound: 0.12},
	{Name: "tuning_bytes_mean", Unit: "B", Better: "lower", Bound: 0.12},
}

// workloadDefs are end-to-end metrics that exist on some workloads only
// (slots_per_s on the two net workloads, the five after it on net_live),
// that sit at zero on a healthy run, or that scatter too widely. The
// driver contract wants every end_to_end metric printed, non-zero, by
// every workload, so these are registered under per_layer in
// BENCHMARK.json; `run`, `repeat` and `compare` still treat them as
// end-to-end, with these bounds.
var workloadDefs = []metricDef{
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0, Abs: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "slots_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "slot_hold_ratio", Unit: "ratio", Better: "higher", Bound: 0.005, Abs: true},
	{Name: "lost_slot_ratio", Unit: "ratio", Better: "lower", Bound: 0.001, Abs: true},
	{Name: "station_cpu_us_per_kslot", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "wall_over_air_p50", Unit: "ratio", Better: "lower", Bound: 0.01},
	{Name: "wall_over_air_p95", Unit: "ratio", Better: "lower", Bound: 0.03},
}

// endToEndDef finds the definition of an end-to-end metric.
func endToEndDef(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{universalDefs, workloadDefs} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// layerDefs are the per-layer metrics proper: <module>.<metric>.
// "span" metrics come from the seam decorators of the traced section and
// exist on the workloads whose seams they name; "kernel" metrics are
// direct timed calls at fixed sizes and read the same on every workload.
var layerDefs = []metricDef{
	// hilbert
	{Name: "hilbert.ranges_disk_us", Unit: "us", Better: "lower"},
	{Name: "hilbert.ranges_disk_len", Unit: "count", Better: "lower"},
	{Name: "hilbert.ranges_rect_us", Unit: "us", Better: "lower"},
	{Name: "hilbert.encode_ns", Unit: "ns", Better: "lower"},
	// dsi
	{Name: "dsi.knn_self_us", Unit: "us", Better: "lower"},
	{Name: "dsi.window_self_us", Unit: "us", Better: "lower"},
	{Name: "dsi.knn_allocs", Unit: "count", Better: "lower"},
	{Name: "dsi.window_allocs", Unit: "count", Better: "lower"},
	{Name: "dsi.rx_ops_per_query", Unit: "count", Better: "lower"},
	{Name: "dsi.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dsi.layout_ms", Unit: "ms", Better: "lower"},
	{Name: "dsi.session_open_us", Unit: "us", Better: "lower"},
	// massive
	{Name: "massive.classic_qps", Unit: "1/s", Better: "higher"},
	{Name: "massive.split_qps", Unit: "1/s", Better: "higher"},
	{Name: "massive.shard_qps", Unit: "1/s", Better: "higher"},
	{Name: "massive.fec_qps", Unit: "1/s", Better: "higher"},
	{Name: "massive.reference_ratio", Unit: "ratio", Better: "higher"},
	{Name: "massive.state_bytes_per_client", Unit: "B", Better: "lower"},
	// wire
	{Name: "wire.table_mc_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.table_mc_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.header_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.parity_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.dirv_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.rs_parity_k4r1_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.rs_parity_k16r8_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.rs_recover_k4r1_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.rs_recover_k16r8_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.netframe_append_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.netframe_decode_ns", Unit: "ns", Better: "lower"},
	// station
	{Name: "station.packet_at_ns", Unit: "ns", Better: "lower"},
	{Name: "station.packet_at_fec_ns", Unit: "ns", Better: "lower"},
	{Name: "station.packet_at_allocs", Unit: "count", Better: "lower"},
	{Name: "station.rebroadcast_packet_at_ns", Unit: "ns", Better: "lower"},
	{Name: "station.rx_self_us_per_query", Unit: "us", Better: "lower"},
	{Name: "station.packet_at_per_query", Unit: "count", Better: "lower"},
	{Name: "station.fec_recovered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "station.tx_build_ms", Unit: "ms", Better: "lower"},
	{Name: "station.tx_fec_build_ms", Unit: "ms", Better: "lower"},
	// netsrv
	{Name: "netsrv.drain1_slots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netsrv.drain2_slots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netsrv.dropped_batches", Unit: "count", Better: "lower"},
	{Name: "netsrv.udp_delivered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "netsrv.meta_ms", Unit: "ms", Better: "lower"},
	// netrecv
	{Name: "netrecv.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "netrecv.subscribe_ms", Unit: "ms", Better: "lower"},
	{Name: "netrecv.consume_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "netrecv.packet_at_ns", Unit: "ns", Better: "lower"},
	{Name: "netrecv.rx_span_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "netrecv.http_lost_slots", Unit: "count", Better: "lower"},
	{Name: "netrecv.udp_lost_slots", Unit: "count", Better: "lower"},
	{Name: "netrecv.reconnects", Unit: "count", Better: "lower"},
	// diskstore
	{Name: "diskstore.write_image_ms", Unit: "ms", Better: "lower"},
	{Name: "diskstore.open_image_us", Unit: "us", Better: "lower"},
	{Name: "diskstore.packet_at_ns", Unit: "ns", Better: "lower"},
	{Name: "diskstore.sort_mrec_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diskstore.spilled_runs", Unit: "count", Better: "lower"},
	{Name: "diskstore.build_image_s", Unit: "s", Better: "lower"},
	// sched, dataset, obs
	{Name: "sched.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.uniform_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.instrument_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	// the benchmark's own tracing
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.span_coverage_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.span_clock_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.sampled_queries", Unit: "count", Better: "higher"},
}

// perLayerDefs is everything BENCHMARK.json registers under per_layer:
// the workload-specific end-to-end metrics, then the layers'.
var perLayerDefs = append(append([]metricDef(nil), workloadDefs...), layerDefs...)
