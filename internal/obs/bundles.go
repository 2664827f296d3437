// Metric bundles: the named counter sets each instrumented layer hooks
// into. Constructors are nil-tolerant (a nil registry yields a nil
// bundle) and idempotent (the registry dedups by name+labels, so many
// receivers or transmitters minted against the same registry share the
// same series). The names below are the stable vocabulary the README
// documents and CI greps for.

package obs

import "strconv"

// ChannelLabel renders the per-channel label of channel ch.
func ChannelLabel(ch int) Label { return Label{Key: "channel", Value: strconv.Itoa(ch)} }

// ReceiverMetrics counts a client radio's reception events; one bundle
// per channel count, shared by every receiver wrapped against the same
// registry.
type ReceiverMetrics struct {
	TuneIns     *Counter // Reset calls: queries tuning in
	DozeCalls   *Counter // DozeUntilPos calls
	DozeSlots   *Counter // slots slept across all dozes
	Switches    *Counter // channel switches (Tune to a different channel)
	ProbeMisses *Counter // probe (Next) reads lost to the channel
	TableReads  *Counter // Table calls
	HeaderReads *Counter // Header calls
	ObjectReads *Counter // Object calls
	Polls       *Counter // Poll calls
	Resyncs     *Counter // Poll calls that surfaced a directory bump
	Losses      []*Counter

	reg *Registry
}

// NewReceiverMetrics registers the receiver counter set with per-channel
// loss counters for channels [0, channels). Nil registry → nil bundle.
func NewReceiverMetrics(reg *Registry, channels int) *ReceiverMetrics {
	if reg == nil {
		return nil
	}
	m := &ReceiverMetrics{
		TuneIns:     reg.Counter("dsi_receiver_tuneins_total", "queries tuned in (receiver resets)"),
		DozeCalls:   reg.Counter("dsi_receiver_doze_calls_total", "doze-to-position calls"),
		DozeSlots:   reg.Counter("dsi_receiver_doze_slots_total", "slots slept across all dozes"),
		Switches:    reg.Counter("dsi_receiver_switches_total", "channel switches"),
		ProbeMisses: reg.Counter("dsi_receiver_probe_misses_total", "probe reads lost to the channel"),
		TableReads:  reg.Counter("dsi_receiver_table_reads_total", "index table reads"),
		HeaderReads: reg.Counter("dsi_receiver_header_reads_total", "object header reads"),
		ObjectReads: reg.Counter("dsi_receiver_object_reads_total", "object body reads"),
		Polls:       reg.Counter("dsi_receiver_polls_total", "directory poll checks"),
		Resyncs:     reg.Counter("dsi_receiver_resyncs_total", "mid-query directory resyncs adopted"),
		reg:         reg,
	}
	m.Losses = make([]*Counter, channels)
	for ch := range m.Losses {
		m.Losses[ch] = reg.Counter("dsi_receiver_losses_total",
			"content reads lost or undecodable, by channel", ChannelLabel(ch))
	}
	return m
}

// loss returns the per-channel loss counter (nil out of range, which
// Counter methods tolerate).
func (m *ReceiverMetrics) loss(ch int) *Counter {
	if ch < 0 || ch >= len(m.Losses) {
		return nil
	}
	return m.Losses[ch]
}

// resyncTo counts a resync against the adopted directory version. This
// is the rare path (one count per seam crossed), so the labeled lookup
// is affordable.
func (m *ReceiverMetrics) resyncTo(ver uint32) {
	m.reg.Counter("dsi_receiver_resyncs_by_version_total",
		"mid-query directory resyncs, by adopted version",
		Label{Key: "to_version", Value: strconv.FormatUint(uint64(ver), 10)}).Inc()
}

// StationMetrics counts transmitter-side events: seam swaps, version
// bumps, and per-channel packets emitted.
type StationMetrics struct {
	SwapsStaged     *Counter // directory swaps staged at a seam
	SwapsCommitted  *Counter // staged swaps committed past every seam
	CodeSwapsStaged *Counter // staged swaps that change the FEC code
	DirVersion      *Gauge   // directory version currently on air
	Packets         []*Counter

	reg *Registry
}

// NewStationMetrics registers the transmitter counter set with
// per-channel emission counters for channels [0, channels).
func NewStationMetrics(reg *Registry, channels int) *StationMetrics {
	if reg == nil {
		return nil
	}
	m := &StationMetrics{
		SwapsStaged:     reg.Counter("station_seam_swaps_staged_total", "directory swaps staged at a cycle seam"),
		SwapsCommitted:  reg.Counter("station_seam_swaps_committed_total", "staged swaps committed past every channel seam"),
		CodeSwapsStaged: reg.Counter("station_code_swaps_staged_total", "staged swaps that change the FEC code"),
		DirVersion:      reg.Gauge("station_directory_version", "shard-directory version on air"),
		reg:             reg,
	}
	m.Packets = make([]*Counter, channels)
	for ch := range m.Packets {
		m.Packets[ch] = reg.Counter("station_packets_emitted_total",
			"packets served to receivers, by channel", ChannelLabel(ch))
	}
	return m
}

// PacketsEmitted counts n packets served on channel ch. Nil-safe and
// bounds-safe: transmitters call it unconditionally from every read.
func (m *StationMetrics) PacketsEmitted(ch, n int) {
	if m == nil || ch < 0 || ch >= len(m.Packets) {
		return
	}
	m.Packets[ch].Add(int64(n))
}

// FECMetrics counts the recovering receiver's coding events.
type FECMetrics struct {
	Recovered     *Counter // packets reconstructed from parity
	CacheHits     *Counter // table reads served from the recovered-unit cache
	GroupSolves   *Counter // unit recoveries that solved every needed group
	SolveFailures *Counter // recoveries abandoned (losses beyond the code distance)
	CodeSwaps     *Counter // FEC code changes adopted at a seam
}

// NewFECMetrics registers the FEC counter set.
func NewFECMetrics(reg *Registry) *FECMetrics {
	if reg == nil {
		return nil
	}
	return &FECMetrics{
		Recovered:     reg.Counter("station_fec_recovered_packets_total", "packets reconstructed from parity"),
		CacheHits:     reg.Counter("station_fec_cache_hits_total", "table reads served from the recovered-unit cache"),
		GroupSolves:   reg.Counter("station_fec_group_solves_total", "unit recoveries that solved every needed group"),
		SolveFailures: reg.Counter("station_fec_solve_failures_total", "unit recoveries beyond the code distance"),
		CodeSwaps:     reg.Counter("station_fec_code_swaps_total", "FEC code changes adopted at a seam"),
	}
}

// TransportLabel renders the transport label of a network series
// ("http", "udp", or "mcast").
func TransportLabel(t string) Label { return Label{Key: "transport", Value: t} }

// NetStationMetrics counts the network station's transport-side
// events: connections, bytes on the wire, and batches dropped on slow
// consumers. One bundle per (transport, channel count).
type NetStationMetrics struct {
	Conns      *Gauge   // live subscriber connections
	Frames     *Counter // net frames emitted across all channels
	CtrlFrames *Counter // in-band directory/FEC control frames emitted
	Datagrams  *Counter // datagrams those frames went out in (0 on a stream transport)
	// DatagramWrites counts the writes the datagrams went out in: a
	// segmented write carries a run of them, so datagrams ÷ writes is
	// the segments per write, 1 where the kernel does not segment.
	DatagramWrites *Counter
	Drops          *Counter // batches dropped on lagging consumers
	SubsetSubs     *Counter // subscriptions restricted to a channel subset (?ch=)
	// BadRequests counts subscribe-protocol requests refused: an unknown
	// verb, or a join with a bad channel or extra tokens.
	BadRequests *Counter
	// Oversized counts data payloads wider than a net frame carries, each
	// sent as the zero packet instead. One flush feeds every transport,
	// so the counter is the station's, shared by every transport's bundle.
	Oversized *Counter
	Bytes     []*Counter

	reg *Registry
}

// NewNetStationMetrics registers the network emission counter set for
// one transport with per-channel byte counters for channels
// [0, channels). Nil registry → nil bundle.
func NewNetStationMetrics(reg *Registry, transport string, channels int) *NetStationMetrics {
	if reg == nil {
		return nil
	}
	m := &NetStationMetrics{
		Conns:          reg.Gauge("station_net_conns", "live subscriber connections, by transport", TransportLabel(transport)),
		Frames:         reg.Counter("station_net_frames_total", "net frames emitted, by transport", TransportLabel(transport)),
		CtrlFrames:     reg.Counter("station_net_ctrl_frames_total", "in-band directory/FEC control frames emitted, by transport", TransportLabel(transport)),
		Datagrams:      reg.Counter("station_net_datagrams_total", "datagrams emitted (one slot of one subscription each), by transport", TransportLabel(transport)),
		DatagramWrites: reg.Counter("station_net_datagram_writes_total", "writes the datagrams went out in (a segmented write carries several), by transport", TransportLabel(transport)),
		Drops:          reg.Counter("station_net_dropped_batches_total", "frame batches dropped on lagging consumers, by transport", TransportLabel(transport)),
		SubsetSubs:     reg.Counter("station_net_subset_subscriptions_total", "subscriptions restricted to a channel subset, by transport", TransportLabel(transport)),
		BadRequests:    reg.Counter("station_net_bad_requests_total", "subscribe requests refused (unknown verb, bad channel, extra tokens), by transport", TransportLabel(transport)),
		Oversized:      reg.Counter("station_net_oversized_payloads_total", "data payloads too wide for a net frame, sent as the zero packet (a lost slot)"),
		reg:            reg,
	}
	m.Bytes = make([]*Counter, channels)
	for ch := range m.Bytes {
		m.Bytes[ch] = reg.Counter("station_net_bytes_total",
			"payload bytes emitted, by transport and channel", TransportLabel(transport), ChannelLabel(ch))
	}
	return m
}

// BytesEmitted counts n emitted bytes on channel ch. Nil-safe and
// bounds-safe: emitters call it unconditionally.
func (m *NetStationMetrics) BytesEmitted(ch int, n int) {
	if m == nil || ch < 0 || ch >= len(m.Bytes) {
		return
	}
	m.Bytes[ch].Add(int64(n))
}

// SubsetSubscribed counts one subscription that asked for a channel
// subset rather than the full fan-out. Nil-safe.
func (m *NetStationMetrics) SubsetSubscribed() {
	if m != nil {
		m.SubsetSubs.Add(1)
	}
}

// ConnOpened / ConnClosed move the live-connection gauge. Nil-safe.
func (m *NetStationMetrics) ConnOpened() {
	if m != nil {
		m.Conns.Add(1)
	}
}

// ConnClosed decrements the live-connection gauge. Nil-safe.
func (m *NetStationMetrics) ConnClosed() {
	if m != nil {
		m.Conns.Add(-1)
	}
}

// NetReceiverMetrics counts a network receiver's transport events —
// the client-side mirror of NetStationMetrics. Slot-level reception
// costs stay in ReceiverMetrics; these families cover what only the
// network path can do: lose datagrams, sever streams, reconnect.
type NetReceiverMetrics struct {
	Frames     *Counter // net frames received and slotted into the feed
	Reconnects *Counter // stream reconnects after a severed transport
	LostSlots  *Counter // slots declared lost (dropped, evicted, or timed out)
	Garbage    *Counter // malformed frames or datagrams discarded
}

// NewNetReceiverMetrics registers the network reception counter set
// for one transport. Nil registry → nil bundle.
func NewNetReceiverMetrics(reg *Registry, transport string) *NetReceiverMetrics {
	if reg == nil {
		return nil
	}
	return &NetReceiverMetrics{
		Frames:     reg.Counter("netrecv_frames_total", "net frames received, by transport", TransportLabel(transport)),
		Reconnects: reg.Counter("netrecv_reconnects_total", "stream reconnects, by transport", TransportLabel(transport)),
		LostSlots:  reg.Counter("netrecv_lost_slots_total", "slots declared lost at the feed, by transport", TransportLabel(transport)),
		Garbage:    reg.Counter("netrecv_garbage_frames_total", "malformed frames discarded, by transport", TransportLabel(transport)),
	}
}

// driftBuckets are the plan-drift histogram bounds: ratios >= 1, dense
// near the trigger thresholds the drift experiment sweeps.
var driftBuckets = []float64{1.02, 1.05, 1.1, 1.2, 1.5, 2, 2.5, 5, 10}

// SchedMetrics counts the online re-planning loop's decisions.
type SchedMetrics struct {
	Checks           *Counter   // planning passes run
	ReplansTriggered *Counter   // checks whose drift crossed the trigger ratio
	ReplansSkipped   *Counter   // checks that kept the live plan
	DriftRatio       *Gauge     // drift ratio measured at the last check
	Drift            *Histogram // drift ratios across all checks
}

// NewSchedMetrics registers the scheduler counter set.
func NewSchedMetrics(reg *Registry) *SchedMetrics {
	if reg == nil {
		return nil
	}
	return &SchedMetrics{
		Checks:           reg.Counter("sched_replan_checks_total", "online planning passes run"),
		ReplansTriggered: reg.Counter("sched_replans_triggered_total", "planning passes that triggered a swap"),
		ReplansSkipped:   reg.Counter("sched_replans_skipped_total", "planning passes that kept the live plan"),
		DriftRatio:       reg.Gauge("sched_plan_drift_ratio", "live/fresh plan cost ratio at the last check"),
		Drift:            reg.Histogram("sched_plan_drift", "live/fresh plan cost ratios across checks", driftBuckets),
	}
}
