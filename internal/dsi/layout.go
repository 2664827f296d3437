package dsi

import (
	"fmt"

	"dsi/internal/broadcast"
)

// Scheduler selects how a DSI broadcast is laid out across the channels
// of a multi-channel air.
type Scheduler int

const (
	// SchedStripe stripes whole frames (index table + objects) round-
	// robin across the channels: the frame at cycle position p airs on
	// channel p mod N. Every channel is self-describing (it carries
	// tables), and the per-channel cycle shrinks by a factor of N.
	SchedStripe Scheduler = iota
	// SchedSplit separates index from data: channel 0 carries only the
	// index tables (one per cycle position, in position order), and the
	// remaining N-1 channels carry the object payloads of the frames,
	// striped round-robin. Tables recur a frame-length factor faster
	// and the data cycle shrinks by a factor of N-1, at the price of a
	// channel switch between navigation and retrieval.
	SchedSplit
	// SchedShard separates index from data like SchedSplit, but cuts
	// the data frames at the caller-supplied shard boundaries
	// (MultiConfig.ShardBounds) instead of into balanced blocks: data
	// channel 1+s carries frames [ShardBounds[s], ShardBounds[s+1]) as
	// its own independent cycle, so a small (hot) shard rebroadcasts
	// its frames proportionally more often than a large (cold) one —
	// the broadcast-disks discipline. internal/sched plans the
	// boundaries from a workload profile; clients get one knowledge
	// span per shard and navigate across shards by actual arrival time.
	SchedShard
)

func (s Scheduler) String() string {
	switch s {
	case SchedStripe:
		return "stripe"
	case SchedSplit:
		return "split"
	case SchedShard:
		return "shard"
	default:
		return fmt.Sprintf("scheduler(%d)", int(s))
	}
}

// MultiConfig describes a multi-channel layout of a DSI broadcast.
type MultiConfig struct {
	// Channels is the number of parallel broadcast channels (>= 1).
	Channels int
	// Scheduler selects the placement policy. With Channels == 1 there
	// is nothing to place across channels: every scheduler yields the
	// one-channel stripe layout, the paper's broadcast.
	Scheduler Scheduler
	// SwitchSlots is the receiver's channel-switch cost in packet slots.
	SwitchSlots int
	// ShardBounds are the shard boundaries of a SchedShard layout:
	// ascending frame ids starting at 0 and ending at the frame count,
	// one entry per channel (Channels-1 data shards plus the sentinel).
	// Ignored by the other schedulers. internal/sched emits them.
	ShardBounds []int
}

// Layout places a built DSI broadcast onto the channels of an air: for
// every cycle position it records where the frame's index table and
// where its object payload are transmitted, as (channel, slot) pairs.
// Navigation pointers in a multi-channel broadcast are exactly such
// pairs; the client's timing arithmetic goes through the layout and
// nothing else, so a layout is the one seam between query processing
// and channel scheduling.
//
// A layout is immutable after construction and safe for concurrent use.
type Layout struct {
	X     *Index
	Air   *broadcast.Air
	Cfg   MultiConfig
	Sched Scheduler

	// StartCh is the channel clients tune to initially (the channel
	// carrying index tables: 0 under every scheduler here).
	StartCh int

	// DataPackets is the size of a frame's object payload in slots.
	DataPackets int

	// Per cycle position: channel and per-channel cycle slot of the
	// frame's index table and of its first object packet.
	tableCh   []int32
	tableSlot []int32
	dataCh    []int32
	dataSlot  []int32

	// dataStart[ch] is the first cycle position whose data channel ch
	// carries (split and sharded layouts; the block placement keeps
	// positions contiguous per channel).
	dataStart []int32

	// shardBounds are the shard boundaries of a SchedShard layout
	// (frame ids, with a sentinel NF); nil for other schedulers.
	shardBounds []int

	// stripeOff[ch] is the phase-stagger rotation of stripe channel ch
	// in slots (see stripeLayout); nil when no stagger applies.
	stripeOff []int32
}

func (l *Layout) place(nf int) {
	buf := make([]int32, 4*nf)
	l.tableCh, l.tableSlot = buf[0:nf], buf[nf:2*nf]
	l.dataCh, l.dataSlot = buf[2*nf:3*nf], buf[3*nf:4*nf]
}

// NewLayout places the index onto mc.Channels parallel channels with
// the configured scheduler. Every Channels == 1 config, whatever its
// scheduler, yields the stripe layout at N = 1 — the paper's single-
// channel broadcast, placed as SingleLayout places it.
func NewLayout(x *Index, mc MultiConfig) (*Layout, error) {
	if mc.Channels < 1 {
		return nil, fmt.Errorf("dsi: channel count %d must be >= 1", mc.Channels)
	}
	if mc.SwitchSlots < 0 {
		return nil, fmt.Errorf("dsi: negative switch cost %d", mc.SwitchSlots)
	}
	if mc.Channels == 1 {
		return stripeLayout(x, mc)
	}
	switch mc.Scheduler {
	case SchedStripe:
		return stripeLayout(x, mc)
	case SchedSplit:
		return splitLayout(x, mc)
	case SchedShard:
		return shardLayout(x, mc)
	default:
		return nil, fmt.Errorf("dsi: unknown scheduler %v", mc.Scheduler)
	}
}

// frameSlots appends the slots of one frame (table packets then object
// packets, or one of the two) to dst.
func frameSlots(x *Index, table, data bool, dst []broadcast.Slot) []broadcast.Slot {
	if table {
		for p := 0; p < x.TablePackets; p++ {
			dst = append(dst, broadcast.Slot{Kind: broadcast.KindIndex})
		}
	}
	if data {
		for p := 0; p < x.NO*x.ObjPackets; p++ {
			dst = append(dst, broadcast.Slot{Kind: broadcast.KindData})
		}
	}
	return dst
}

// stripeLayout places whole frames round-robin: position p airs intact
// (table followed by objects) on channel p mod N.
//
// When the frames divide evenly across the channels, the channels are
// phase-staggered: channel c's program is rotated by
// c*(FramePackets+SwitchSlots) slots, so within each round of n
// consecutive positions the frame at position p airs one frame length
// (plus the retune cost) after the frame at position p-1 instead of in
// the same slots in parallel. Aligned striping is useless to a
// single-radio client — adjacent frames air simultaneously and all but
// one are unreceivable — while the stagger lets a client that finishes
// frame p switch channels and catch frame p+1's first slot exactly
// after the retune. The guarantee covers consecutive positions on
// consecutive channels (n-1 of every n adjacent pairs); at the round
// seam — channel n-1 back to channel 0 — the rotations telescope and
// wrap, so that pair can still overlap. With NF % N != 0 the per-channel
// cycles have different lengths and the relative phases drift a frame
// per wrap, so no fixed rotation can keep adjacent frames apart; such
// layouts stay aligned rather than claim a guarantee that decays after
// one cycle. At one channel there is nothing to stagger: the layout is
// the paper's single-channel cycle, frame after frame in position
// order, with no offsets.
func stripeLayout(x *Index, mc MultiConfig) (*Layout, error) {
	n := mc.Channels
	if x.NF < n {
		return nil, fmt.Errorf("dsi: %d frames cannot stripe over %d channels", x.NF, n)
	}
	l := &Layout{
		X:           x,
		Cfg:         mc,
		Sched:       SchedStripe,
		DataPackets: x.NO * x.ObjPackets,
	}
	l.place(x.NF)
	chans := make([]*broadcast.Channel, n)
	for c := range chans {
		chans[c] = &broadcast.Channel{Program: broadcast.Program{Capacity: x.Cfg.Capacity}}
	}
	for pos := 0; pos < x.NF; pos++ {
		c := pos % n
		prog := &chans[c].Program
		l.tableCh[pos] = int32(c)
		l.tableSlot[pos] = int32(len(prog.Slots))
		l.dataCh[pos] = int32(c)
		l.dataSlot[pos] = int32(len(prog.Slots) + x.TablePackets)
		prog.Slots = frameSlots(x, true, true, prog.Slots)
	}
	// The stagger needs more than one channel, evenly striped frames
	// (unequal cycles drift out of any fixed rotation) and room inside
	// the cycle: with per-channel cycles of at most one frame plus the
	// retune cost, the rotation wraps back onto the aligned frame and
	// the no-overlap guarantee is void.
	staggered := n > 1 && x.NF%n == 0 && (x.NF/n)*x.FramePackets > x.FramePackets+mc.SwitchSlots
	if staggered {
		l.stripeOff = make([]int32, n)
		for c := 1; c < n; c++ {
			ln := len(chans[c].Slots)
			off := (c * (x.FramePackets + mc.SwitchSlots)) % ln
			l.stripeOff[c] = int32(off)
			if off == 0 {
				continue
			}
			rotated := make([]broadcast.Slot, ln)
			for i, s := range chans[c].Slots {
				rotated[(i+off)%ln] = s
			}
			chans[c].Slots = rotated
		}
		for pos := 0; pos < x.NF; pos++ {
			c := pos % n
			if off := int(l.stripeOff[c]); off != 0 {
				ln := len(chans[c].Slots)
				l.tableSlot[pos] = int32((int(l.tableSlot[pos]) + off) % ln)
				l.dataSlot[pos] = int32((int(l.dataSlot[pos]) + off) % ln)
			}
		}
	}
	air, err := broadcast.NewAir(mc.SwitchSlots, chans...)
	if err != nil {
		return nil, err
	}
	l.Air = air
	return l, nil
}

// deStagger maps a per-channel slot of a staggered stripe channel back
// to its unrotated program slot.
func (l *Layout) deStagger(ch, slot int) int {
	if l.stripeOff == nil {
		return slot
	}
	ln := l.ChanLen(ch)
	return (slot - int(l.stripeOff[ch]) + ln) % ln
}

// splitLayout separates index from data: channel 0 carries every index
// table in cycle-position order; channels 1..N-1 carry the frames'
// object payloads in contiguous position blocks (channel 1+c holds
// positions [c*B, (c+1)*B)). Blocks — rather than round-robin — keep
// consecutive positions on one channel in consecutive slots, so a
// client harvesting a range of frames stays tuned instead of finding
// that the next frame just aired in parallel on a sibling channel.
func splitLayout(x *Index, mc MultiConfig) (*Layout, error) {
	k := mc.Channels - 1 // data channels
	if x.NF < k {
		return nil, fmt.Errorf("dsi: %d frames cannot be blocked over %d data channels", x.NF, k)
	}
	l := &Layout{
		X:           x,
		Cfg:         mc,
		Sched:       SchedSplit,
		DataPackets: x.NO * x.ObjPackets,
	}
	l.place(x.NF)
	chans := make([]*broadcast.Channel, mc.Channels)
	for c := range chans {
		chans[c] = &broadcast.Channel{Program: broadcast.Program{Capacity: x.Cfg.Capacity}}
	}
	// Balanced blocks: the first NF mod k data channels carry one frame
	// more, so every data channel is non-empty.
	dataChOf := make([]int32, x.NF)
	l.dataStart = make([]int32, mc.Channels)
	base, extra := x.NF/k, x.NF%k
	pos := 0
	for c := 0; c < k; c++ {
		size := base
		if c < extra {
			size++
		}
		l.dataStart[1+c] = int32(pos)
		for i := 0; i < size; i++ {
			dataChOf[pos] = int32(1 + c)
			pos++
		}
	}
	for pos := 0; pos < x.NF; pos++ {
		l.tableCh[pos] = 0
		l.tableSlot[pos] = int32(pos * x.TablePackets)
		chans[0].Slots = frameSlots(x, true, false, chans[0].Slots)

		c := dataChOf[pos]
		prog := &chans[c].Program
		l.dataCh[pos] = c
		l.dataSlot[pos] = int32(len(prog.Slots))
		prog.Slots = frameSlots(x, false, true, prog.Slots)
	}
	air, err := broadcast.NewAir(mc.SwitchSlots, chans...)
	if err != nil {
		return nil, err
	}
	l.Air = air
	return l, nil
}

// shardLayout is SchedSplit with caller-chosen cut points: channel 0
// carries every index table in cycle-position order, and data channel
// 1+s carries the object payloads of frames [ShardBounds[s],
// ShardBounds[s+1]) as its own cycle. Because the per-channel cycle
// length is proportional to the shard size, assigning few (hot) frames
// to a shard makes them recur often — the broadcast-disks lever the
// sched planner pulls. Sharded layouts require the non-reorganized
// broadcast (m = 1): shards are HC spans, and interleaved segments
// would break the frame-contiguity the per-shard knowledge bases and
// the catalog shard splits rely on.
func shardLayout(x *Index, mc MultiConfig) (*Layout, error) {
	if x.Cfg.Segments != 1 {
		return nil, fmt.Errorf("dsi: sharded layouts require a non-reorganized broadcast, got m=%d", x.Cfg.Segments)
	}
	b := mc.ShardBounds
	if len(b) != mc.Channels {
		return nil, fmt.Errorf("dsi: %d shard bounds for %d channels (want one data channel per shard plus the index channel)",
			len(b), mc.Channels)
	}
	if len(b) < 2 || b[0] != 0 || b[len(b)-1] != x.NF {
		return nil, fmt.Errorf("dsi: shard bounds %v must start at 0 and end at %d", b, x.NF)
	}
	for s := 1; s < len(b); s++ {
		if b[s] <= b[s-1] {
			return nil, fmt.Errorf("dsi: shard %d is empty in bounds %v", s-1, b)
		}
	}
	for s := 1; s < len(b)-1; s++ {
		if x.minHC[b[s]] <= x.minHC[b[s]-1] {
			return nil, fmt.Errorf("dsi: shard cut at frame %d does not advance the HC order", b[s])
		}
	}
	l := &Layout{
		X:           x,
		Cfg:         mc,
		Sched:       SchedShard,
		DataPackets: x.NO * x.ObjPackets,
		shardBounds: append([]int(nil), b...),
	}
	l.place(x.NF)
	chans := make([]*broadcast.Channel, mc.Channels)
	for c := range chans {
		chans[c] = &broadcast.Channel{Program: broadcast.Program{Capacity: x.Cfg.Capacity}}
	}
	l.dataStart = make([]int32, mc.Channels)
	for s := 0; s < len(b)-1; s++ {
		l.dataStart[1+s] = int32(b[s])
	}
	shard := 0
	for pos := 0; pos < x.NF; pos++ {
		l.tableCh[pos] = 0
		l.tableSlot[pos] = int32(pos * x.TablePackets)
		chans[0].Slots = frameSlots(x, true, false, chans[0].Slots)

		for pos >= b[shard+1] {
			shard++
		}
		prog := &chans[1+shard].Program
		l.dataCh[pos] = int32(1 + shard)
		l.dataSlot[pos] = int32(len(prog.Slots))
		prog.Slots = frameSlots(x, false, true, prog.Slots)
	}
	air, err := broadcast.NewAir(mc.SwitchSlots, chans...)
	if err != nil {
		return nil, err
	}
	l.Air = air
	return l, nil
}

// ShardBounds returns the shard boundaries of a SchedShard layout
// (frame ids with a sentinel), nil for other schedulers. The returned
// slice is the layout's state: callers must not modify it.
func (l *Layout) ShardBounds() []int { return l.shardBounds }

// splitData reports whether the layout carries index tables on a
// channel of their own (the client then navigates with the index sweep
// instead of per-frame table reads).
func (l *Layout) splitData() bool {
	return (l.Sched == SchedSplit || l.Sched == SchedShard) && l.Channels() > 1
}

// TablePlace returns the channel and per-channel cycle slot at which
// the index table of the frame at cycle position pos is broadcast.
func (l *Layout) TablePlace(pos int) (ch, slot int) {
	return int(l.tableCh[pos]), int(l.tableSlot[pos])
}

// DataPlace returns the channel and per-channel cycle slot at which the
// first object packet of the frame at cycle position pos is broadcast.
func (l *Layout) DataPlace(pos int) (ch, slot int) {
	return int(l.dataCh[pos]), int(l.dataSlot[pos])
}

// Channels returns the number of parallel channels.
func (l *Layout) Channels() int { return l.Air.NumChannels() }

// ChanLen returns the cycle length of channel ch in slots.
func (l *Layout) ChanLen(ch int) int { return l.Air.Channels[ch].Len() }

// FramesOn returns the number of frames whose content (data frames; on
// the index channel of a split layout, index tables) channel ch carries
// per cycle — the range a per-channel frame pointer must stay within.
func (l *Layout) FramesOn(ch int) int {
	if l.splitData() {
		if ch == l.StartCh {
			return l.X.NF
		}
		return l.ChanLen(ch) / l.DataPackets
	}
	return l.ChanLen(ch) / l.X.FramePackets
}

// DataFrameIndex returns the per-channel frame index of the frame at
// cycle position pos on its data channel: its data starts at slot
// index*DataPackets (plus the table packets on layouts that keep the
// table inline, and the channel's phase-stagger offset on staggered
// stripe layouts — catalog geometry a receiver knows a priori).
func (l *Layout) DataFrameIndex(pos int) (ch, index int) {
	ch = int(l.dataCh[pos])
	if l.splitData() {
		return ch, int(l.dataSlot[pos]) / l.DataPackets
	}
	return ch, l.deStagger(ch, int(l.tableSlot[pos])) / l.X.FramePackets
}

// SlotTable inverts the table placement: it returns the cycle position
// and packet part of the index table occupying per-channel slot `slot`
// of channel ch, with ok false when that slot carries no table packet.
func (l *Layout) SlotTable(ch, slot int) (pos, part int, ok bool) {
	if l.splitData() {
		if ch != l.StartCh {
			return 0, 0, false
		}
		return slot / l.X.TablePackets, slot % l.X.TablePackets, true
	}
	// Stripe: channel ch carries positions ch, ch+N, ch+2N, ...
	fp := l.X.FramePackets
	slot = l.deStagger(ch, slot)
	j, within := slot/fp, slot%fp
	return j*l.Cfg.Channels + ch, within, within < l.X.TablePackets
}

// SlotData inverts the data placement: it returns the cycle position
// and the packet offset within the frame's object payload for
// per-channel slot `slot` of channel ch, with ok false when that slot
// carries no data packet.
func (l *Layout) SlotData(ch, slot int) (pos, off int, ok bool) {
	if l.splitData() {
		if ch == l.StartCh {
			return 0, 0, false
		}
		return int(l.dataStart[ch]) + slot/l.DataPackets, slot % l.DataPackets, true
	}
	fp, tp := l.X.FramePackets, l.X.TablePackets
	slot = l.deStagger(ch, slot)
	j, within := slot/fp, slot%fp
	return j*l.Cfg.Channels + ch, within - tp, within >= tp
}

// ProbeCycle returns the range experiment harnesses draw probe slots
// from: the total slot count across channels. Channels share one
// absolute clock, so a probe uniform over this range makes every
// channel's phase (in particular the long data channels of a split
// layout) effectively uniform at tune-in; drawing over just the start
// channel's short cycle would pin the data channels near phase zero
// and bias every measured wait. At one channel this is exactly the
// program length, so single-channel experiments are unchanged.
func (l *Layout) ProbeCycle() int {
	total := 0
	for _, ch := range l.Air.Channels {
		total += ch.Len()
	}
	return total
}

// CycleBytes returns the total bytes broadcast per full cycle across
// all channels.
func (l *Layout) CycleBytes() int64 {
	var total int64
	for _, ch := range l.Air.Channels {
		total += ch.CycleBytes()
	}
	return total
}

// probePos maps the position the tuner synchronized at (channel
// l.StartCh, slot within that channel's cycle) to the cycle position of
// the next frame whose table starts at or after that slot, which is
// where a freshly probed client resumes.
func (l *Layout) probePos(slot int) int {
	switch {
	case l.Sched == SchedSplit || l.Sched == SchedShard:
		p := slot / l.X.TablePackets
		if slot%l.X.TablePackets != 0 {
			p++
		}
		return p % l.X.NF
	default: // stripe, start channel 0 carries positions 0, N, 2N, ...
		fp := l.X.FramePackets
		j := slot / fp
		if slot%fp != 0 {
			j++
		}
		n := l.Cfg.Channels
		onStart := (l.X.NF + n - 1) / n // frames on channel 0
		return (j % onStart) * n
	}
}

func (l *Layout) String() string {
	return fmt.Sprintf("Layout{%v N=%d switch=%d over %v}", l.Sched, l.Channels(), l.Cfg.SwitchSlots, l.X)
}
