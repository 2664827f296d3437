// Package broadcast simulates a periodic wireless data broadcast.
//
// The server broadcasts on an Air: one or more channels, each a fixed
// cyclic sequence of packets (a Program), on one clock measured in
// packet slots. The paper's single-channel broadcast is the one-channel
// air (SingleAir); there is no separate single-program model. A slot is
// only its Kind: which frame, node or object it carries is the
// arithmetic of the layout that placed it. A mobile client is modelled
// by a Tuner: it tunes in at some slot of one channel, alternates
// between reading packets (active mode) and dozing until a future slot
// (doze mode), and its two cost metrics are
//
//   - access latency: packet slots elapsed between the initial probe and
//     query completion, and
//   - tuning time: packets actually received.
//
// Both are reported in bytes (slots x packet capacity), matching the
// paper's evaluation. The package also implements the link-error model of
// paper section 5: every received packet is corrupted independently with
// probability theta. See LossModel for how corruption is applied.
package broadcast

import (
	"fmt"
	"math/rand/v2"
)

// Paper section 4 constants: sizes of the broadcast payload components.
const (
	// ObjectBytes is the size of one data object.
	ObjectBytes = 1024
	// CoordBytes is the size of a two-dimensional coordinate
	// (two 8-byte floating-point numbers).
	CoordBytes = 16
	// HCBytes is the size of a Hilbert-curve value (same total size as a
	// coordinate).
	HCBytes = 16
	// PtrBytes is the size of an index-table or tree-node pointer.
	PtrBytes = 2
	// MCPtrBytes is the size of a multi-channel pointer: a PtrBytes
	// frame pointer widened by a one-byte channel id (see package wire).
	MCPtrBytes = PtrBytes + 1
	// MBRBytes is the size of an R-tree minimum bounding rectangle
	// (four 8-byte floats).
	MBRBytes = 32
)

// Kind classifies a packet slot. Index packets carry navigation
// information; data packets carry object payload.
type Kind uint8

const (
	// KindIndex marks packets carrying index information.
	KindIndex Kind = iota
	// KindData marks packets carrying data-object payload.
	KindData
)

func (k Kind) String() string {
	switch k {
	case KindIndex:
		return "index"
	case KindData:
		return "data"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Slot describes one packet of the broadcast program: its Kind, which
// is all the loss model and the receivers need. Which frame, node or
// object a slot belongs to is the placing layout's arithmetic (for DSI,
// dsi.Layout.SlotTable and SlotData), not something every slot stores.
type Slot struct {
	Kind Kind
}

// Program is a cyclic broadcast schedule: Slots repeats forever.
type Program struct {
	Capacity int // packet capacity in bytes
	Slots    []Slot
}

// Len returns the cycle length in packets.
func (p *Program) Len() int { return len(p.Slots) }

// CycleBytes returns the length of one broadcast cycle in bytes.
func (p *Program) CycleBytes() int64 { return int64(p.Len()) * int64(p.Capacity) }

// At returns the slot at the given cycle position.
func (p *Program) At(pos int) Slot { return p.Slots[pos%len(p.Slots)] }

// PacketsFor returns how many packets of the given capacity are needed to
// carry n bytes (at least one packet for any positive n).
func PacketsFor(n, capacity int) int {
	if n <= 0 {
		return 0
	}
	return (n + capacity - 1) / capacity
}

// LossModel decides which received packets are corrupted. Theta is the
// paper's link-error ratio: each packet is lost independently with
// probability Theta.
//
// By default corruption applies to index packets only: the paper's
// reported deterioration magnitudes (Table 1: at most ~62% latency
// deterioration at theta = 0.7) are only consistent with link errors
// affecting navigation, since losing any packet of a 16-packet data
// object with theta = 0.7 would make object retrieval take thousands of
// cycles. Set AffectsData to extend corruption to data packets (clients
// then retry the object on its next broadcast).
type LossModel struct {
	Theta       float64
	AffectsData bool

	// Gilbert-Elliott burst mode (see NewGilbertElliott). When burst is
	// set, Theta holds the stationary loss rate and losses follow the
	// two-state chain instead of the i.i.d. draw.
	burst, bad          bool
	pGB, pBG            float64
	thetaGood, thetaBad float64

	rng *rand.Rand

	// per, when non-nil, makes this a per-channel model (see PerChannel):
	// (*per)[ch] is in effect on channel ch, and the model itself draws
	// nothing. A pointer, and the bools packed above, keep a model at 64
	// bytes: simulations allocate one per query.
	per *[]*LossModel
}

// NewLossModel returns a loss model with the given error ratio and seed.
// Theta outside [0, 1) panics: 1 would mean every packet is lost and no
// query could ever terminate. Construction is cheap (O(1) seeding), so
// simulations can afford a fresh, independently seeded model per query.
func NewLossModel(theta float64, seed int64) *LossModel {
	if theta < 0 || theta >= 1 {
		panic(fmt.Sprintf("broadcast: theta %v outside [0,1)", theta))
	}
	return &LossModel{Theta: theta, rng: rand.New(rand.NewPCG(uint64(seed), 0xda3e39cb94b95bdb))}
}

// PerChannel returns a loss model that applies ms[ch] to the packets
// received on channel ch: the heterogeneous channel quality of a
// multi-channel air as one value, handed to a Tuner like any other
// model. A nil or missing entry means that channel reads error-free.
// Entries may be shared, and then draw from one process in reception
// order across the channels that share them.
func PerChannel(ms ...*LossModel) *LossModel {
	return &LossModel{per: &ms}
}

// on returns the model in effect on channel ch: entry ch of a
// per-channel model (nil when it has none), the model itself otherwise.
func (l *LossModel) on(ch int) *LossModel {
	if l == nil || l.per == nil {
		return l
	}
	if ch < len(*l.per) {
		return (*l.per)[ch]
	}
	return nil
}

// Lost reports whether a packet of the given kind is corrupted on
// reception. A nil model never loses packets.
func (l *LossModel) Lost(k Kind) bool {
	return l != nil && l.Theta != 0 && l.lost(k)
}

// lost is Lost for a model that can lose a packet.
func (l *LossModel) lost(k Kind) bool {
	if l.burst {
		return l.lostBurst(k)
	}
	if k == KindData && !l.AffectsData {
		return false
	}
	return l.rng.Float64() < l.Theta
}

// Stats are the cost metrics of one query execution.
type Stats struct {
	// ProbeSlot is the absolute slot at which the client tuned in.
	ProbeSlot int64
	// LatencyPackets is the number of slots elapsed from the initial
	// probe until the query was satisfied.
	LatencyPackets int64
	// TuningPackets is the number of packets the client received
	// (including corrupted ones: the radio was on).
	TuningPackets int64
	// Switches is the number of channel switches the receiver performed
	// (always zero on a single-channel broadcast).
	Switches int64
	// Capacity is the packet capacity used to convert to bytes.
	Capacity int
}

// LatencyBytes returns the access latency in bytes.
func (s Stats) LatencyBytes() int64 { return s.LatencyPackets * int64(s.Capacity) }

// TuningBytes returns the tuning time in bytes.
func (s Stats) TuningBytes() int64 { return s.TuningPackets * int64(s.Capacity) }

func (s Stats) String() string {
	return fmt.Sprintf("latency=%dB tuning=%dB", s.LatencyBytes(), s.TuningBytes())
}

// Tuner is a mobile client's view of the broadcast medium: one radio
// tuned to one channel of an Air. It tracks an absolute packet clock
// (monotonically increasing across cycles), the channel it listens to,
// and the metrics of the current query. Switch moves it to another
// channel, paying the air's switch cost in latency; on the one-channel
// air of the paper's broadcast there is nowhere to switch to.
type Tuner struct {
	air      *Air
	prog     *Program // current channel's program
	loss     *LossModel
	ch       int
	startCh  int
	now      int64
	start    int64
	read     int64
	switches int64

	// phase[ch] is the absolute slot at which channel ch's cycle has
	// position 0. Nil means every channel is anchored at slot 0 — the
	// classic simulator convention. A broadcast whose schedule was
	// swapped at a cycle seam re-anchors each channel at its cutover
	// slot (see RetunePhased); the phase is a property of the schedule
	// on air, so Reset preserves it.
	phase []int64
}

// NewTuner returns a client tuned to channel ch of the air at the given
// absolute slot. A nil loss model means error-free channels; a
// PerChannel model gives each channel its own error process.
func NewTuner(air *Air, ch int, probeSlot int64, loss *LossModel) *Tuner {
	if ch < 0 || ch >= len(air.Channels) {
		panic(fmt.Sprintf("broadcast: channel %d outside air of %d", ch, len(air.Channels)))
	}
	if probeSlot < 0 {
		panic("broadcast: negative probe slot")
	}
	return &Tuner{
		air:     air,
		prog:    &air.Channels[ch].Program,
		loss:    loss,
		ch:      ch,
		startCh: ch,
		now:     probeSlot,
		start:   probeSlot,
	}
}

// Channel returns the channel the tuner is currently tuned to.
func (t *Tuner) Channel() int { return t.ch }

// Reset re-tunes the client at the given absolute slot on its initial
// channel with fresh metrics and the given loss model, reusing the
// tuner: after Reset the tuner is indistinguishable from a newly
// constructed one.
func (t *Tuner) Reset(probeSlot int64, loss *LossModel) {
	if probeSlot < 0 {
		panic("broadcast: negative probe slot")
	}
	t.loss = loss
	t.now = probeSlot
	t.start = probeSlot
	t.read = 0
	t.switches = 0
	t.ch = t.startCh
	t.prog = &t.air.Channels[t.ch].Program
}

// Retune points the tuner at a different air mid-flight, preserving the
// absolute clock, the accumulated metrics, the channel the receiver is
// tuned to and its loss model. This models a broadcast schedule swap:
// the carriers are the same physical channels (so no switch cost
// applies), but from this slot on they transmit the new air's programs. The new air must have the same channel count and
// capacity — a schedule swap cannot retune radios.
func (t *Tuner) Retune(air *Air) {
	if len(air.Channels) != len(t.air.Channels) {
		panic(fmt.Sprintf("broadcast: Retune from %d channels to %d", len(t.air.Channels), len(air.Channels)))
	}
	if air.Capacity != t.air.Capacity {
		panic(fmt.Sprintf("broadcast: Retune from capacity %d to %d", t.air.Capacity, air.Capacity))
	}
	t.air = air
	t.prog = &air.Channels[t.ch].Program
	// Plain Retune means slot-0 anchoring: a stale phase from an
	// earlier RetunePhased would skew every position computation
	// against the new air.
	t.phase = nil
}

// RetunePhased is Retune for an air whose channel cycles are not
// anchored at slot 0: phase[ch] is the absolute slot at which channel
// ch's new cycle has position 0. A transmitter that swaps schedules at
// a cycle seam anchors each channel at its cutover slot, so a byte-
// level receiver following the swap must re-anchor the same way or its
// position arithmetic drifts off the air by the seam offset. A nil
// phase re-anchors every channel at slot 0 (the Retune convention).
func (t *Tuner) RetunePhased(air *Air, phase []int64) {
	if phase != nil && len(phase) != len(air.Channels) {
		panic(fmt.Sprintf("broadcast: %d phases for %d channels", len(phase), len(air.Channels)))
	}
	t.Retune(air)
	if phase == nil {
		t.phase = nil
		return
	}
	t.phase = append(t.phase[:0], phase...)
}

// Switch retunes the receiver to channel ch. Switching to the current
// channel is free; any other channel costs the air's SwitchSlots slots
// of latency (the radio is retuning, so no packet is received and no
// tuning cost accrues).
func (t *Tuner) Switch(ch int) {
	if ch == t.ch {
		return
	}
	if ch < 0 || ch >= len(t.air.Channels) {
		panic(fmt.Sprintf("broadcast: channel %d outside air of %d", ch, len(t.air.Channels)))
	}
	t.ch = ch
	t.prog = &t.air.Channels[ch].Program
	t.now += int64(t.air.SwitchSlots)
	t.switches++
}

// Now returns the absolute packet clock.
func (t *Tuner) Now() int64 { return t.now }

// Pos returns the current position within the broadcast cycle: the slot
// about to be broadcast, which Read would receive. On a phase-anchored
// air (RetunePhased) the position is relative to the current channel's
// anchor slot.
func (t *Tuner) Pos() int {
	l := int64(t.prog.Len())
	if t.phase == nil {
		return int(t.now % l)
	}
	rel := (t.now - t.phase[t.ch]) % l
	if rel < 0 {
		rel += l
	}
	return int(rel)
}

// PhaseOf returns the absolute slot at which channel ch's current cycle
// has position 0 (always 0 for airs anchored the classic way).
func (t *Tuner) PhaseOf(ch int) int64 {
	if t.phase == nil {
		return 0
	}
	return t.phase[ch]
}

// lossNow returns the loss model in effect on the current channel.
func (t *Tuner) lossNow() *LossModel { return t.loss.on(t.ch) }

// Read receives the packet at the current slot of the current channel.
// It advances the clock by one slot and accounts one packet of tuning
// time. The returned slot describes the packet; ok is false when the
// packet was corrupted by the loss model (its content must not be used,
// but the cost is still paid).
func (t *Tuner) Read() (s Slot, ok bool) {
	s = t.prog.At(t.Pos())
	t.now++
	t.read++
	return s, !t.lossNow().Lost(s.Kind)
}

// ReadN receives the n packets starting at the current slot and reports
// whether every one arrived intact: ReadMask's all-intact case, over
// chunks of 64 packets. Like ReadMask it is n calls of Read, and on a
// channel that cannot lose a packet it draws nothing and looks at no
// slot — which is what lets an error-free replay read a table or an
// object in constant time.
func (t *Tuner) ReadN(n int) bool {
	ok := true
	for n > 0 {
		k := min(n, 64)
		if t.ReadMask(k) != allIntact(k) {
			ok = false
		}
		n -= k
	}
	return ok
}

// ReadMask receives the n packets (n <= 64) starting at the current
// slot and reports which arrived intact: bit i is set when read i did.
// By definition it is n calls of Read — same clock, same accounting,
// same loss draws in the same order. On a channel that cannot lose a
// packet (no loss model in effect, or one with Theta 0) nothing is
// drawn and no slot is looked at, so the batch is three additions.
func (t *Tuner) ReadMask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n > 64 {
		panic(fmt.Sprintf("broadcast: ReadMask(%d) exceeds the 64-bit mask", n))
	}
	loss := t.lossNow()
	if loss == nil || loss.Theta == 0 {
		t.now += int64(n)
		t.read += int64(n)
		return allIntact(n)
	}
	slots := t.prog.Slots
	pos := t.Pos()
	var mask uint64
	for i := 0; i < n; i++ {
		if !loss.lost(slots[pos].Kind) {
			mask |= 1 << uint(i)
		}
		if pos++; pos == len(slots) {
			pos = 0
		}
	}
	t.now += int64(n)
	t.read += int64(n)
	return mask
}

// allIntact is ReadMask's answer when all n reads arrive intact.
func allIntact(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// DozeUntil advances the clock to the absolute slot abs without
// receiving anything (the client sleeps). Rewinding panics: broadcast
// time only moves forward.
func (t *Tuner) DozeUntil(abs int64) {
	if abs < t.now {
		panic(fmt.Sprintf("broadcast: DozeUntil(%d) before now=%d", abs, t.now))
	}
	t.now = abs
}

// NextOccurrence returns the earliest absolute slot >= now whose cycle
// position (under the current channel's phase anchor) equals pos.
func (t *Tuner) NextOccurrence(pos int) int64 {
	l := t.prog.Len()
	if pos < 0 || pos >= l {
		panic(fmt.Sprintf("broadcast: position %d outside cycle of %d", pos, l))
	}
	delta := pos - t.Pos()
	if delta < 0 {
		delta += l
	}
	return t.now + int64(delta)
}

// DozeUntilPos advances the clock to the next occurrence of the given
// cycle position (possibly zero slots if the client is already there).
func (t *Tuner) DozeUntilPos(pos int) {
	t.DozeUntil(t.NextOccurrence(pos))
}

// Stats returns the metrics accumulated so far. Latency counts the slots
// from the probe up to (and including) the last slot consumed, including
// slots spent retuning between channels.
func (t *Tuner) Stats() Stats {
	return Stats{
		ProbeSlot:      t.start,
		LatencyPackets: t.now - t.start,
		TuningPackets:  t.read,
		Switches:       t.switches,
		Capacity:       t.prog.Capacity,
	}
}

// NextOccurrence returns the earliest absolute slot >= now whose position
// within a cycle of length cycleLen equals pos.
func NextOccurrence(now int64, pos, cycleLen int) int64 {
	if pos < 0 || pos >= cycleLen {
		panic(fmt.Sprintf("broadcast: position %d outside cycle of %d", pos, cycleLen))
	}
	cur := int(now % int64(cycleLen))
	delta := pos - cur
	if delta < 0 {
		delta += cycleLen
	}
	return now + int64(delta)
}
