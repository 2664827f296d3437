// The cycle producer: the station side of the channel abstraction
// layer. A MultiTransmitter materializes one byte stream per channel of
// a dsi.Layout — index tables in the wire format the layout calls for
// (wire.EncodeLayoutTables), object payloads on their data channels —
// and keeps the broadcast on air while its shard directory (and code)
// is swapped for a freshly planned one. ScanMulti proves the streams are
// self-describing by rebuilding the complete broadcast metadata from one
// cycle of every channel.
//
// A swap is staged, then takes effect at a cycle seam: the global seam
// is the next index-channel cycle boundary, and every data channel cuts
// over at its own first old-cycle boundary at or after that slot —
// channels never truncate a cycle mid-frame, so old-version frames keep
// streaming across the transition window while the index channel
// already carries the new directory. Receivers holding the old
// directory stay consistent with what their channels still transmit
// until they pick up the version bump; from the bump and the old
// geometry they can compute every channel's cutover slot (the seam
// arithmetic in StageFEC is deliberately a pure function of the old
// directory plus the announced seam). A producer that never stages is
// the static broadcast: one generation, version 1, anchored at slot 0.

package station

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// MultiTransmitter is the one producer of a DSI broadcast's byte
// streams, under any layout — the single-channel one included — and
// across directory swaps. What a slot carries is asked of the
// generation's layout (SlotTable/SlotData) per packet, or read from its
// coded geometry's unit covering the slot: a generation keeps no
// per-slot or per-unit state beyond the encoded tables and, when coded,
// the geometry it shares with the layout's receivers. Parity is built
// where it is read, as object bytes are: a run that reaches a unit's
// parity tail encodes it into the reader's buffer.
//
// It is safe for concurrent use: any number of readers call
// ReadRunAt, DirectoryAt and FECDescAt while one control goroutine
// stages and commits swaps. A read loads one immutable snapshot of what
// is on air and takes no lock, except that a parity tail is encoded
// under its channel's lock, in scratch the channel owns.
type MultiTransmitter struct {
	air atomic.Pointer[onAir]
	// mu serializes the writers (StageFEC, Commit); readers never take it.
	mu sync.Mutex
	// met, when set, counts per-channel packets served, swaps staged and
	// committed, and the version on air. Nil counts nothing.
	met *obs.StationMetrics
}

// onAir is one published state of the producer, never modified: the
// generation on air and the staged one (nil when no swap is in flight),
// which takes over each channel at its own cutover seam.
type onAir struct {
	cur, next *generation
}

// at returns the generation whose directory and FEC descriptor are on
// air at abs: the staged one from the global seam on (the index channel
// is the first to cut over, and the announcement rides with it).
func (a *onAir) at(abs int64) *generation {
	if a.next != nil && abs >= a.next.clocks[a.next.lay.StartCh].phase {
		return a.next
	}
	return a.cur
}

// generation is one layout under one code: its tables encoded once and,
// when coded, the geometry and per channel the scratch a parity tail is
// encoded in. Nothing but that scratch is modified after it is
// published.
type generation struct {
	lay       *dsi.Layout
	cfg       wire.FECConfig
	version   uint32
	clocks    []clock  // per channel
	tables    [][]byte // per cycle position, in the layout's wire format
	slotBytes int      // the widest payload on air: Capacity, plus ParityHeaderSize when coded

	fec   *fecGeom      // shared read-only (sharedFECGeom); nil when uncoded
	tails []tailScratch // per channel, where parity is encoded (parityRun); nil when uncoded

	dir  []byte // versioned directory announcing the generation; nil for layouts without one
	desc []byte // versioned FEC descriptor; nil when none ships
}

// clock is one channel's cycle under a generation: the absolute slot at
// which it has phase 0 — slot 0 for the first generation, the channel's
// cutover seam for a staged one — and its length in slots as
// transmitted (physical when coded).
type clock struct{ phase, len int64 }

// NewMultiTransmitter puts the layout on air uncoded, as directory
// version 1 anchored at slot 0. It refuses a layout whose objects' first
// packets cannot hold the wire header (wire.CheckHeaderFits).
func NewMultiTransmitter(lay *dsi.Layout) (*MultiTransmitter, error) {
	return NewMultiTransmitterFEC(lay, wire.FECConfig{})
}

// NewRebroadcaster is NewMultiTransmitter.
//
// Deprecated: every MultiTransmitter stages and commits directory swaps;
// use NewMultiTransmitter.
func NewRebroadcaster(lay *dsi.Layout) (*MultiTransmitter, error) { return NewMultiTransmitter(lay) }

// NewMultiTransmitterFEC is NewMultiTransmitter with an erasure code
// over every channel of the layout: each stream gains a parity tail
// after every index table and every object, and Packet, CycleChannel
// and ReadRunAt then run in the physical slot domain. It encodes no
// parity: each unit's tail is encoded whenever it is read. The zero
// config is the uncoded transmitter, which ships no FEC
// descriptor.
func NewMultiTransmitterFEC(lay *dsi.Layout, cfg wire.FECConfig) (*MultiTransmitter, error) {
	g, err := newGeneration(lay, cfg)
	if err != nil {
		return nil, err
	}
	g.version = 1
	// A layout without a dedicated index channel has no directory.
	g.dir, _ = wire.EncodeDirV(lay, 1, 0)
	if cfg.Enabled() {
		if g.desc, err = wire.EncodeFECDesc(cfg, 1); err != nil {
			return nil, err
		}
	}
	t := &MultiTransmitter{}
	t.air.Store(&onAir{cur: g})
	return t, nil
}

// newGeneration encodes the layout's tables and, under a code, takes
// its physical geometry, encoding no parity frame. Version, directory
// and descriptor are the caller's to fill in before publishing.
func newGeneration(lay *dsi.Layout, cfg wire.FECConfig) (*generation, error) {
	if err := wire.CheckHeaderFits(lay.X.Cfg.Capacity, lay.X.Cfg.ObjectBytes); err != nil {
		return nil, err
	}
	tables, err := wire.EncodeLayoutTables(lay)
	if err != nil {
		return nil, err
	}
	g := &generation{
		lay: lay, cfg: cfg, tables: tables,
		clocks: make([]clock, lay.Channels()), slotBytes: lay.X.Cfg.Capacity,
	}
	for ch := range g.clocks {
		g.clocks[ch].len = int64(lay.ChanLen(ch))
	}
	if !cfg.Enabled() {
		return g, nil
	}
	geo, err := sharedFECGeom(lay, cfg)
	if err != nil {
		return nil, err
	}
	for ch := range g.clocks {
		g.clocks[ch].len = int64(geo.chs[ch].physLen)
	}
	g.fec, g.tails = geo, make([]tailScratch, lay.Channels())
	g.slotBytes += wire.ParityHeaderSize
	return g, nil
}

// SetObs installs the station metric bundle. Call before the broadcast
// goes live; nil (the default) counts nothing.
func (t *MultiTransmitter) SetObs(m *obs.StationMetrics) {
	t.met = m
	if m != nil {
		m.DirVersion.Set(float64(t.Version()))
	}
}

// Layout returns the layout of the committed generation (the staged one
// only after Commit).
func (t *MultiTransmitter) Layout() *dsi.Layout { return t.air.Load().cur.lay }

// Version returns the directory version of the committed generation
// (the staged directory is Version()+1).
func (t *MultiTransmitter) Version() uint32 { return t.air.Load().cur.version }

// Committed returns the committed generation's layout, directory
// version and FEC descriptor (nil when none ships), read from one
// snapshot: a catalog cut from them describes one generation even while
// a swap is in flight.
func (t *MultiTransmitter) Committed() (*dsi.Layout, uint32, []byte) {
	g := t.air.Load().cur
	return g.lay, g.version, g.desc
}

// Directory returns the encoded on-air channel directory of the
// committed layout (split and sharded layouts): the shard/cycle catalog
// a station broadcasts alongside the streams so receivers can interpret
// multi-channel pointers into unequal cycles. ScanMultiDir consumes it
// on the receiver side.
func (t *MultiTransmitter) Directory() ([]byte, error) { return wire.EncodeShardDir(t.Layout()) }

// ChanSlots returns channel ch's cycle length in packet slots under the
// committed generation — physical slots when it is coded.
func (t *MultiTransmitter) ChanSlots(ch int) int { return int(t.air.Load().cur.clocks[ch].len) }

// Packet returns the packet the committed generation broadcasts at the
// given per-channel cycle slot of channel ch. On a coded generation the
// slot is physical and parity slots carry their encoded parity frames.
func (t *MultiTransmitter) Packet(ch, slot int) Packet {
	g := t.air.Load().cur
	return g.packetAt(ch, slot%int(g.clocks[ch].len))
}

// CycleChannel streams one full cycle of channel ch under the committed
// generation and closes out.
func (t *MultiTransmitter) CycleChannel(ch int, out chan<- Packet) {
	g := t.air.Load().cur
	for slot := 0; slot < int(g.clocks[ch].len); slot++ {
		out <- g.packetAt(ch, slot)
	}
	close(out)
}

// PacketAt implements PacketSource: the run of one into no buffer.
func (t *MultiTransmitter) PacketAt(ch int, abs int64) (Packet, uint32) {
	var p [1]Packet
	t.ReadRunAt(p[:], nil, ch, abs)
	return p[0], p[0].Ver
}

// ReadRunAt implements PacketSource: the packets channel ch transmits at
// absolute slots abs, abs+1, …, each tagged with the directory version
// governing it — the committed generation's before the channel's seam of
// a staged swap, the staged one's from the seam on, so one run may carry
// both. abs is reduced into a generation's cycle once per generation the
// run touches. The buffer is the reader's; the producer keeps nothing
// of it.
func (t *MultiTransmitter) ReadRunAt(dst []Packet, buf []byte, ch int, abs int64) {
	a := t.air.Load()
	if ch < 0 || ch >= len(a.cur.clocks) {
		clear(dst) // a channel the broadcast does not carry: lost slots
		return
	}
	dst, abs = LostBeforeZero(dst, abs)
	t.met.PacketsEmitted(ch, len(dst))
	b := buf[:0]
	g := a.cur
	if a.next != nil {
		if seam := a.next.clocks[ch].phase; abs < seam {
			n := int(min(int64(len(dst)), seam-abs))
			b = g.fill(dst[:n], b, len(dst)-n, ch, g.rel(ch, abs))
			dst, abs = dst[n:], seam
		}
		g = a.next
	}
	if len(dst) > 0 {
		g.fill(dst, b, 0, ch, g.rel(ch, abs))
	}
}

// rel reduces absolute slot abs into channel ch's cycle under g.
func (g *generation) rel(ch int, abs int64) int {
	c := g.clocks[ch]
	rel := (abs - c.phase) % c.len
	if rel < 0 {
		rel += c.len
	}
	return int(rel)
}

// DirectoryAt implements PacketSource: the versioned shard directory on
// air at abs — the staged one from the global seam on — or nil for a
// layout without one. The bytes are the producer's: callers must not
// modify them.
func (t *MultiTransmitter) DirectoryAt(abs int64) ([]byte, uint32) {
	g := t.air.Load().at(abs)
	return g.dir, g.version
}

// FECDescAt implements PacketSource: the versioned FEC descriptor on air
// at abs, in lockstep with DirectoryAt. A generation ships one when it
// is coded or staged — so a feed's newest descriptor moves with every
// swap, turning coding off included — and an uncoded producer that
// never staged ships none.
func (t *MultiTransmitter) FECDescAt(abs int64) ([]byte, uint32) {
	g := t.air.Load().at(abs)
	return g.desc, g.version
}

// SeamOf returns channel ch's cutover slot of the staged swap; ok is
// false when no swap is in flight.
func (t *MultiTransmitter) SeamOf(ch int) (int64, bool) {
	next := t.air.Load().next
	if next == nil {
		return 0, false
	}
	return next.clocks[ch].phase, true
}

// Stage schedules a swap to a new layout of the same broadcast under the
// code on air; see StageFEC.
func (t *MultiTransmitter) Stage(lay *dsi.Layout, now int64) (int64, error) {
	return t.StageFEC(lay, t.air.Load().cur.cfg, now)
}

// StageFEC schedules a swap to a new layout of the same broadcast,
// encoded under cfg: the global seam is the first index-channel cycle
// boundary strictly after now, and each channel cuts over at its first
// own-cycle boundary at or after it. It returns the global seam slot.
// The versioned FEC descriptor announcing the staged code crosses the
// air with the new directory, so receivers adopt the code at the seam
// exactly as they adopt the shard map; the zero cfg turns coding off
// from the seam on. Staging fails while a swap is already in flight, for
// a layout without a directory, or when the new layout does not describe
// the same index over the same channels.
func (t *MultiTransmitter) StageFEC(lay *dsi.Layout, cfg wire.FECConfig, now int64) (int64, error) {
	old := t.Layout()
	if lay.X != old.X {
		return 0, fmt.Errorf("station: staged layout serves a different index")
	}
	if lay.Channels() != old.Channels() {
		return 0, fmt.Errorf("station: staged layout has %d channels, air has %d", lay.Channels(), old.Channels())
	}
	if lay.StartCh != old.StartCh {
		return 0, fmt.Errorf("station: staged layout moves the index channel")
	}
	if now < 0 {
		return 0, fmt.Errorf("station: negative stage time %d", now)
	}
	// The generation build encodes the tables and derives the geometry,
	// no parity; it runs outside the writer lock, and readers wait on
	// neither.
	g, err := newGeneration(lay, cfg)
	if err != nil {
		return 0, err
	}

	idx := old.StartCh
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.air.Load()
	if a.next != nil {
		return 0, fmt.Errorf("station: a directory swap is already in flight (seam %d)",
			a.next.clocks[idx].phase)
	}
	if a.cur.lay != old {
		// A Stage+Commit raced past the validation above; the control
		// loop is a single goroutine, so this is misuse.
		return 0, fmt.Errorf("station: broadcast changed while staging")
	}

	// Global seam: next index-channel cycle boundary strictly after now.
	// On a coded broadcast the cycles — and so the seams — live in the
	// physical slot domain; units tile each cycle, so a physical cycle
	// boundary never splits a unit or its parity tail, and the staged
	// layout re-encodes cleanly from its seam.
	idxClock := a.cur.clocks[idx]
	rel := now - idxClock.phase
	swap := idxClock.phase + (rel/idxClock.len+1)*idxClock.len
	for ch, c := range a.cur.clocks {
		rel := swap - c.phase
		k := rel / c.len
		if rel%c.len != 0 {
			k++
		}
		g.clocks[ch].phase = c.phase + k*c.len
	}
	g.version = a.cur.version + 1
	if g.dir, err = wire.EncodeDirV(lay, g.version, swap); err != nil {
		return 0, err
	}
	if g.desc, err = wire.EncodeFECDesc(cfg, g.version); err != nil {
		return 0, err
	}
	t.air.Store(&onAir{cur: a.cur, next: g})
	if t.met != nil {
		t.met.SwapsStaged.Inc()
		if cfg != a.cur.cfg {
			t.met.CodeSwapsStaged.Inc()
		}
	}
	return swap, nil
}

// Commit finalizes a staged swap once every channel has crossed its
// seam: the staged generation becomes current, anchored per channel at
// its cutover slot. It reports whether the commit happened (false while
// a channel is still streaming its last old cycle, or when no swap is
// staged).
func (t *MultiTransmitter) Commit(now int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.air.Load()
	if a.next == nil {
		return false
	}
	for _, c := range a.next.clocks {
		if now < c.phase {
			return false
		}
	}
	t.air.Store(&onAir{cur: a.next})
	if t.met != nil {
		t.met.SwapsCommitted.Inc()
		t.met.DirVersion.Set(float64(a.next.version))
	}
	return true
}

// fill writes the packets of slots slot, slot+1, … of channel ch into
// dst — slot already reduced into [0, clocks[ch].len), the run wrapping
// at the cycle end — and returns b with the payload bytes it built
// appended (ReadRunAt's buffer contract; more is how many slots of the
// run follow dst's). The coded path reads what a slot carries from the
// geometry unit covering it, once per unit rather than per slot,
// instead of re-inverting the layout.
func (g *generation) fill(dst []Packet, b []byte, more, ch, slot int) []byte {
	if g.fec == nil {
		return g.fillLogical(dst, b, more, ch, slot)
	}
	c := &g.fec.chs[ch]
	for i := 0; i < len(dst); {
		if slot == c.physLen {
			slot = 0
		}
		p := Packet{Ch: uint8(ch), Slot: uint32(slot), Ver: g.version}
		ui, u := c.covering(slot)
		var k int
		switch m := slot - u.physStart; {
		case m >= u.n:
			// The unit's parity tail follows its members.
			k = min(len(dst)-i, u.n+g.fec.code(u.table).Tail()-m)
			b = g.parityRun(dst[i:i+k], b, len(dst)-i-k+more, p, ch, ui, u, m-u.n)
		case u.table:
			k = min(len(dst)-i, u.n-m)
			g.tableRun(dst[i:i+k], p, u.pos, m)
		default:
			k = min(len(dst)-i, u.n-m)
			b = g.objectRun(dst[i:i+k], b, len(dst)-i-k+more, p, u.pos, u.obj, m)
		}
		i += k
		slot += k
	}
	return b
}

// fillLogical is fill in the logical (parity-free) slot domain, slot
// reduced into [0, ChanLen(ch)): what the slots carry is asked of the
// layout once per table and once per object the run touches.
func (g *generation) fillLogical(dst []Packet, b []byte, more, ch, slot int) []byte {
	x := g.lay.X
	cycle := g.lay.ChanLen(ch)
	for i := 0; i < len(dst); {
		if slot == cycle {
			slot = 0
		}
		p := Packet{Ch: uint8(ch), Slot: uint32(slot), Ver: g.version}
		left := min(len(dst)-i, cycle-slot) // a staggered frame may wrap the cycle
		var k int
		if pos, part, ok := g.lay.SlotTable(ch, slot); ok {
			k = min(left, x.TablePackets-part)
			g.tableRun(dst[i:i+k], p, pos, part)
		} else {
			pos, off, _ := g.lay.SlotData(ch, slot)
			part := off % x.ObjPackets
			k = min(left, x.ObjPackets-part)
			b = g.objectRun(dst[i:i+k], b, len(dst)-i-k+more, p, pos, off/x.ObjPackets, part)
		}
		i += k
		slot += k
	}
	return b
}

// packetAt is the packet at a slot already reduced into the cycle, in a
// payload of its own: the run of one into no buffer.
func (g *generation) packetAt(ch, slot int) Packet {
	var p [1]Packet
	g.fill(p[:], nil, 0, ch, slot)
	return p[0]
}

// tableRun fills dst with parts part, part+1, … of position pos's index
// table, framed from p (channel, first slot, version): slices of the
// pre-encoded table, empty past its end.
func (g *generation) tableRun(dst []Packet, p Packet, pos, part int) {
	p.Flags = flagIndex
	tab := g.tables[pos]
	capacity := g.lay.X.Cfg.Capacity
	for j := range dst {
		p.Payload = nil
		if from := (part + j) * capacity; from < len(tab) {
			p.Payload = tab[from:min(from+capacity, len(tab))]
		}
		dst[j] = p
		p.Slot++
	}
}

// objectRun fills dst with parts part, part+1, … of the o-th object of
// the frame at position pos, framed from p, and returns b extended by
// their payloads: one AppendObjectPart call builds the parts' byte range
// of the object — the wire header followed by deterministic filler (a
// real deployment would carry the application payload) — and each
// payload is its packet's slice of it. The bytes go after b's in b's
// capacity; when that is short, into one fresh allocation sized for
// them and for the after slots of the run still to come, none of which
// builds more than slotBytes.
func (g *generation) objectRun(dst []Packet, b []byte, after int, p Packet, pos, o, part int) []byte {
	x := g.lay.X
	first, num := x.FrameObjects(x.PosToFrame(pos))
	if o >= num {
		for j := range dst { // padding slots of a partial last frame
			dst[j] = p
			p.Slot++
		}
		return b
	}
	// ObjPackets is ceil(ObjectBytes/Capacity), so every part starts
	// inside the object.
	capacity, size := x.Cfg.Capacity, x.Cfg.ObjectBytes
	from := part * capacity
	to := min(from+len(dst)*capacity, size)
	if cap(b)-len(b) < to-from {
		b = make([]byte, 0, to-from+after*g.slotBytes)
	}
	at := len(b)
	obj := &x.DS.Objects[first+o]
	b = AppendObjectPart(b, wire.ObjectHeader{X: obj.P.X, Y: obj.P.Y, HC: obj.HC}, obj.ID, size, from, to)
	for j := range dst {
		lo := at + j*capacity
		hi := min(lo+capacity, len(b))
		p.Flags = 0
		if part+j == 0 {
			p.Flags = flagObjectStart
		}
		p.Payload = b[lo:hi:hi]
		dst[j] = p
		p.Slot++
	}
	return b
}

// MultiFrameInfo is what ScanMulti reconstructs per cycle position.
type MultiFrameInfo struct {
	Pos     int
	MinHC   uint64
	Entries []wire.MCEntry      // decoded table pointers
	Headers []wire.ObjectHeader // object headers from the data channel
}

// ScanMulti consumes one cycle of every channel (streams[ch] carries
// channel ch, which must match the layout's channel count) and
// reconstructs the broadcast metadata: every index table (validated
// against the catalog geometry, channel ids included; a single-channel
// layout's classic forward-distance pointers are reported as the
// (channel 0, frame index) pairs they denote) and every object header.
// It fails on any inconsistency between the streams and the layout a
// receiver would know a priori.
func ScanMulti(lay *dsi.Layout, streams []<-chan Packet) ([]MultiFrameInfo, error) {
	framesOn := make([]int, lay.Channels())
	for ch := range framesOn {
		framesOn[ch] = lay.FramesOn(ch)
	}
	return scanMulti(lay, framesOn, streams)
}

// ScanMultiDir is ScanMulti for a receiver that takes the per-channel
// geometry from the broadcast's own channel directory rather than from
// a-priori layout knowledge: the directory is decoded, cross-checked
// against the layout geometry the slot inversions use, and its frame
// counts validate every table pointer. A directory that contradicts
// the streams' actual geometry is rejected.
func ScanMultiDir(lay *dsi.Layout, dir []byte, streams []<-chan Packet) ([]MultiFrameInfo, error) {
	entries, err := wire.DecodeShardDir(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) != lay.Channels() {
		return nil, fmt.Errorf("station: directory describes %d channels, air has %d",
			len(entries), lay.Channels())
	}
	for ch, e := range entries {
		if int(e.CycleSlots) != lay.ChanLen(ch) || int(e.Frames) != lay.FramesOn(ch) {
			return nil, fmt.Errorf("station: directory channel %d geometry (%d frames, %d slots) contradicts the air (%d, %d)",
				ch, e.Frames, e.CycleSlots, lay.FramesOn(ch), lay.ChanLen(ch))
		}
	}
	return scanMulti(lay, wire.FramesOnDir(entries), streams)
}

// scanTable decodes the assembled index table of cycle position pos
// into its pointer view. A classic table's forward distances are
// reported as the (channel, frame index) pairs they denote.
func scanTable(lay *dsi.Layout, framesOn []int, buf []byte, pos int) (uint64, []wire.MCEntry, error) {
	if !wire.ClassicTables(lay) {
		return wire.DecodeTableMC(buf, framesOn)
	}
	tab, err := wire.DecodeTable(buf, pos, lay.X.NF)
	if err != nil {
		return 0, nil, err
	}
	entries := make([]wire.MCEntry, len(tab.Entries))
	for i, e := range tab.Entries {
		ch, idx := lay.DataFrameIndex(e.TargetPos)
		entries[i] = wire.MCEntry{MinHC: e.MinHC, Ch: uint8(ch), Frame: uint16(idx)}
	}
	return tab.OwnHC, entries, nil
}

func scanMulti(lay *dsi.Layout, framesOn []int, streams []<-chan Packet) ([]MultiFrameInfo, error) {
	if len(streams) != lay.Channels() {
		return nil, fmt.Errorf("station: %d streams for %d channels", len(streams), lay.Channels())
	}
	x := lay.X
	frames := make([]MultiFrameInfo, x.NF)
	for pos := range frames {
		frames[pos].Pos = pos
	}

	// Order-independent table assembly: table parts are placed by slot
	// inversion rather than read sequentially, because phase-staggered
	// stripe channels can wrap a frame — table included — across the
	// cycle seam, and shard channels of unequal cycles interleave
	// arbitrarily with the index channel.
	tabSize := wire.LayoutTableSize(lay)
	tabBuf := make([]byte, x.NF*tabSize)
	tabParts := make([]int, x.NF)

	for ch, in := range streams {
		expect := 0
		for p := range in {
			if int(p.Ch) != ch {
				return nil, fmt.Errorf("station: packet for channel %d on channel %d's stream", p.Ch, ch)
			}
			if int(p.Slot) != expect {
				return nil, fmt.Errorf("station: channel %d: slot %d arrived, want %d", ch, p.Slot, expect)
			}
			expect++
			if len(p.Payload) > x.Cfg.Capacity {
				return nil, fmt.Errorf("station: channel %d slot %d: payload %dB exceeds capacity",
					ch, p.Slot, len(p.Payload))
			}

			pos, part, isTable := lay.SlotTable(ch, int(p.Slot))
			switch {
			case isTable && p.Flags&flagIndex == 0:
				return nil, fmt.Errorf("station: channel %d slot %d: table packet not flagged", ch, p.Slot)
			case !isTable && p.Flags&flagIndex != 0:
				return nil, fmt.Errorf("station: channel %d slot %d: unexpected table packet", ch, p.Slot)
			case isTable:
				exp := min(max(tabSize-part*x.Cfg.Capacity, 0), x.Cfg.Capacity)
				if len(p.Payload) != exp {
					return nil, fmt.Errorf("station: position %d: table part %d truncated to %dB, want %dB",
						pos, part, len(p.Payload), exp)
				}
				copy(tabBuf[pos*tabSize+part*x.Cfg.Capacity:], p.Payload)
				tabParts[pos]++
				if tabParts[pos] == x.TablePackets {
					own, entries, err := scanTable(lay, framesOn, tabBuf[pos*tabSize:(pos+1)*tabSize], pos)
					if err != nil {
						return nil, fmt.Errorf("station: position %d: %w", pos, err)
					}
					frames[pos].MinHC = own
					frames[pos].Entries = entries
				}
			case p.Flags&flagObjectStart != 0:
				// Not a table slot, so a data slot: the two tile every channel.
				pos, _, _ := lay.SlotData(ch, int(p.Slot))
				h, err := wire.DecodeHeader(p.Payload)
				if err != nil {
					return nil, fmt.Errorf("station: channel %d slot %d: %w", ch, p.Slot, err)
				}
				frames[pos].Headers = append(frames[pos].Headers, h)
			}
		}
		if expect != lay.ChanLen(ch) {
			return nil, fmt.Errorf("station: channel %d: scanned %d slots, want %d", ch, expect, lay.ChanLen(ch))
		}
	}
	return frames, nil
}
