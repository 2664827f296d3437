// WireReceiver: the byte-level implementation of dsi.Receiver. Where
// dsi.SimReceiver computes content from the index and the dataset, a
// WireReceiver receives the actual packets a station puts on air and
// decodes their payloads with package wire — index tables (classic and
// multi-channel formats), object headers, and the versioned shard
// directory. Every reception cost is paid
// through the same broadcast.Tuner the simulator uses, so loss applies
// to real bytes: a corrupted or undecodable payload costs its tuning
// packets and yields no knowledge, exactly like a lost packet in the
// simulator — and, unlike the simulator, the shard directory itself
// must cross the lossy air before a client can follow a schedule swap.
//
// Whether the stream carries parity is a property of the stream, not
// of the receiver's type: the uncoded stream is the zero code. Over a
// coded stream the tuner runs on the physical (parity-bearing) air and
// the receiver presents the client a logical facade — Pos and
// DozeUntilPos speak logical cycle positions (parity slots map forward
// to the next content slot), while Now, PhaseOf and Stats stay
// physical, because parity slots are real air time. Over an uncoded
// stream the two domains coincide and no slot map exists. A directory
// swap announces the code of the generation it starts, and the
// receiver follows it in either direction (Poll). The recovery half —
// units, the group window, parity tails, the erasure solve — is in
// fecrx.go.
//
// Over a static uncoded transmitter the wire path is bit-identical to
// the simulator fast path: both read the same slots under the same
// loss process, and a well-formed stream decodes to exactly the
// content the simulator computes (regression-enforced by the wireloss
// experiment). The paths diverge only where bytes carry information
// the simulator hands out for free: directory swaps cost directory
// packets, stale or mid-transition channels serve payloads the
// receiver cannot interpret yet, and the receiver's clock follows the
// transmitter's true cycle anchors after a seam cutover.

package station

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// PacketSource is a broadcast station as seen by a byte-level
// receiver: the packets each channel transmits at absolute slots, each
// tagged with the directory version governing it, and the versioned
// shard directory and FEC descriptor on air. MultiTransmitter is the
// producer; diskstore.ImageSource and netrecv.Feed serve the same
// bytes from a file and from the network.
type PacketSource interface {
	// ReadRunAt fills dst[i] with the packet channel ch transmits at
	// absolute slot abs+i, its Ver the directory version its encoding
	// belongs to, using buf — the reader's, and possibly nil — for any
	// payload bytes the source has to produce for this run. A receiver
	// reads a whole unit this way: an index table, an object, a parity
	// tail are consecutive slots of one channel.
	//
	// A slot the source cannot carry — a channel it does not have, a
	// slot before 0 — and a slot lost on the way to the source
	// (netrecv.Feed) is the zero packet: Ver 0, which no receiver ever
	// adopts.
	//
	// Who owns the payloads, and for how long: bytes a source must build
	// (MultiTransmitter index tables, object parts and parity frames) or
	// copy out of storage it will overwrite (netrecv.Feed's ring) go into
	// buf[:0]'s capacity, one payload after another, and when the
	// capacity runs short into one fresh allocation sized for the rest of
	// the run — nothing is ever written past cap(buf). Such payloads are
	// valid until the reader next reuses any of buf's capacity. Bytes a
	// source already holds immutable (diskstore.ImageSource's read-only
	// mapping) are returned as they are and never written again: a
	// payload need not alias buf, and a reader must not assume it does.
	// Either way the reader must not write through a payload. A content
	// payload is at most Capacity bytes; a parity frame adds
	// wire.ParityHeaderSize — so a buffer of that much per slot always
	// suffices.
	//
	// The source keeps no per-reader state and nothing of dst or buf:
	// one source serves many readers concurrently, each with buffers of
	// its own.
	ReadRunAt(dst []Packet, buf []byte, ch int, abs int64)
	// PacketAt is the run of one slot into no buffer, returning the
	// packet and its Ver: every payload is then immutable and the
	// caller's to retain for as long as it likes.
	PacketAt(ch int, abs int64) (Packet, uint32)
	// DirectoryAt returns the versioned shard directory on air at abs
	// (nil when the broadcast ships none, e.g. single-channel layouts).
	DirectoryAt(abs int64) ([]byte, uint32)
	FECSource
}

// FECSource is the descriptor half of a PacketSource: the versioned FEC
// descriptor on air at an absolute slot, nil when the broadcast ships
// none — which is how an uncoded station announces the zero code. The
// descriptor version mirrors the shard directory's, so a receiver
// adopting a directory bump can check the code metadata crossing the
// seam with it.
type FECSource interface {
	FECDescAt(abs int64) ([]byte, uint32)
}

// WireReceiver implements dsi.Receiver over a PacketSource. It is
// constructed with the layout, directory version and code the client
// knows a priori — its catalog — which may be one version stale with
// respect to the source: the first navigation steps then pay for
// receiving the current directory over the air before content decodes
// again.
//
// Supported layouts: the single channel (classic tables,
// wire.DecodeTable) and the index/data split and sharded multi-channel
// layouts (wire.DecodeTableMC plus the shard directory); which format a
// layout's tables use is wire.ClassicTables' call, not the receiver's.
// Stripe layouts have no dedicated index channel and no directory; they
// are rejected.
type WireReceiver struct {
	x   *dsi.Index
	lay *dsi.Layout
	tu  *broadcast.Tuner
	src PacketSource

	ver        uint32
	classic    bool // wire.ClassicTables(lay): no channel ids, no directory
	dirPackets int
	framesOn   []int
	startPos   []int    // per data channel: first cycle position carried
	spanLo     []uint64 // per channel: HC span low bound (shard layouts)
	spanHi     []uint64

	// The code on air, and what follows from it. air is what the tuner
	// runs on: the layout's own air for the zero code, the parity-bearing
	// physical air otherwise. geo is the frame shape a coded stream's
	// logical/physical slot maps are computed from, shared read-only
	// with every holder of the same layout and code (sharedFECGeom), and
	// is nil for an uncoded one, whose two domains coincide — an uncoded
	// receiver carries no per-slot state.
	cfg         wire.FECConfig
	geo         *fecGeom
	air         *broadcast.Air
	descPackets int

	// Decode scratch. tab is overwritten only by a fully validated
	// table read — the client caches the returned pointer (lastTable)
	// beyond the next call, so a failed read must leave the previous
	// content intact. entryScratch is the build buffer for the next
	// read's entries; it swaps with tab.Entries on success, so the
	// steady state recycles two slices instead of allocating per read.
	// mcScratch holds a multi-channel table's on-air entries while they
	// are mapped to positions.
	tab          dsi.Table
	entryScratch []dsi.TableEntry
	mcScratch    []wire.MCEntry
	tabBuf       []byte

	// scratch is what the source reads into: one region per member and
	// per parity-tail slot of the largest unit on air, because a unit's
	// reads are live together (a solve takes all of them at once); a run
	// of reads from..to is handed regions from..to. run holds the
	// packets of those reads, one per region. Both are allocated by the
	// first read and dropped when a swap changes the code. Nothing that
	// outlives the unit may alias them: the group window and the unit
	// cache copy what they keep.
	scratch []byte
	run     []Packet

	// Recovery state (fecrx.go); idle on an uncoded stream.
	win     groupWindow
	payBuf  [][]byte  // member scratch
	tailBuf [][]byte  // parity-tail scratch
	solve   fecSolver // erasure-solve scratch

	// cache keeps recently recovered units across queries (feccache.go):
	// Table re-reads of a unit that cost a recovery decode from it with
	// zero air slots. Survives Reset; dropped on schedule adoption.
	cache fecCache

	recovered int // packets reconstructed from parity since construction
	cacheHits int // table reads served from the recovered-unit cache

	met *obs.FECMetrics // optional coding-event counters; nil when unobserved
}

// NewWireReceiver is NewFECReceiver for an uncoded stream: the zero
// code.
func NewWireReceiver(lay *dsi.Layout, version uint32, src PacketSource, probeSlot int64, loss *broadcast.LossModel) (*WireReceiver, error) {
	return NewFECReceiver(lay, version, src, wire.FECConfig{}, probeSlot, loss)
}

// NewFECReceiver returns a byte-level receiver tuned to the layout's
// start channel at the given absolute slot of the stream as
// transmitted (physical slots when it carries parity). lay, version
// and cfg are the client's a-priori catalog: the channel layout it
// believes is on air, the directory version that layout corresponds to
// (1 for a static transmitter; one version behind the air models a
// stale tune-in, which converges once the receiver has received the
// current directory — a catalog more than one version stale cannot
// recover the air's cycle anchors and panics at the first Poll), and
// the code the source transmits, checked against the source's FEC
// descriptor: a source that ships none transmits the zero code.
func NewFECReceiver(lay *dsi.Layout, version uint32, src PacketSource, cfg wire.FECConfig, probeSlot int64, loss *broadcast.LossModel) (*WireReceiver, error) {
	if err := wire.CheckHeaderFits(lay.X.Cfg.Capacity, lay.X.Cfg.ObjectBytes); err != nil {
		return nil, err
	}
	if n := max(lay.X.TablePackets, lay.X.ObjPackets); n > 64 {
		return nil, fmt.Errorf("station: %d-packet units exceed the receiver's 64-slot reads", n)
	}
	classic := wire.ClassicTables(lay)
	if !classic && lay.Sched != dsi.SchedSplit && lay.Sched != dsi.SchedShard {
		return nil, fmt.Errorf("station: byte-level reception needs a dedicated index channel; %v layouts are unsupported", lay.Sched)
	}
	geo, air, err := streamGeom(lay, cfg)
	if err != nil {
		return nil, err
	}
	r := &WireReceiver{
		x:           lay.X,
		lay:         lay,
		tu:          broadcast.NewTuner(air, lay.StartCh, probeSlot, loss),
		src:         src,
		ver:         version,
		classic:     classic,
		cfg:         cfg,
		geo:         geo,
		air:         air,
		descPackets: broadcast.PacketsFor(wire.FECDescSize, lay.X.Cfg.Capacity),
	}
	r.win.unit = -1
	var got wire.FECConfig
	if desc, _ := src.FECDescAt(probeSlot); desc != nil {
		if got, _, err = wire.DecodeFECDesc(desc); err != nil {
			return nil, fmt.Errorf("station: source FEC descriptor: %w", err)
		}
	}
	if got != cfg {
		return nil, fmt.Errorf("station: source transmits code %+v, receiver configured for %+v", got, cfg)
	}
	r.adoptGeometry(lay)
	return r, nil
}

// streamGeom returns what a receiver of lay under code cfg runs on:
// the coded geometry (nil for the zero code, which has no parity to
// map around) and the air its tuner steps through.
func streamGeom(lay *dsi.Layout, cfg wire.FECConfig) (*fecGeom, *broadcast.Air, error) {
	if !cfg.Enabled() {
		return nil, lay.Air, nil
	}
	geo, err := sharedFECGeom(lay, cfg)
	if err != nil {
		return nil, nil, err
	}
	return geo, geo.air, nil
}

// adoptGeometry recomputes the per-channel decode tables for a layout.
func (r *WireReceiver) adoptGeometry(lay *dsi.Layout) {
	r.lay = lay
	n := lay.Channels()
	r.dirPackets = broadcast.PacketsFor(wire.DirVSize(n), r.x.Cfg.Capacity)
	if r.classic {
		return
	}
	if r.framesOn == nil {
		r.framesOn = make([]int, n)
		r.startPos = make([]int, n)
		r.spanLo = make([]uint64, n)
		r.spanHi = make([]uint64, n)
	}
	bounds := lay.ShardBounds()
	for ch := 0; ch < n; ch++ {
		r.framesOn[ch] = lay.FramesOn(ch)
		r.startPos[ch] = -1
		r.spanLo[ch], r.spanHi[ch] = 0, r.x.DS.Curve.Size()
		if ch == lay.StartCh {
			continue
		}
		pos, _, ok := lay.SlotData(ch, 0)
		if ok {
			r.startPos[ch] = pos
		}
		if bounds != nil {
			// Shard channels carry one contiguous HC span; its split
			// values are catalog knowledge (they ride the directory), so
			// the receiver can sanity-check table pointers against them.
			r.spanLo[ch] = r.x.MinHC(bounds[ch-1])
			if ch < n-1 {
				r.spanHi[ch] = r.x.MinHC(bounds[ch])
			}
		}
	}
}

// SetObs installs the FEC counter bundle; nil disables counting. Not
// safe to call concurrently with reception.
func (r *WireReceiver) SetObs(m *obs.FECMetrics) { r.met = m }

// CycleSlots returns the slots of one full broadcast cycle across all
// channels as transmitted, parity included — what probe positions
// scale against (Layout.ProbeCycle for the zero code).
func (r *WireReceiver) CycleSlots() int {
	total := 0
	for ch := range r.air.Channels {
		total += r.cycleLen(ch)
	}
	return total
}

// Layout returns the layout the receiver currently assumes on air.
func (r *WireReceiver) Layout() *dsi.Layout { return r.lay }

// Version returns the shard-directory version the receiver has most
// recently adopted.
func (r *WireReceiver) Version() uint32 { return r.ver }

// Now returns the absolute packet clock (physical slots).
func (r *WireReceiver) Now() int64 { return r.tu.Now() }

// cycleLen returns the slots of one cycle of channel ch as transmitted,
// parity included.
func (r *WireReceiver) cycleLen(ch int) int { return r.air.Channels[ch].Len() }

// physOf maps a logical slot of channel ch to the physical slot that
// carries it.
func (r *WireReceiver) physOf(ch, log int) int {
	if r.geo == nil {
		return log
	}
	return r.geo.chs[ch].physSlot(log)
}

// Pos returns the logical cycle position on the current channel,
// relative to the channel's adopted phase anchor; a radio sitting on a
// parity slot reports the next content position.
func (r *WireReceiver) Pos() int {
	if r.geo == nil {
		return r.tu.Pos()
	}
	return r.geo.chs[r.tu.Channel()].logSlot(r.tu.Pos())
}

// Channel returns the channel the radio is tuned to.
func (r *WireReceiver) Channel() int { return r.tu.Channel() }

// PhaseOf returns the absolute slot at which channel ch's adopted
// cycle has position 0 (the cutover seam after a swap).
func (r *WireReceiver) PhaseOf(ch int) int64 { return r.tu.PhaseOf(ch) }

// Stats returns the metrics accumulated since the last Reset.
func (r *WireReceiver) Stats() broadcast.Stats { return r.tu.Stats() }

// Tune retunes the radio to channel ch.
func (r *WireReceiver) Tune(ch int) { r.tu.Switch(ch) }

// DozeUntilPos sleeps to the next occurrence of the logical position
// under the current channel's phase anchor, dozing past any parity in
// between.
func (r *WireReceiver) DozeUntilPos(pos int) {
	r.tu.DozeUntilPos(r.physOf(r.tu.Channel(), pos))
}

// Next receives one packet at the current slot (the probe: only the
// framing matters, which any version serves).
func (r *WireReceiver) Next() (broadcast.Slot, bool) { return r.tu.Read() }

// readRun receives reads from..to-1 of the unit in hand — members, or
// parity-tail slots from u.n on — starting at the current slot: one
// source run for their packets and one tuner batch for the cost and the
// loss draws. Bit i of the returned mask is set when read from+i is
// good: it arrived intact and belongs to the directory version the
// receiver has adopted (a stale or mid-transition channel is
// undecodable until the catalogs agree). The payloads lie in regions
// from..to of the scratch: valid until a later run reuses one of them.
// A run is at most 64 reads.
func (r *WireReceiver) readRun(from, to int) ([]Packet, uint64) {
	stride := r.x.Cfg.Capacity + wire.ParityHeaderSize
	if r.scratch == nil {
		reads := max(r.x.TablePackets+r.cfg.Table.Tail(), r.x.ObjPackets+r.cfg.Object.Tail())
		r.scratch = make([]byte, reads*stride)
		r.run = make([]Packet, reads)
	}
	pkts := r.run[from:to]
	// Each region's capacity is one parity frame — the longest payload
	// on air — and the run's is its regions' and not a byte of the next
	// one's: a longer payload, which only a misbehaving source sends,
	// moves to storage of its own instead of spilling over.
	r.src.ReadRunAt(pkts, r.scratch[from*stride:from*stride:to*stride], r.tu.Channel(), r.tu.Now())
	mask := r.tu.ReadMask(to - from)
	for i := range pkts {
		if pkts[i].Ver != r.ver {
			mask &^= 1 << uint(i)
		}
	}
	return pkts, mask
}

// Table receives — and over a coded stream, if necessary reconstructs
// — the index table of the frame at cycle position pos. All
// TablePackets packets are consumed (the cost is paid) even when an
// early one is corrupt. Any loss or truncation continues into the
// unit's parity tail and solves the erasures; ok is false when the
// stream carries no table parity, when the losses exceed the code
// distance, or when the assembled payload fails the wire format's
// validation — including pointers whose channel id contradicts the
// shard catalog.
func (r *WireReceiver) Table(pos int) (*dsi.Table, bool) {
	u, ch := r.tableUnit(pos)
	n := u.n
	base := r.tu.Now()
	pay := r.cache.lookup(ch, u.physStart, r.ver, base, r.cycleLen(ch))
	if pay != nil {
		// The whole unit was recovered at an earlier occurrence: decode
		// from the cache with zero air slots — the radio stays dozing.
		r.cacheHits++
		if r.met != nil {
			r.met.CacheHits.Inc()
		}
	} else {
		pay = r.members(n)
		pkts, okm := r.readRun(0, n)
		for i := range pkts {
			if pkts[i].Flags&flagIndex == 0 {
				okm &^= 1 << uint(i)
			} else if okm&(1<<uint(i)) != 0 {
				pay[i] = pkts[i].Payload
			}
		}
		if okm != allMask(n) {
			if _, ok := r.repair(&u, r.cfg.Table, pay, okm, allMask(n)); !ok {
				return nil, false
			}
			// Only recovered units are cached: a cleanly received unit
			// re-airs every cycle for free, so the error-free cost model
			// stays exactly the simulator's.
			r.cache.store(ch, u.physStart, r.ver, base, pay)
		}
	}
	buf := r.tabBuf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, pay[i]...)
	}
	r.tabBuf = buf
	return r.decodeTable(buf, pos)
}

// decodeTable parses a fully assembled table payload (the concatenated
// table packets of position pos) and publishes it into the receiver's
// double-buffered scratch, so a reconstructed table passes exactly the
// validation a cleanly received one does.
func (r *WireReceiver) decodeTable(buf []byte, pos int) (*dsi.Table, bool) {
	x := r.x
	if r.classic {
		t, err := wire.DecodeTableAppend(buf, pos, x.NF, r.entryScratch[:0])
		if err != nil {
			return nil, false
		}
		r.entryScratch = r.tab.Entries
		r.tab = t
		return &r.tab, true
	}
	own, entries, err := wire.DecodeTableMCAppend(buf, r.framesOn, r.mcScratch[:0])
	if err != nil {
		return nil, false
	}
	r.mcScratch = entries
	mapped := r.entryScratch[:0]
	for _, e := range entries {
		ch := int(e.Ch)
		if r.startPos[ch] < 0 {
			return nil, false // data pointer aimed at the index channel
		}
		tp := r.startPos[ch] + int(e.Frame)
		if tp >= x.NF {
			return nil, false
		}
		if e.MinHC < r.spanLo[ch] || e.MinHC >= r.spanHi[ch] {
			// The entry's HC value lies outside the HC span its channel
			// id claims to carry: a mislabelled pointer. Absorbing it
			// would poison the knowledge base with a false frame fact,
			// so the whole table is treated as corrupt.
			return nil, false
		}
		mapped = append(mapped, dsi.TableEntry{TargetPos: tp, MinHC: e.MinHC})
	}
	// Commit: the previously published entries become the next build
	// buffer (nothing references them once tab is overwritten).
	r.entryScratch = r.tab.Entries
	r.tab = dsi.Table{Pos: pos, OwnHC: own, Entries: mapped}
	return &r.tab, true
}

// Header receives the header packet of the o-th object of the frame at
// position pos. Over a stream with object parity a lost header
// triggers whole-unit recovery: the receiver reads the unit's
// remaining members and its parity tail, reconstructs the first packet
// (and with it the whole object, which the group window keeps for the
// Object call that typically follows), and decodes the header from the
// recovered bytes.
func (r *WireReceiver) Header(pos, o int) (uint64, bool) {
	base := r.tu.Now()
	u, ch := r.dataUnit(pos, o)
	if r.windowHit(ch, &u, base) && r.win.ok&1 != 0 {
		// The window already holds this occurrence's first packet
		// (reconstructed or received earlier): claim it without
		// receiving — the radio stays dozing.
		h, err := wire.DecodeHeader(r.win.pay[0])
		if err != nil {
			return 0, false
		}
		r.win.abs = base
		return h.HC, true
	}
	pkts, good := r.readRun(0, 1)
	if pkt := pkts[0]; good != 0 {
		// Received bytes are final: an unflagged slot (padding) or an
		// undecodable payload is not recoverable loss.
		if pkt.Flags&flagObjectStart == 0 {
			return 0, false
		}
		h, err := wire.DecodeHeader(pkt.Payload)
		if err != nil {
			return 0, false
		}
		if r.cfg.Enabled() {
			pay := r.members(u.n)
			pay[0] = pkt.Payload
			r.setWindow(ch, &u, base, pay, 1)
		}
		return h.HC, true
	}
	if !r.cfg.Object.Enabled() {
		return 0, false
	}
	if r.expLen(&u, 0) < wire.HeaderSize {
		return 0, false // padding object: there is no header to recover
	}
	n := u.n
	pay := r.members(n)
	pkts, got := r.readRun(1, n)
	okm := got << 1
	for i := range pkts {
		if got&(1<<uint(i)) != 0 {
			pay[1+i] = pkts[i].Payload
		}
	}
	if r.windowHit(ch, &u, base) {
		// Members buffered at an earlier occurrence fill in for fresh
		// losses before the code has to.
		for i := 0; i < n; i++ {
			if okm&(1<<uint(i)) == 0 && r.win.ok&(1<<uint(i)) != 0 {
				pay[i] = r.win.pay[i]
				okm |= 1 << uint(i)
			}
		}
	}
	okm, ok := r.repair(&u, r.cfg.Object, pay, okm, allMask(n))
	r.setWindow(ch, &u, base, pay, okm)
	if !ok {
		return 0, false
	}
	h, err := wire.DecodeHeader(pay[0])
	if err != nil {
		return 0, false
	}
	return h.HC, true
}

// Object receives the remaining packets of the o-th object of the
// frame at position pos, reporting whether every one is in hand under
// the adopted directory version. Members the group window already
// holds for this unit — received or reconstructed at an earlier
// occurrence — are claimed without re-reading; fresh losses continue
// into the parity tail. Losses beyond the code distance report
// failure, and the client falls back to the rebroadcast-wait retry.
func (r *WireReceiver) Object(pos, o, skip int) bool {
	u, ch := r.dataUnit(pos, o)
	n := u.n
	base := r.tu.Now() - int64(skip)
	wanted := allMask(n) &^ allMask(skip)
	hit := r.windowHit(ch, &u, base)
	if hit && r.win.ok&wanted == wanted {
		return true // every needed member already received and kept
	}
	pay := r.members(n)
	okm := uint64(0)
	if hit {
		for i := 0; i < skip && i < n; i++ {
			if r.win.ok&(1<<uint(i)) != 0 {
				pay[i] = r.win.pay[i]
				okm |= 1 << uint(i)
			}
		}
	}
	lost := uint64(0)
	pkts, got := r.readRun(skip, n)
	for j := range pkts {
		i := skip + j
		switch {
		case got&(1<<uint(j)) != 0:
			pay[i] = pkts[j].Payload
			okm |= 1 << uint(i)
		case hit && r.win.ok&(1<<uint(i)) != 0:
			// Lost on air but buffered from an earlier occurrence of
			// this unit: the windowed copy stands in for the loss.
			pay[i] = r.win.pay[i]
			okm |= 1 << uint(i)
		default:
			lost |= 1 << uint(i)
		}
	}
	if lost == 0 {
		return true
	}
	okm, ok := r.repair(&u, r.cfg.Object, pay, okm, lost)
	if !ok {
		return false
	}
	r.setWindow(ch, &u, base, pay, okm)
	return true
}

// Poll checks for a shard-directory version bump and, when one is on
// air, attempts to receive the directory — and, when either side of the
// swap is coded, the FEC descriptor that crosses the air with it:
// dirPackets (+ descPackets) slots of tuning with the loss process
// applied, the directory being subject to exactly the link errors
// everything else is. A lost packet abandons the attempt (the next
// navigation step retries); an intact, valid directory is adopted: the
// receiver re-anchors every channel at its cutover seam (computed from
// its previous geometry plus the announced seam slot, the same
// arithmetic the transmitter uses) and returns the new layout for the
// client to re-seed onto.
func (r *WireReceiver) Poll() (*dsi.Layout, bool) {
	now := r.tu.Now()
	dir, over := r.src.DirectoryAt(now)
	// Only a NEWER version is a bump: a reused receiver re-tuned to a
	// slot before an in-flight swap's seam legitimately sees the older
	// directory still on air there and keeps the catalog it holds.
	if dir == nil || over <= r.ver || r.classic {
		return nil, false
	}
	ver, seam, entries, err := wire.DecodeDirV(dir)
	dirOK := err == nil && len(entries) == r.lay.Channels() && ver > r.ver
	var cfg wire.FECConfig
	descOK := true
	if desc, dver := r.src.FECDescAt(now); desc != nil {
		var fver uint32
		cfg, fver, err = wire.DecodeFECDesc(desc)
		descOK = err == nil && fver == ver && dver == over
	}
	// The descriptor's packets are received with the directory's when
	// either side of the swap is coded; an uncoded broadcast staying
	// uncoded has only the directory to receive.
	n := r.dirPackets
	if r.cfg.Enabled() || cfg.Enabled() {
		n += r.descPackets
	}
	if !r.tu.ReadN(n) || !dirOK {
		return nil, false
	}
	if ver != r.ver+1 {
		// The cutover anchors below are derived from the receiver's own
		// catalog geometry, which is only the geometry the transmitter
		// actually cut over from when exactly one swap separates catalog
		// and air (the producer's one-in-flight-swap discipline).
		// A wider gap means the receiver slept through a whole directory
		// generation; adopting would anchor every channel wrong and wedge
		// all future decodes, so fail loudly instead.
		panic(fmt.Sprintf("station: wire receiver at directory version %d cannot follow version %d; re-tune with a current catalog", r.ver, ver))
	}
	if !descOK {
		return nil, false // descriptor not (yet) consistent with the directory
	}
	lay, err := dsi.NewLayout(r.x, dsi.MultiConfig{
		Channels:    r.lay.Channels(),
		Scheduler:   dsi.SchedShard,
		SwitchSlots: r.lay.Cfg.SwitchSlots,
		ShardBounds: wire.BoundsFromDir(entries),
	})
	if err != nil {
		return nil, false
	}
	// The descriptor is authoritative: a swap may change the code along
	// with the directory (an adaptive station retuning its rate, or
	// turning coding on or off), so the new geometry is built under the
	// decoded cfg.
	geo, air, err := streamGeom(lay, cfg)
	if err != nil {
		return nil, false
	}
	// Each channel's new cycle is anchored at its first old-cycle
	// boundary at or after the announced seam — old physical lengths,
	// matching the transmitter's seam arithmetic.
	phase := make([]int64, r.lay.Channels())
	for ch := range phase {
		l := int64(r.cycleLen(ch))
		ph := r.tu.PhaseOf(ch)
		rel := seam - ph
		k := rel / l
		if rel%l != 0 {
			k++
		}
		phase[ch] = ph + k*l
	}
	r.ver = ver
	r.tu.RetunePhased(air, phase)
	r.adoptGeometry(lay)
	if cfg != r.cfg {
		r.cfg = cfg
		r.scratch, r.run = nil, nil // sized to the old code's tails
		if r.met != nil {
			r.met.CodeSwaps.Inc()
		}
	}
	r.geo, r.air = geo, air
	// The group window and the recovered-unit cache are keyed to the old
	// unit geometry.
	r.win.unit = -1
	r.cache.drop()
	return lay, true
}

// Follow commits the client's re-seed onto a layout obtained from
// Poll (the receiver adopted it there; the two must stay in lockstep).
func (r *WireReceiver) Follow(lay *dsi.Layout) {
	if lay != r.lay {
		panic("station: wire receiver follows its own directory; Resync targets must come from Poll")
	}
	r.cache.drop()
}

// Reset re-tunes the receiver at the given absolute slot with fresh
// metrics, dropping the group window (its occurrence anchors are
// meaningless after a re-tune). The adopted directory (layout,
// version, code, phase anchors) is schedule knowledge, not query
// state: it persists, so a reused session keeps decoding the stream it
// has already synchronized with.
func (r *WireReceiver) Reset(probeSlot int64, loss *broadcast.LossModel) {
	r.tu.Reset(probeSlot, loss)
	r.win.unit = -1
}
