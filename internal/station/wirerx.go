// WireReceiver: the byte-level implementation of dsi.Receiver. Where
// dsi.SimReceiver serves content from the simulator's precomputed
// tables and the dataset, a WireReceiver receives the actual packets a
// station puts on air and decodes their payloads with package wire —
// index tables (classic and multi-channel formats), object headers,
// and the versioned shard directory. Every reception cost is paid
// through the same broadcast.Tuner the simulator uses, so loss applies
// to real bytes: a corrupted or undecodable payload costs its tuning
// packets and yields no knowledge, exactly like a lost packet in the
// simulator — and, unlike the simulator, the shard directory itself
// must cross the lossy air before a client can follow a schedule swap.
//
// Over a static transmitter the wire path is bit-identical to the
// simulator fast path: both read the same slots under the same loss
// process, and a well-formed stream decodes to exactly the precomputed
// content (regression-enforced by the wireloss experiment). The paths
// diverge only where bytes carry information the simulator hands out
// for free: directory swaps cost directory packets, stale or
// mid-transition channels serve payloads the receiver cannot interpret
// yet, and the receiver's clock follows the transmitter's true cycle
// anchors after a seam cutover.

package station

import (
	"fmt"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

// PacketSource is a broadcast station as seen by a byte-level
// receiver: the packet each channel transmits at an absolute slot,
// tagged with the directory version governing it, and the versioned
// shard directory on air. Rebroadcaster implements it directly;
// MultiTransmitter is the static single-version source.
type PacketSource interface {
	// PacketAt returns the packet channel ch transmits at absolute
	// slot abs and the directory version its encoding belongs to.
	//
	// The returned Payload is immutable and the caller's to retain:
	// the source never writes those bytes again, so a receiver may keep
	// them across calls (FECReceiver's group window does) and one
	// source may serve many readers. A content payload is at most
	// Capacity bytes; a parity frame adds wire.ParityHeaderSize. How a
	// source meets this is its own business: MultiTransmitter builds
	// each object packet's bytes fresh and slices pre-encoded tables
	// and parity, netrecv.Feed copies every frame it is offered, and
	// diskstore.ImageSource slices a read-only mapping.
	PacketAt(ch int, abs int64) (Packet, uint32)
	// DirectoryAt returns the versioned shard directory on air at abs
	// (nil when the broadcast ships none, e.g. single-channel layouts).
	DirectoryAt(abs int64) ([]byte, uint32)
}

// PacketAt implements PacketSource: a static transmitter serves one
// schedule forever, anchored at slot 0 as directory version 1.
func (t *MultiTransmitter) PacketAt(ch int, abs int64) (Packet, uint32) {
	t.met.PacketEmitted(ch)
	return t.packet(ch, int(abs%int64(t.ChanSlots(ch)))), 1
}

// FECDescAt implements FECSource: the transmitter's code encoded as
// version 1, nil for an uncoded broadcast.
func (t *MultiTransmitter) FECDescAt(int64) ([]byte, uint32) { return t.fecDesc, 1 }

// DirectoryAt implements PacketSource: the layout's directory encoded
// as version 1 anchored at slot 0, nil for layouts without one (the
// encoding is cached after the first call).
func (t *MultiTransmitter) DirectoryAt(int64) ([]byte, uint32) {
	t.dirOnce.Do(func() {
		if dir, err := wire.EncodeDirV(t.Lay, 1, 0); err == nil {
			t.dir = dir
		}
	})
	return t.dir, 1
}

// WireReceiver implements dsi.Receiver over a PacketSource. It is
// constructed with the layout (and directory version) the client knows
// a priori — its catalog — which may be stale with respect to the
// source: the first navigation steps then pay for receiving the
// current directory over the air before content decodes again.
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

	// Decode scratch. tab is overwritten only by a fully validated
	// table read — the client caches the returned pointer (lastTable)
	// beyond the next call, so a failed read must leave the previous
	// content intact. entryScratch is the build buffer for the next
	// read's entries; it swaps with tab.Entries on success, so the
	// steady state recycles two slices instead of allocating per read.
	tab          dsi.Table
	entryScratch []dsi.TableEntry
	tabBuf       []byte
}

// NewWireReceiver returns a byte-level receiver tuned to the layout's
// start channel at the given absolute slot. lay and version are the
// client's a-priori catalog: the channel layout it believes is on air
// and the directory version that layout corresponds to (1 for a static
// transmitter; one version behind the air models a stale tune-in,
// which converges once the receiver has received the current
// directory — a catalog more than one version stale cannot recover
// the air's cycle anchors and panics at the first Poll).
func NewWireReceiver(lay *dsi.Layout, version uint32, src PacketSource, probeSlot int64, loss *broadcast.LossModel) (*WireReceiver, error) {
	if err := wire.CheckHeaderFits(lay.X.Cfg.Capacity, lay.X.Cfg.ObjectBytes); err != nil {
		return nil, err
	}
	classic := wire.ClassicTables(lay)
	if !classic && lay.Sched != dsi.SchedSplit && lay.Sched != dsi.SchedShard {
		return nil, fmt.Errorf("station: byte-level reception needs a dedicated index channel; %v layouts are unsupported", lay.Sched)
	}
	r := &WireReceiver{
		x:       lay.X,
		lay:     lay,
		tu:      broadcast.NewAirTuner(lay.Air, lay.StartCh, probeSlot, loss),
		src:     src,
		ver:     version,
		classic: classic,
	}
	r.adoptGeometry(lay)
	return r, nil
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

// Layout returns the layout the receiver currently assumes on air.
func (r *WireReceiver) Layout() *dsi.Layout { return r.lay }

// Version returns the shard-directory version the receiver has most
// recently adopted.
func (r *WireReceiver) Version() uint32 { return r.ver }

// Now returns the absolute packet clock.
func (r *WireReceiver) Now() int64 { return r.tu.Now() }

// Pos returns the cycle position on the current channel, relative to
// the channel's adopted phase anchor.
func (r *WireReceiver) Pos() int { return r.tu.Pos() }

// Channel returns the channel the radio is tuned to.
func (r *WireReceiver) Channel() int { return r.tu.Channel() }

// PhaseOf returns the absolute slot at which channel ch's adopted
// cycle has position 0 (the cutover seam after a swap).
func (r *WireReceiver) PhaseOf(ch int) int64 { return r.tu.PhaseOf(ch) }

// Stats returns the metrics accumulated since the last Reset.
func (r *WireReceiver) Stats() broadcast.Stats { return r.tu.Stats() }

// Tune retunes the radio to channel ch.
func (r *WireReceiver) Tune(ch int) { r.tu.Switch(ch) }

// DozeUntilPos sleeps to the next occurrence of the position under the
// current channel's phase anchor.
func (r *WireReceiver) DozeUntilPos(pos int) { r.tu.DozeUntilPos(pos) }

// Next receives one packet at the current slot (the probe: only the
// framing matters, which any version serves).
func (r *WireReceiver) Next() (broadcast.Slot, bool) { return r.tu.Read() }

// read receives the byte payload at the current slot: the source's
// packet plus its governing version, with the tuner charging the cost
// and drawing the loss. ok is false when the packet was corrupted or
// belongs to a directory version the receiver has not adopted (a stale
// or mid-transition channel — undecodable until the catalogs agree).
func (r *WireReceiver) read() (Packet, bool) {
	pkt, pver := r.src.PacketAt(r.tu.Channel(), r.tu.Now())
	_, good := r.tu.Read()
	return pkt, good && pver == r.ver
}

// Table receives and decodes the index table of the frame at cycle
// position pos. All TablePackets packets are consumed (the cost is
// paid) even when an early one is corrupt; ok is false on any loss,
// truncation, or a payload that fails the wire format's validation —
// including pointers whose channel id contradicts the shard catalog.
func (r *WireReceiver) Table(pos int) (*dsi.Table, bool) {
	x := r.x
	buf := r.tabBuf[:0]
	ok := true
	for i := 0; i < x.TablePackets; i++ {
		pkt, good := r.read()
		if !good || pkt.Flags&flagIndex == 0 {
			ok = false
			continue
		}
		buf = append(buf, pkt.Payload...)
	}
	r.tabBuf = buf
	if !ok {
		return nil, false
	}
	return r.decodeTable(buf, pos)
}

// decodeTable parses a fully assembled table payload (the concatenated
// table packets of position pos) and publishes it into the receiver's
// double-buffered scratch. Shared by the plain packet loop above and
// the FEC receiver's recovery path, so a reconstructed table passes
// exactly the validation a cleanly received one does.
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
	own, entries, err := wire.DecodeTableMC(buf, r.framesOn)
	if err != nil {
		return nil, false
	}
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

// Header receives and decodes one object-header packet.
func (r *WireReceiver) Header(pos, o int) (uint64, bool) {
	pkt, good := r.read()
	if !good || pkt.Flags&flagObjectStart == 0 {
		return 0, false
	}
	h, err := wire.DecodeHeader(pkt.Payload)
	if err != nil {
		return 0, false
	}
	return h.HC, true
}

// Object receives the object's remaining packets, reporting whether
// every one arrived intact under the adopted directory version.
func (r *WireReceiver) Object(pos, o, skip int) bool {
	ok := true
	for i := skip; i < r.x.ObjPackets; i++ {
		if _, good := r.read(); !good {
			ok = false
		}
	}
	return ok
}

// Poll checks for a shard-directory version bump and, when one is on
// air, attempts to receive the directory: dirPackets slots of tuning
// with the loss process applied — the directory is subject to exactly
// the link errors everything else is. A lost packet abandons the
// attempt (the next navigation step retries); an intact, valid
// directory is adopted: the receiver re-anchors every channel at its
// cutover seam (computed from its previous geometry plus the announced
// seam slot, the same arithmetic the transmitter uses) and returns the
// new layout for the client to re-seed onto.
func (r *WireReceiver) Poll() (*dsi.Layout, bool) {
	dir, over := r.src.DirectoryAt(r.tu.Now())
	// Only a NEWER version is a bump: a reused receiver re-tuned to a
	// slot before an in-flight swap's seam legitimately sees the older
	// directory still on air there and keeps the catalog it holds.
	if dir == nil || over <= r.ver || r.classic {
		return nil, false
	}
	ok := true
	for i := 0; i < r.dirPackets; i++ {
		if _, good := r.tu.Read(); !good {
			ok = false
		}
	}
	if !ok {
		return nil, false
	}
	ver, seam, entries, err := wire.DecodeDirV(dir)
	if err != nil || len(entries) != r.lay.Channels() || ver <= r.ver {
		return nil, false
	}
	if ver != r.ver+1 {
		// The cutover anchors below are derived from the receiver's own
		// catalog geometry, which is only the geometry the transmitter
		// actually cut over from when exactly one swap separates catalog
		// and air (the Rebroadcaster's one-in-flight-swap discipline).
		// A wider gap means the receiver slept through a whole directory
		// generation; adopting would anchor every channel wrong and wedge
		// all future decodes, so fail loudly instead.
		panic(fmt.Sprintf("station: wire receiver at directory version %d cannot follow version %d; re-tune with a current catalog", r.ver, ver))
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
	// Each channel's new cycle is anchored at its first old-cycle
	// boundary at or after the announced seam.
	phase := make([]int64, r.lay.Channels())
	for ch := range phase {
		l := int64(r.lay.ChanLen(ch))
		ph := r.tu.PhaseOf(ch)
		rel := seam - ph
		k := rel / l
		if rel%l != 0 {
			k++
		}
		phase[ch] = ph + k*l
	}
	r.ver = ver
	r.tu.RetunePhased(lay.Air, phase)
	r.adoptGeometry(lay)
	return lay, true
}

// Follow commits the client's re-seed onto a layout obtained from
// Poll (the receiver adopted it there; the two must stay in lockstep).
func (r *WireReceiver) Follow(lay *dsi.Layout) {
	if lay != r.lay {
		panic("station: wire receiver follows its own directory; Resync targets must come from Poll")
	}
}

// Reset re-tunes the receiver at the given absolute slot with fresh
// metrics. The adopted directory (layout, version, phase anchors) is
// schedule knowledge, not query state: it persists, so a reused
// session keeps decoding the stream it has already synchronized with.
func (r *WireReceiver) Reset(probeSlot int64, loss *broadcast.LossModel) {
	r.tu.Reset(probeSlot, loss)
}

// SetChannelLoss installs a per-channel loss model (validated by
// Layout.CheckLossChannel, like every receiver).
func (r *WireReceiver) SetChannelLoss(ch int, loss *broadcast.LossModel) error {
	if err := r.lay.CheckLossChannel(ch); err != nil {
		return err
	}
	r.tu.SetChannelLoss(ch, loss)
	return nil
}
