// Static transmission: the station side of the channel abstraction
// layer. A MultiTransmitter materializes one byte stream per channel of
// a dsi.Layout — index tables in the wire format the layout calls for
// (wire.EncodeLayoutTables), object payloads on their data channels —
// and ScanMulti proves the streams are self-describing by rebuilding
// the complete broadcast metadata from one cycle of every channel.

package station

import (
	"fmt"
	"sync"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/wire"
)

// MultiTransmitter materializes the per-channel byte streams of a DSI
// broadcast under any layout, the single-channel one included. What a
// slot carries is asked of the layout (SlotTable/SlotData) per packet,
// or read from the coded geometry's unit covering the slot: the
// transmitter keeps no per-slot state beyond the encoded tables and,
// when coded, the geometry and the parity payloads.
type MultiTransmitter struct {
	Lay    *dsi.Layout
	tables [][]byte // per cycle position, in the layout's wire format

	// Cached DirectoryAt encoding (version 1, anchored at slot 0).
	dirOnce sync.Once
	dir     []byte

	// Erasure code (NewMultiTransmitterFEC); nil when uncoded.
	fec     *fecGeom
	parity  [][][]byte // per channel, per physical slot; nil for content
	fecDesc []byte

	// met, when set, counts per-channel packets served via PacketAt.
	met *obs.StationMetrics
}

// SetObs installs the station metric bundle (nil counts nothing).
func (t *MultiTransmitter) SetObs(m *obs.StationMetrics) { t.met = m }

// NewMultiTransmitter prepares the table encodings for the layout. It
// refuses a layout whose objects' first packets cannot hold the wire
// header (wire.CheckHeaderFits).
func NewMultiTransmitter(lay *dsi.Layout) (*MultiTransmitter, error) {
	if err := wire.CheckHeaderFits(lay.X.Cfg.Capacity, lay.X.Cfg.ObjectBytes); err != nil {
		return nil, err
	}
	tables, err := wire.EncodeLayoutTables(lay)
	if err != nil {
		return nil, err
	}
	return &MultiTransmitter{Lay: lay, tables: tables}, nil
}

// Directory returns the encoded on-air channel directory of the
// transmitter's layout (split and sharded layouts): the shard/cycle
// catalog a station broadcasts alongside the streams so receivers can
// interpret multi-channel pointers into unequal cycles. ScanMultiDir
// consumes it on the receiver side.
func (t *MultiTransmitter) Directory() ([]byte, error) { return wire.EncodeShardDir(t.Lay) }

// Packet returns the packet broadcast at the given per-channel cycle
// slot of channel ch. On a coded transmitter the slot is physical and
// parity slots carry their encoded parity frames.
func (t *MultiTransmitter) Packet(ch, slot int) Packet {
	return t.packet(nil, ch, slot%t.ChanSlots(ch))
}

// packet is Packet for a slot already reduced into [0, ChanSlots(ch)):
// the exported entry points (Packet, ReadPacketAt,
// Rebroadcaster.ReadPacketAt) each reduce once. The coded path reads
// what the slot carries from the geometry unit covering it rather than
// re-inverting the layout. buf is ReadPacketAt's: only an object part is
// built into it.
func (t *MultiTransmitter) packet(buf []byte, ch, slot int) Packet {
	if t.fec == nil {
		return t.logicalPacket(buf, ch, slot)
	}
	c := &t.fec.chs[ch]
	p := Packet{Ch: uint8(ch), Slot: uint32(slot)}
	m := int(c.member[slot])
	if m < 0 {
		p.Flags, p.Payload = flagParity, t.parity[ch][slot]
		return p
	}
	u := &c.units[c.unitOf[slot]]
	if u.table {
		return t.tablePart(p, u.pos, m)
	}
	return t.objectPart(buf, p, u.pos, u.obj, m)
}

// ChanSlots returns channel ch's cycle length in packet slots —
// physical slots on a coded transmitter.
func (t *MultiTransmitter) ChanSlots(ch int) int {
	if t.fec != nil {
		return t.fec.chs[ch].physLen
	}
	return t.Lay.ChanLen(ch)
}

// logicalPacket returns the content packet at a logical (parity-free)
// slot of channel ch, reduced into [0, ChanLen(ch)).
func (t *MultiTransmitter) logicalPacket(buf []byte, ch, slot int) Packet {
	p := Packet{Ch: uint8(ch), Slot: uint32(slot)}
	if pos, part, ok := t.Lay.SlotTable(ch, slot); ok {
		return t.tablePart(p, pos, part)
	}
	pos, off, _ := t.Lay.SlotData(ch, slot)
	objPackets := t.Lay.X.ObjPackets
	return t.objectPart(buf, p, pos, off/objPackets, off%objPackets)
}

// tablePart completes p as packet `part` of position pos's index table:
// a slice of the pre-encoded table, empty past its end.
func (t *MultiTransmitter) tablePart(p Packet, pos, part int) Packet {
	p.Flags = flagIndex
	tab := t.tables[pos]
	capacity := t.Lay.X.Cfg.Capacity
	if from := part * capacity; from < len(tab) {
		p.Payload = tab[from:min(from+capacity, len(tab))]
	}
	return p
}

// objectPart completes p as packet `part` of the o-th object of the
// frame at position pos. The payload is that packet's byte range of the
// object and nothing more (AppendObjectPart), built into buf's capacity:
// a buffer too short for it — nil above all — is replaced by one
// allocation of exactly the part's size, at most Capacity bytes. The
// bytes are the wire header followed by deterministic filler (a real
// deployment would carry the application payload).
func (t *MultiTransmitter) objectPart(buf []byte, p Packet, pos, o, part int) Packet {
	x := t.Lay.X
	first, num := x.FrameObjects(x.PosToFrame(pos))
	if o >= num {
		return p // padding slot of a partial last frame
	}
	if part == 0 {
		p.Flags = flagObjectStart
	}
	// ObjPackets is ceil(ObjectBytes/Capacity), so every part starts
	// inside the object.
	size := x.Cfg.ObjectBytes
	from := part * x.Cfg.Capacity
	to := min(from+x.Cfg.Capacity, size)
	if n := to - from; cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	obj := &x.DS.Objects[first+o]
	p.Payload = AppendObjectPart(buf[:0],
		wire.ObjectHeader{X: obj.P.X, Y: obj.P.Y, HC: obj.HC}, obj.ID, size, from, to)
	return p
}

// CycleChannel streams one full cycle of channel ch and closes out.
func (t *MultiTransmitter) CycleChannel(ch int, out chan<- Packet) {
	for slot := 0; slot < t.ChanSlots(ch); slot++ {
		out <- t.Packet(ch, slot)
	}
	close(out)
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
