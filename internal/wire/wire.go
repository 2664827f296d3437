// Package wire defines the on-air binary formats for DSI broadcast
// content: index tables and data-object headers. The simulator proper
// accounts costs by size without materializing bytes (packets carry
// structured metadata), but the encodings here prove that the sizes the
// accounting uses — 16-byte HC values and coordinates, 2-byte pointers
// (paper section 4) — actually carry the structures the algorithms
// need, and they are what a real broadcast server/receiver pair built
// on this library would put on air.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dsi/internal/broadcast"
	"dsi/internal/dsi"
)

// HC values and coordinates occupy 16 bytes on air (the paper sizes a
// two-dimensional coordinate as two 8-byte floats and gives the HC
// value "the same total size"). Our HC values fit in 8 bytes; the
// encoding zero-pads to the paper's width so byte accounting matches.
const (
	hcBytes  = broadcast.HCBytes
	ptrBytes = broadcast.PtrBytes
)

// putHC writes a Hilbert-curve value in the paper's 16-byte width.
func putHC(b []byte, v uint64) {
	binary.BigEndian.PutUint64(b[:8], 0)
	binary.BigEndian.PutUint64(b[8:16], v)
}

// getHC reads a 16-byte Hilbert-curve value.
func getHC(b []byte) uint64 { return binary.BigEndian.Uint64(b[8:16]) }

// EncodeTable serializes a DSI index table: the frame's own minimum HC
// value followed by one (HC value, pointer) entry per table entry. The
// pointer is the forward distance in frames, which fits the paper's
// 2 bytes for any cycle up to 65,536 frames.
func EncodeTable(t dsi.Table, nf int) ([]byte, error) {
	buf := make([]byte, hcBytes+len(t.Entries)*(hcBytes+ptrBytes))
	putHC(buf[0:], t.OwnHC)
	at := hcBytes
	for i, e := range t.Entries {
		dist := e.TargetPos - t.Pos
		if dist <= 0 {
			dist += nf
		}
		if dist > 0xffff {
			return nil, fmt.Errorf("wire: entry %d distance %d exceeds the 2-byte pointer", i, dist)
		}
		putHC(buf[at:], e.MinHC)
		binary.BigEndian.PutUint16(buf[at+hcBytes:], uint16(dist))
		at += hcBytes + ptrBytes
	}
	return buf, nil
}

// DecodeTable parses an index table received at cycle position pos.
func DecodeTable(buf []byte, pos, nf int) (dsi.Table, error) {
	return DecodeTableAppend(buf, pos, nf, nil)
}

// DecodeTableAppend is DecodeTable appending the decoded entries into
// dst (which may be nil or a recycled buffer), so a receiver decoding
// tables on its hot path can reuse one entry buffer instead of
// allocating per read.
func DecodeTableAppend(buf []byte, pos, nf int, dst []dsi.TableEntry) (dsi.Table, error) {
	if len(buf) < hcBytes || (len(buf)-hcBytes)%(hcBytes+ptrBytes) != 0 {
		return dsi.Table{}, fmt.Errorf("wire: table payload of %d bytes is malformed", len(buf))
	}
	t := dsi.Table{Pos: pos, OwnHC: getHC(buf), Entries: dst}
	for at := hcBytes; at < len(buf); at += hcBytes + ptrBytes {
		dist := int(binary.BigEndian.Uint16(buf[at+hcBytes:]))
		if dist == 0 || dist > nf {
			return dsi.Table{}, fmt.Errorf("wire: pointer distance %d outside (0,%d]", dist, nf)
		}
		t.Entries = append(t.Entries, dsi.TableEntry{
			TargetPos: (pos + dist) % nf,
			MinHC:     getHC(buf[at:]),
		})
	}
	return t, nil
}

// TableSize returns the encoded size of a table with e entries; it must
// agree with (*dsi.Index).TableBytes, which the frame sizing uses.
func TableSize(e int) int { return hcBytes + e*(hcBytes+ptrBytes) }

// ObjectHeader is the leading bytes of every data object on air: the
// object's coordinate (which doubles as its HC value under the 1-1
// mapping) so that a client scanning a frame can identify objects from
// their first packet — the basis of DSI's in-frame selectivity and its
// loss-recovery fallback.
type ObjectHeader struct {
	X, Y uint32
	HC   uint64
}

// HeaderSize is the encoded size of an object header: a 16-byte
// coordinate pair plus the 16-byte HC value.
const HeaderSize = broadcast.CoordBytes + broadcast.HCBytes

// CheckHeaderFits reports whether a byte-level path can identify the
// objects of a broadcast with these packet and object sizes: a receiver
// decodes the header from an object's first packet alone, so that
// packet — min(capacity, objectBytes) bytes — must hold all of it. The
// simulator accepts smaller sizes (it never decodes a header); every
// producer or consumer of real bytes must refuse them, or each header
// read fails forever and a query never returns.
func CheckHeaderFits(capacity, objectBytes int) error {
	if objectBytes < HeaderSize {
		return fmt.Errorf("wire: a %d-byte object cannot carry its %d-byte header", objectBytes, HeaderSize)
	}
	if capacity < HeaderSize {
		return fmt.Errorf("wire: a %d-byte packet cannot carry the %d-byte object header", capacity, HeaderSize)
	}
	return nil
}

// PutHeader serializes an object header into dst[:HeaderSize] without
// allocating.
func PutHeader(dst []byte, h ObjectHeader) {
	_ = dst[HeaderSize-1]
	binary.BigEndian.PutUint64(dst[0:8], uint64(h.X))
	binary.BigEndian.PutUint64(dst[8:16], uint64(h.Y))
	putHC(dst[16:], h.HC)
}

// EncodeHeader serializes an object header into a fresh slice.
func EncodeHeader(h ObjectHeader) []byte {
	buf := make([]byte, HeaderSize)
	PutHeader(buf, h)
	return buf
}

// DecodeHeader parses an object header.
func DecodeHeader(buf []byte) (ObjectHeader, error) {
	if len(buf) < HeaderSize {
		return ObjectHeader{}, fmt.Errorf("wire: header needs %d bytes, got %d", HeaderSize, len(buf))
	}
	return ObjectHeader{
		X:  uint32(binary.BigEndian.Uint64(buf[0:8])),
		Y:  uint32(binary.BigEndian.Uint64(buf[8:16])),
		HC: getHC(buf[16:]),
	}, nil
}

// Multi-channel pointers extend the 2-byte forward distance with a
// 1-byte channel id, so index entries can aim at frames carried on any
// channel of a multi-channel air (up to 256 channels, 65,536 frames per
// channel). The width is defined once in broadcast (dsi's frame sizing
// reserves it via Config.ReserveMCPtr) so the sizing and the encoding
// cannot drift apart.
const MCPtrBytes = broadcast.MCPtrBytes

// MCEntry is one multi-channel index-table entry as it appears on air:
// the described frame's minimum HC value plus a (channel, per-channel
// frame index) pointer.
type MCEntry struct {
	MinHC uint64
	Ch    uint8
	Frame uint16
}

// MCTableSize returns the encoded size of a multi-channel table with e
// entries.
func MCTableSize(e int) int { return hcBytes + e*(hcBytes+MCPtrBytes) }

// TableMC builds the on-air view of the index table at cycle position
// pos of a multi-channel layout: every entry's pointer is the (channel,
// frame index) at which the described frame's data is broadcast. It
// fails when the layout exceeds what the pointer width can address.
func TableMC(lay *dsi.Layout, pos int) (ownHC uint64, entries []MCEntry, err error) {
	t := lay.X.AppendTable(pos, nil)
	entries = make([]MCEntry, len(t.Entries))
	for i, e := range t.Entries {
		ch, idx := lay.DataFrameIndex(e.TargetPos)
		if ch > 0xff {
			return 0, nil, fmt.Errorf("wire: entry %d channel %d exceeds the 1-byte channel id", i, ch)
		}
		if idx > 0xffff {
			return 0, nil, fmt.Errorf("wire: entry %d frame index %d exceeds the 2-byte pointer", i, idx)
		}
		entries[i] = MCEntry{MinHC: e.MinHC, Ch: uint8(ch), Frame: uint16(idx)}
	}
	return t.OwnHC, entries, nil
}

// EncodeTableMC serializes a multi-channel index table: the frame's own
// minimum HC value followed by one (HC value, channel, frame index)
// entry per table entry.
func EncodeTableMC(ownHC uint64, entries []MCEntry) []byte {
	buf := make([]byte, MCTableSize(len(entries)))
	putHC(buf[0:], ownHC)
	at := hcBytes
	for _, e := range entries {
		putHC(buf[at:], e.MinHC)
		buf[at+hcBytes] = e.Ch
		binary.BigEndian.PutUint16(buf[at+hcBytes+1:], e.Frame)
		at += hcBytes + MCPtrBytes
	}
	return buf
}

// DecodeTableMC parses a multi-channel index table. framesOn[ch] is the
// per-cycle frame count of channel ch (the catalog geometry a receiver
// knows a priori); pointers outside it, or aimed at channels that do
// not exist, are rejected.
func DecodeTableMC(buf []byte, framesOn []int) (ownHC uint64, entries []MCEntry, err error) {
	return DecodeTableMCAppend(buf, framesOn, nil)
}

// DecodeTableMCAppend is DecodeTableMC appending the decoded entries
// into dst (which may be nil or a recycled buffer), as DecodeTableAppend
// does for the classic format.
func DecodeTableMCAppend(buf []byte, framesOn []int, dst []MCEntry) (ownHC uint64, entries []MCEntry, err error) {
	if len(buf) < hcBytes || (len(buf)-hcBytes)%(hcBytes+MCPtrBytes) != 0 {
		return 0, nil, fmt.Errorf("wire: multi-channel table payload of %d bytes is malformed", len(buf))
	}
	ownHC = getHC(buf)
	entries = dst
	for at := hcBytes; at < len(buf); at += hcBytes + MCPtrBytes {
		e := MCEntry{
			MinHC: getHC(buf[at:]),
			Ch:    buf[at+hcBytes],
			Frame: binary.BigEndian.Uint16(buf[at+hcBytes+1:]),
		}
		if int(e.Ch) >= len(framesOn) {
			return 0, nil, fmt.Errorf("wire: pointer channel %d outside %d channels", e.Ch, len(framesOn))
		}
		if int(e.Frame) >= framesOn[e.Ch] {
			return 0, nil, fmt.Errorf("wire: pointer frame %d outside channel %d's %d frames",
				e.Frame, e.Ch, framesOn[e.Ch])
		}
		entries = append(entries, e)
	}
	return ownHC, entries, nil
}

// ClassicTables reports whether the layout's index tables go on air in
// the classic format (EncodeTable: 2-byte forward-distance pointers)
// rather than the multi-channel one (EncodeTableMC: channel id plus
// per-channel frame index). Single-channel is a layout, not a type: one
// channel needs no channel ids, so its tables keep the paper's pointer
// width and the N=1 broadcast stays the classic byte stream. This is
// the only place the choice is made — the transmitter encodes through
// AppendLayoutTable, and every receiver asks here.
func ClassicTables(lay *dsi.Layout) bool { return lay.Channels() == 1 }

// LayoutTableSize returns the encoded size of each index table of the
// layout, in the format ClassicTables selects.
func LayoutTableSize(lay *dsi.Layout) int {
	if ClassicTables(lay) {
		return TableSize(lay.X.E)
	}
	return MCTableSize(lay.X.E)
}

// CheckLayoutTables reports whether the layout's index tables can go on
// air in the format ClassicTables selects: a table must fit the frame
// sizing's packet budget, and every pointer its field — a classic
// forward distance 2 bytes, a multi-channel channel id 1 byte and
// frame index 2 bytes. Every table has the same size, and every cycle
// position is the distance-1 target of the table before it, so the
// check is arithmetic over the geometry and the layout, with no table
// built.
//
// dsi.Build sizes TablePackets for the classic entry width unless
// Config.ReserveMCPtr is set, so an index whose tables fill their
// packets to within E bytes of the budget cannot carry the 1-byte-wider
// multi-channel pointers; the check then fails rather than let a table
// overflow.
func CheckLayoutTables(lay *dsi.Layout) error {
	x := lay.X
	budget := x.TablePackets * x.Cfg.Capacity
	if size := LayoutTableSize(lay); size > budget {
		return fmt.Errorf("wire: table %dB exceeds %d packet budget %dB", size, x.TablePackets, budget)
	}
	if ClassicTables(lay) {
		// Entry i points Base^i frames ahead, which is Base^i reduced
		// into (0, NF] once it wraps the cycle.
		dist := 1
		for i := 0; i < x.E; i++ {
			if fwd := (dist-1)%x.NF + 1; fwd > 0xffff {
				return fmt.Errorf("wire: entry %d distance %d exceeds the 2-byte pointer", i, fwd)
			}
			dist *= x.Base
		}
		return nil
	}
	// Every channel carries some frame's data except a split layout's
	// index channel.
	for ch := 0; ch < lay.Channels(); ch++ {
		if ch == lay.StartCh && (lay.Sched == dsi.SchedSplit || lay.Sched == dsi.SchedShard) {
			continue
		}
		if ch > 0xff {
			return fmt.Errorf("wire: channel %d exceeds the 1-byte channel id", ch)
		}
		if idx := lay.FramesOn(ch) - 1; idx > 0xffff {
			return fmt.Errorf("wire: channel %d frame index %d exceeds the 2-byte pointer", ch, idx)
		}
	}
	return nil
}

// AppendLayoutTable appends the index table broadcast at cycle position
// pos of the layout to dst, in the format ClassicTables selects, and
// returns the extended slice. The bytes are computed from the frames'
// minimum HC values and the layout's placement — the frame's own
// minimum HC value, then one (HC value, pointer) entry per distance 1,
// Base, Base², … ahead, as dsi.Index.AppendTable lists them — so no
// table is stored anywhere. CheckLayoutTables must have accepted the
// layout: pointers are not range-checked here.
func AppendLayoutTable(dst []byte, lay *dsi.Layout, pos int) []byte {
	return AppendLayoutTablePart(dst, lay, pos, 0, LayoutTableSize(lay))
}

// AppendLayoutTablePart appends bytes [from, to) of the table
// AppendLayoutTable encodes, computing only the fields that range
// touches: a reader of some of a table's packets builds their bytes and
// no others. 0 <= from <= to <= LayoutTableSize(lay).
func AppendLayoutTablePart(dst []byte, lay *dsi.Layout, pos, from, to int) []byte {
	if from >= to {
		return dst
	}
	x := lay.X
	classic := ClassicTables(lay)
	width := hcBytes + MCPtrBytes
	if classic {
		width = hcBytes + ptrBytes
	}
	// Table byte k goes to dst[n+k-from]. A field the range holds whole
	// is written in place; one it cuts is built in f, and its cut copied.
	n := len(dst)
	dst = slices.Grow(dst, to-from)[:n+to-from]
	var f [hcBytes + MCPtrBytes]byte
	if from < hcBytes {
		whole := from == 0 && to >= hcBytes
		b := f[:hcBytes]
		if whole {
			b = dst[n : n+hcBytes]
		}
		putHC(b, x.MinHC(x.PosToFrame(pos)))
		if !whole {
			copy(dst[n:], f[from:min(to, hcBytes)])
		}
	}
	dist := 1
	for i, off := 0, hcBytes; i < x.E && off < to; i, off = i+1, off+width {
		if off+width > from {
			whole := off >= from && off+width <= to
			b := f[:width]
			if whole {
				b = dst[n+off-from : n+off-from+width]
			}
			tp := x.Ahead(pos, dist)
			putHC(b, x.MinHC(x.PosToFrame(tp)))
			if classic {
				fwd := tp - pos
				if fwd <= 0 {
					fwd += x.NF
				}
				binary.BigEndian.PutUint16(b[hcBytes:], uint16(fwd))
			} else {
				ch, idx := lay.DataFrameIndex(tp)
				b[hcBytes] = uint8(ch)
				binary.BigEndian.PutUint16(b[hcBytes+1:], uint16(idx))
			}
			if !whole {
				copy(dst[n+max(off-from, 0):], f[max(from-off, 0):min(to-off, width)])
			}
		}
		dist *= x.Base
	}
	return dst
}
