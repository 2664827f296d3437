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
	t := lay.X.TableAt(pos)
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
// EncodeLayoutTables, and every receiver asks here.
func ClassicTables(lay *dsi.Layout) bool { return lay.Channels() == 1 }

// LayoutTableSize returns the encoded size of each index table of the
// layout, in the format ClassicTables selects.
func LayoutTableSize(lay *dsi.Layout) int {
	if ClassicTables(lay) {
		return TableSize(lay.X.E)
	}
	return MCTableSize(lay.X.E)
}

// EncodeLayoutTables materializes every index table of a layout in the
// format ClassicTables selects, verifying that each fits the frame
// sizing's packet budget.
//
// dsi.Build sizes TablePackets for the classic entry width unless
// Config.ReserveMCPtr is set, so an index whose tables fill their
// packets to within E bytes of the budget cannot carry the 1-byte-wider
// multi-channel pointers; this function then fails rather than
// overflow.
func EncodeLayoutTables(lay *dsi.Layout) ([][]byte, error) {
	x := lay.X
	out := make([][]byte, x.NF)
	budget := x.TablePackets * x.Cfg.Capacity
	for pos := 0; pos < x.NF; pos++ {
		buf, err := encodeLayoutTable(lay, pos)
		if err != nil {
			return nil, fmt.Errorf("wire: position %d: %w", pos, err)
		}
		if len(buf) > budget {
			return nil, fmt.Errorf("wire: position %d: table %dB exceeds %d packet budget %dB",
				pos, len(buf), x.TablePackets, budget)
		}
		out[pos] = buf
	}
	return out, nil
}

func encodeLayoutTable(lay *dsi.Layout, pos int) ([]byte, error) {
	if ClassicTables(lay) {
		return EncodeTable(lay.X.TableAt(pos), lay.X.NF)
	}
	own, entries, err := TableMC(lay, pos)
	if err != nil {
		return nil, err
	}
	return EncodeTableMC(own, entries), nil
}
