// Package station prototypes the transmitter side of a location-based
// wireless broadcast system — the paper's stated future work
// (section 6). Where the simulator accounts packet costs symbolically,
// the station materializes the actual byte stream: every packet of the
// DSI broadcast cycle with its index-table or object payload encoded by
// internal/wire, framed with the position header clients use to
// synchronize.
//
// There is one cycle producer, MultiTransmitter, for every dsi.Layout —
// the paper's single channel is the layout with one channel, not a
// transmitter of its own — and it is both the static broadcast and the
// live one: a shard-directory swap is staged and takes effect at a
// cycle seam, and a producer that never stages is simply version 1
// forever. Every source a receiver reads (PacketSource) serves packets,
// the versioned directory and the FEC descriptor. The index-table
// format on air is a function of the layout decided in one place,
// wire.ClassicTables; nothing in this package re-derives it.
//
// A coded layout's physical geometry (parity tails spliced into every
// channel, and the slot maps between the two domains, arithmetic over
// each channel's frame shape) follows from the layout and the code
// alone, so it is built once per process: the
// transmitter and every receiver of one layout under one code share one
// read-only geometry, which lives as long as any of them holds it.
//
// The package also provides the receiving side needed to prove the
// stream is self-describing: ScanMulti rebuilds the complete broadcast
// metadata (frame boundaries, minimum HC values, object headers) from
// one cycle of raw packets alone, which is the property all of DSI's
// client algorithms rest on.
package station

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dsi/internal/wire"
)

// Every packet on air is framed with its cycle slot and flags: how a
// client that tunes in mid-cycle knows where it is. The simulator's
// capacity figures address payload only (the paper likewise treats
// capacity as usable payload), so the framing is carried in addition to
// Capacity bytes.
const (
	flagIndex byte = 1 << iota
	flagObjectStart
	flagParity
)

// The flag values, exported for byte-exact packet producers outside
// the package — the diskstore image pipeline synthesizes the same
// framing a MultiTransmitter emits.
const (
	FlagIndex       = flagIndex
	FlagObjectStart = flagObjectStart
	FlagParity      = flagParity
)

// Packet is one on-air packet: framing plus payload. Ch identifies the
// broadcast channel (always 0 on a single-channel layout). Ver is the
// directory version the packet's encoding belongs to, as a source read
// it at an absolute slot (PacketSource); 0 marks a lost slot.
type Packet struct {
	Ch      uint8  // broadcast channel
	Slot    uint32 // per-channel cycle slot
	Flags   byte
	Ver     uint32 // governing directory version; 0 when the slot was lost
	Payload []byte // at most Capacity bytes (plus wire.ParityHeaderSize on a parity frame); immutable
}

// LostBeforeZero serves the slots of a run that lie before slot 0 — a
// slot no source carries — as lost, the zero packet, and returns the rest
// of the run and the absolute slot it starts at.
func LostBeforeZero(dst []Packet, abs int64) ([]Packet, int64) {
	if abs >= 0 {
		return dst, abs
	}
	n := int(min(int64(len(dst)), -abs))
	clear(dst[:n])
	return dst[n:], abs + int64(n)
}

// AppendObjectPart appends bytes [from, to) of one data object's on-air
// payload to dst and returns the extended slice. It is the one
// definition of those bytes: the wire header over [0, wire.HeaderSize),
// then big-endian filler words id·φ + at, each addressed by its own
// offset at — so any range, including one that starts or ends inside a
// word, is computable without the bytes before it — and zero from the
// last whole word to size. It requires 0 <= from <= to <= size.
func AppendObjectPart(dst []byte, h wire.ObjectHeader, id, size, from, to int) []byte {
	if from < 0 || from > to || to > size {
		panic(fmt.Sprintf("station: object part [%d,%d) outside a %d-byte object", from, to, size))
	}
	n := len(dst)
	dst = slices.Grow(dst, to-from)[:n+to-from]
	out := dst[n:] // out[i] is object byte from+i
	at := from
	if at < wire.HeaderSize {
		var hdr [wire.HeaderSize]byte
		wire.PutHeader(hdr[:], h)
		at += copy(out, hdr[at:min(to, wire.HeaderSize)])
	}
	// Filler words are 8-aligned (HeaderSize is) and stop at the last
	// one that fits whole inside size.
	fillEnd := min(to, wire.HeaderSize+(size-wire.HeaderSize)&^7)
	base := uint64(id) * 0x9e3779b97f4a7c15
	// A word the range cuts is built whole and copied in part: the copy
	// stops at the range's end, and a word that ends past fillEnd is one
	// the range ends inside (fillEnd is otherwise a word boundary).
	var word [8]byte
	if r := at & 7; r != 0 && at < fillEnd {
		binary.BigEndian.PutUint64(word[:], base+uint64(at-r))
		at += copy(out[at-from:], word[r:])
	}
	for ; at+8 <= fillEnd; at += 8 {
		binary.BigEndian.PutUint64(out[at-from:], base+uint64(at))
	}
	if at < fillEnd {
		binary.BigEndian.PutUint64(word[:], base+uint64(at))
		at += copy(out[at-from:], word[:])
	}
	clear(out[at-from:])
	return dst
}
