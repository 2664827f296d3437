// Package station prototypes the transmitter side of a location-based
// wireless broadcast system — the paper's stated future work
// (section 6). Where the simulator accounts packet costs symbolically,
// the station materializes the actual byte stream: every packet of the
// DSI broadcast cycle with its index-table or object payload encoded by
// internal/wire, framed with the position header clients use to
// synchronize.
//
// There is one static cycle producer, MultiTransmitter, for every
// dsi.Layout — the paper's single channel is the layout with one
// channel, not a transmitter of its own — and one live one, the
// Rebroadcaster, which swaps shard directories at cycle seams. The
// index-table format on air is a function of the layout decided in one
// place, wire.ClassicTables; nothing in this package re-derives it.
//
// The package also provides the receiving side needed to prove the
// stream is self-describing: ScanMulti rebuilds the complete broadcast
// metadata (frame boundaries, minimum HC values, object headers) from
// one cycle of raw packets alone, which is the property all of DSI's
// client algorithms rest on.
package station

import (
	"encoding/binary"

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
// broadcast channel (always 0 on a single-channel layout).
type Packet struct {
	Ch      uint8  // broadcast channel
	Slot    uint32 // per-channel cycle slot
	Flags   byte
	Payload []byte // at most Capacity bytes
}

// ObjectPayload builds the on-air payload of one data object exactly
// as every transmitter does: wire header + deterministic filler
// derived from the object ID, padded to size. Exported so the
// diskstore image pipeline reproduces the byte stream without a
// transmitter.
func ObjectPayload(h wire.ObjectHeader, id, size int) []byte {
	buf := make([]byte, size)
	copy(buf, wire.EncodeHeader(h))
	for at := wire.HeaderSize; at+8 <= size; at += 8 {
		binary.BigEndian.PutUint64(buf[at:], uint64(id)*0x9e3779b97f4a7c15+uint64(at))
	}
	return buf
}
