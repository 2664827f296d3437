// Parity framing: the on-air formats that make a DSI broadcast
// erasure-coded. The protected unit is a semantic run the receiver
// already reads contiguously — one frame's index table, or one data
// object — and each unit is followed in-stream by a parity tail.
// Unit members interleave across Groups subgroups (member i joins
// group i mod Groups) so a loss burst shorter than the interleave
// spacing lands on distinct groups; each group carries Parity
// Vandermonde rows over GF(256) (row 0 is the XOR row, so
// Parity == 1 is the plain XOR code).
//
// A parity packet self-describes with a small header — the unit it
// protects, its group, the code dimensions, its row index, and the
// member bitmap — so a receiver that tuned in mid-stream, or one whose
// catalog disagrees with the air, rejects foreign parity instead of
// corrupting a reconstruction. Alongside the shard directory, a coded
// broadcast ships a versioned FEC descriptor announcing the code, so a
// directory version bump (an online re-plan) carries the code metadata
// across the seam with it.

package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// FECCode describes the erasure code protecting one unit kind: the
// unit's members interleave across Groups subgroups, each extended by
// Parity rows. The zero value (and any Parity == 0) means uncoded.
type FECCode struct {
	Groups int
	Parity int
}

// Enabled reports whether the code adds parity at all.
func (c FECCode) Enabled() bool { return c.Parity > 0 }

// Tail returns the parity packets appended after each unit.
func (c FECCode) Tail() int {
	if !c.Enabled() {
		return 0
	}
	return c.Groups * c.Parity
}

// Validate checks the code against the packet count n of the unit it
// is to protect.
func (c FECCode) Validate(n int) error {
	if !c.Enabled() {
		return nil
	}
	if c.Parity > 0xff {
		return fmt.Errorf("wire: %d parity rows exceed the 1-byte row index", c.Parity)
	}
	if c.Groups < 1 || c.Groups > n {
		return fmt.Errorf("wire: %d groups cannot interleave a %d-packet unit", c.Groups, n)
	}
	if n > 64 {
		return fmt.Errorf("wire: %d-packet unit exceeds the 64-bit member bitmap", n)
	}
	// The largest group holds ceil(n/Groups) members.
	if k := (n + c.Groups - 1) / c.Groups; k+c.Parity > 255 {
		return fmt.Errorf("wire: group of %d data + %d parity exceeds GF(256)", k, c.Parity)
	}
	return nil
}

// GroupMembers returns the member bitmap and count of group g of an
// n-packet unit.
func (c FECCode) GroupMembers(n, g int) (members uint64, k int) {
	for i := g; i < n; i += c.Groups {
		members |= 1 << uint(i)
		k++
	}
	return members, k
}

// FECConfig is the full code of a broadcast: index-table units and
// data-object units may run different codes (tables are smaller and
// hotter; objects dominate the tail).
type FECConfig struct {
	Table  FECCode
	Object FECCode
}

// Enabled reports whether either unit kind carries parity.
func (c FECConfig) Enabled() bool { return c.Table.Enabled() || c.Object.Enabled() }

// Validate checks both codes against the broadcast geometry.
func (c FECConfig) Validate(tablePackets, objPackets int) error {
	if err := c.Table.Validate(tablePackets); err != nil {
		return fmt.Errorf("table code: %w", err)
	}
	if err := c.Object.Validate(objPackets); err != nil {
		return fmt.Errorf("object code: %w", err)
	}
	return nil
}

// ParityMagic tags a parity packet payload.
const ParityMagic = 0xFEC7

// ParityHeader identifies one parity packet: the protected unit (by
// the logical slot its first packet occupies on its channel), the
// subgroup, the code dimensions, this packet's parity row, and the
// bitmap of unit members the group covers.
type ParityHeader struct {
	Unit    uint32
	Group   uint8
	K       uint8 // data members in the group
	R       uint8 // parity rows per group
	Index   uint8 // this packet's row, in [0, R)
	Members uint64
}

// ParityHeaderSize is the encoded size of a parity packet header:
// magic (2), unit slot (4), group/k/r/row (4), member bitmap (8).
const ParityHeaderSize = 2 + 4 + 4 + 8

// EncodeParity serializes a parity packet: the header followed by the
// parity symbol (one capacity-sized payload worth of GF(256) output).
func EncodeParity(h ParityHeader, symbol []byte) []byte {
	buf := make([]byte, ParityHeaderSize+len(symbol))
	PutParity(buf, h, symbol)
	return buf
}

// PutParity is EncodeParity into dst, which must hold
// ParityHeaderSize+len(symbol) bytes. The symbol may already sit in
// dst's symbol bytes — parity computed in place — and is then left as
// it is.
func PutParity(dst []byte, h ParityHeader, symbol []byte) {
	_ = dst[ParityHeaderSize+len(symbol)-1]
	binary.BigEndian.PutUint16(dst[0:], ParityMagic)
	binary.BigEndian.PutUint32(dst[2:], h.Unit)
	dst[6] = h.Group
	dst[7] = h.K
	dst[8] = h.R
	dst[9] = h.Index
	binary.BigEndian.PutUint64(dst[10:], h.Members)
	copy(dst[ParityHeaderSize:], symbol)
}

// DecodeParity parses a parity packet carrying a capacity-sized
// symbol, validating the header's internal consistency.
func DecodeParity(buf []byte, capacity int) (ParityHeader, []byte, error) {
	if len(buf) != ParityHeaderSize+capacity {
		return ParityHeader{}, nil, fmt.Errorf("wire: parity packet of %d bytes, want %d",
			len(buf), ParityHeaderSize+capacity)
	}
	if m := binary.BigEndian.Uint16(buf[0:]); m != ParityMagic {
		return ParityHeader{}, nil, fmt.Errorf("wire: parity magic %#04x, want %#04x", m, ParityMagic)
	}
	h := ParityHeader{
		Unit:    binary.BigEndian.Uint32(buf[2:]),
		Group:   buf[6],
		K:       buf[7],
		R:       buf[8],
		Index:   buf[9],
		Members: binary.BigEndian.Uint64(buf[10:]),
	}
	if h.R == 0 || h.Index >= h.R {
		return ParityHeader{}, nil, fmt.Errorf("wire: parity row %d outside %d rows", h.Index, h.R)
	}
	if h.K == 0 || bits.OnesCount64(h.Members) != int(h.K) {
		return ParityHeader{}, nil, fmt.Errorf("wire: parity bitmap %#x does not cover k=%d members",
			h.Members, h.K)
	}
	if int(h.K)+int(h.R) > 255 {
		return ParityHeader{}, nil, fmt.Errorf("wire: group of %d data + %d parity exceeds GF(256)", h.K, h.R)
	}
	return h, buf[ParityHeaderSize:], nil
}

// FECDescMagic tags a versioned FEC descriptor payload.
const FECDescMagic = 0xFECD

// FECDescSize is the encoded size of the FEC descriptor: magic (2),
// version (4), then (groups, parity) bytes for tables and objects.
const FECDescSize = 2 + 4 + 4

// EncodeFECDesc serializes the versioned FEC descriptor of a coded
// broadcast. The version mirrors the shard-directory version so a
// receiver can check that the code metadata it holds describes the
// schedule it is adopting.
func EncodeFECDesc(c FECConfig, version uint32) ([]byte, error) {
	for _, code := range []FECCode{c.Table, c.Object} {
		if code.Groups > 0xff || code.Parity > 0xff || code.Groups < 0 || code.Parity < 0 {
			return nil, fmt.Errorf("wire: code (%d,%d) exceeds the descriptor field widths",
				code.Groups, code.Parity)
		}
	}
	buf := make([]byte, FECDescSize)
	binary.BigEndian.PutUint16(buf[0:], FECDescMagic)
	binary.BigEndian.PutUint32(buf[2:], version)
	buf[6] = byte(c.Table.Groups)
	buf[7] = byte(c.Table.Parity)
	buf[8] = byte(c.Object.Groups)
	buf[9] = byte(c.Object.Parity)
	return buf, nil
}

// DecodeFECDesc parses a versioned FEC descriptor.
func DecodeFECDesc(buf []byte) (FECConfig, uint32, error) {
	if len(buf) != FECDescSize {
		return FECConfig{}, 0, fmt.Errorf("wire: FEC descriptor of %d bytes, want %d", len(buf), FECDescSize)
	}
	if m := binary.BigEndian.Uint16(buf[0:]); m != FECDescMagic {
		return FECConfig{}, 0, fmt.Errorf("wire: FEC descriptor magic %#04x, want %#04x", m, FECDescMagic)
	}
	version := binary.BigEndian.Uint32(buf[2:])
	c := FECConfig{
		Table:  FECCode{Groups: int(buf[6]), Parity: int(buf[7])},
		Object: FECCode{Groups: int(buf[8]), Parity: int(buf[9])},
	}
	for _, code := range []FECCode{c.Table, c.Object} {
		if code.Parity > 0 && code.Groups == 0 {
			return FECConfig{}, 0, fmt.Errorf("wire: descriptor code has %d parity rows over zero groups",
				code.Parity)
		}
	}
	return c, version, nil
}
