// Network packet framing: the transport envelope a broadcast station
// wraps every on-air packet in before it leaves the process. The
// simulator and the in-process byte path address packets positionally —
// a receiver asks its PacketSource for "channel ch at absolute slot
// abs" and the source computes the answer. A network link inverts the
// flow: the station pushes packets and the receiver must reconstruct
// the position from what arrives (possibly late, reordered across
// channels, or not at all). The net frame therefore carries the full
// position of its payload — channel, per-channel cycle slot, absolute
// slot, and the directory version governing its encoding — so a
// client-side feed can slot it into a positional buffer and the
// existing WireReceiver decode machinery runs unchanged.
//
// Three frame kinds share the envelope:
//
//   - NetData: one on-air packet (index table part, object part, or
//     parity frame), flags preserved from the station framing.
//   - NetDir: the versioned shard directory (wire.EncodeDirV bytes),
//     the in-band control stream that lets a stale or reconnecting
//     receiver learn a directory bump without a side channel.
//   - NetFECDesc: the versioned FEC descriptor (wire.EncodeFECDesc
//     bytes), shipped alongside the directory so coded receivers can
//     validate the code before decoding.
//
// One UDP datagram carries one slot of one subscription — whole frames
// of one absolute slot, one per subscribed channel, control frames ahead
// of them (loss granularity = one slot of each channel, the semantics
// the per-channel FEC layer is designed for); HTTP streams concatenate
// frames back to back. Either way a reader parses frame after frame, so
// ParseNetFrame — the one header parse, which DecodeNetFrame wraps —
// distinguishes "I need more bytes" (ErrShortFrame) from "this is not a
// frame" (malformed — a stream desync the reader must treat as fatal).

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Net frame kinds.
const (
	NetData    byte = 1 // one on-air packet
	NetDir     byte = 2 // versioned shard directory (EncodeDirV payload)
	NetFECDesc byte = 3 // versioned FEC descriptor (EncodeFECDesc payload)
)

const (
	netMagic0 = 0xD5
	netMagic1 = 0x1E

	// NetFrameHeader is the fixed envelope size preceding the payload.
	NetFrameHeader = 24

	// MaxNetPayload is the largest payload a frame can carry (2-byte
	// length field).
	MaxNetPayload = 1<<16 - 1
)

// ErrShortFrame reports that the buffer ends before the frame does:
// a stream reader should keep the bytes and wait for more. Any other
// decode error means the bytes are not a valid frame at all.
var ErrShortFrame = errors.New("wire: incomplete net frame")

// NetFrame is one transport frame: the position-stamped envelope of an
// on-air packet or an in-band control payload.
type NetFrame struct {
	Kind    byte   // NetData, NetDir, or NetFECDesc
	Flags   byte   // station packet flags (NetData); 0 for control frames
	Ch      uint16 // broadcast channel (NetData); 0 for control frames
	Slot    uint32 // per-channel cycle slot (NetData); 0 for control frames
	Ver     uint32 // directory version governing the payload
	Abs     int64  // absolute slot of emission (the shared air clock)
	Payload []byte
}

// AppendNetFrame appends the encoded frame to dst and returns the
// extended slice. The payload is copied; the frame must have a valid
// kind, a non-negative absolute slot, and a payload within the 2-byte
// length field.
func AppendNetFrame(dst []byte, f NetFrame) ([]byte, error) {
	if f.Kind < NetData || f.Kind > NetFECDesc {
		return dst, fmt.Errorf("wire: net frame kind %d", f.Kind)
	}
	if f.Abs < 0 {
		return dst, fmt.Errorf("wire: net frame at negative slot %d", f.Abs)
	}
	if len(f.Payload) > MaxNetPayload {
		return dst, fmt.Errorf("wire: net frame payload %dB exceeds %dB", len(f.Payload), MaxNetPayload)
	}
	at := len(dst)
	dst = slices.Grow(dst, NetFrameHeader+len(f.Payload))[:at+NetFrameHeader+len(f.Payload)]
	PutNetFrame(dst[at:], &f)
	return dst, nil
}

// PutNetFrame encodes the frame in place at the head of dst, which must
// hold NetFrameHeader+len(f.Payload) bytes: the header, then a copy of
// the payload. It checks nothing — AppendNetFrame is the checked encoder
// — so a writer laying frames out in a buffer of its own validates the
// frame first: a kind, a slot at or past 0 and a payload of at most
// MaxNetPayload bytes.
func PutNetFrame(dst []byte, f *NetFrame) {
	dst = dst[:NetFrameHeader+len(f.Payload)]
	dst[0] = netMagic0
	dst[1] = netMagic1
	dst[2] = f.Kind
	dst[3] = f.Flags
	binary.BigEndian.PutUint16(dst[4:], f.Ch)
	binary.BigEndian.PutUint32(dst[6:], f.Slot)
	binary.BigEndian.PutUint32(dst[10:], f.Ver)
	binary.BigEndian.PutUint64(dst[14:], uint64(f.Abs))
	binary.BigEndian.PutUint16(dst[22:], uint16(len(f.Payload)))
	copy(dst[NetFrameHeader:], f.Payload)
}

// NetFrameView is one whole net frame in its own bytes, as ParseNetFrame
// returns it: the header is validated, and each accessor reads its field
// straight out of the bytes, so a reader that files a frame field by field
// copies nothing but what it keeps.
type NetFrameView []byte

// Kind is the frame kind: NetData, NetDir or NetFECDesc.
func (v NetFrameView) Kind() byte { return v[2] }

// Flags are the station packet flags (NetData); 0 for control frames.
func (v NetFrameView) Flags() byte { return v[3] }

// Ch is the broadcast channel (NetData); 0 for control frames.
func (v NetFrameView) Ch() uint16 { return binary.BigEndian.Uint16(v[4:]) }

// Slot is the per-channel cycle slot (NetData); 0 for control frames.
func (v NetFrameView) Slot() uint32 { return binary.BigEndian.Uint32(v[6:]) }

// Ver is the directory version governing the payload.
func (v NetFrameView) Ver() uint32 { return binary.BigEndian.Uint32(v[10:]) }

// Abs is the absolute slot of emission, at most 2^62.
func (v NetFrameView) Abs() int64 { return int64(binary.BigEndian.Uint64(v[14:])) }

// Payload is the frame's payload, aliasing the view's bytes.
func (v NetFrameView) Payload() []byte { return v[NetFrameHeader:] }

// Frame returns the frame the view holds; its payload aliases the view.
func (v NetFrameView) Frame() NetFrame {
	return NetFrame{
		Kind: v.Kind(), Flags: v.Flags(), Ch: v.Ch(), Slot: v.Slot(),
		Ver: v.Ver(), Abs: v.Abs(), Payload: v.Payload(),
	}
}

// ParseNetFrame returns the frame at the head of buf as a view of buf's
// bytes, exactly len(view) of them. ErrShortFrame means the buffer holds
// a valid prefix of a frame (wait for more bytes); any other error means
// buf does not start with a frame.
func ParseNetFrame(buf []byte) (NetFrameView, error) {
	if len(buf) >= NetFrameHeader && buf[0] == netMagic0 && buf[1] == netMagic1 &&
		buf[2]-NetData <= NetFECDesc-NetData && binary.BigEndian.Uint64(buf[14:]) <= 1<<62 {
		if n := NetFrameHeader + int(binary.BigEndian.Uint16(buf[22:])); n <= len(buf) {
			return NetFrameView(buf[:n:n]), nil
		}
	}
	return nil, netFrameError(buf)
}

// netFrameError says why buf does not start with a whole frame, for a
// buf ParseNetFrame refused: the checks in the order a stream reader
// meets them, so a valid prefix is short however it is cut.
//
//go:noinline
func netFrameError(buf []byte) error {
	if len(buf) < 2 {
		if len(buf) >= 1 && buf[0] != netMagic0 {
			return fmt.Errorf("wire: bad net frame magic %#02x", buf[0])
		}
		return ErrShortFrame
	}
	if buf[0] != netMagic0 || buf[1] != netMagic1 {
		return fmt.Errorf("wire: bad net frame magic %#02x%02x", buf[0], buf[1])
	}
	if len(buf) < NetFrameHeader {
		return ErrShortFrame
	}
	if k := buf[2]; k < NetData || k > NetFECDesc {
		return fmt.Errorf("wire: net frame kind %d", k)
	}
	if abs := binary.BigEndian.Uint64(buf[14:]); abs > 1<<62 {
		return fmt.Errorf("wire: net frame slot %d out of range", abs)
	}
	return ErrShortFrame // the payload runs past the buffer
}

// DecodeNetFrame decodes the frame at the head of buf, returning it and
// the bytes consumed: ParseNetFrame's frame, copied out of its header.
// The returned payload aliases buf — callers that retain it beyond the
// buffer's lifetime must copy.
func DecodeNetFrame(buf []byte) (NetFrame, int, error) {
	v, err := ParseNetFrame(buf)
	if err != nil {
		return NetFrame{}, 0, err
	}
	return v.Frame(), len(v), nil
}
