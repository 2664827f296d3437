// Package stationtest holds the conformance check every
// station.PacketSource implementation's tests run against the seam's
// buffer contract, the way testing/iotest serves io.Reader
// implementations.
package stationtest

import (
	"bytes"
	"fmt"

	"dsi/internal/station"
)

// canary fills everything around the buffer a checked read is handed.
const canary = 0xC7

// guard is how many canary bytes lie on each side of the buffer.
const guard = 64

// CheckRead reads slot abs of channel ch through both halves of the
// seam and reports the first departure from the contract: the buffer
// read returns the flags, slot, channel, version and payload bytes
// PacketAt does; it writes nothing outside buf[:cap(buf)] — the buffer
// is cut from the middle of a canary-filled array whose two sides must
// come back intact — and leaves the payload PacketAt handed out, which
// is its caller's to retain, as it was. bufCap is the capacity of the
// buffer handed in; negative hands in nil.
func CheckRead(src station.PacketSource, ch int, abs int64, bufCap int) error {
	want, wantVer := src.PacketAt(ch, abs)
	kept := bytes.Clone(want.Payload)

	var buf []byte
	arena := bytes.Repeat([]byte{canary}, guard+max(bufCap, 0)+guard)
	if bufCap >= 0 {
		buf = arena[guard : guard : guard+bufCap]
	}
	got, gotVer := src.ReadPacketAt(buf, ch, abs)

	where := fmt.Sprintf("channel %d slot %d into a %d-byte buffer", ch, abs, bufCap)
	if got.Ch != want.Ch || got.Slot != want.Slot || got.Flags != want.Flags || gotVer != wantVer {
		return fmt.Errorf("%s: read (ch %d, slot %d, flags %#x, version %d), PacketAt (ch %d, slot %d, flags %#x, version %d)",
			where, got.Ch, got.Slot, got.Flags, gotVer, want.Ch, want.Slot, want.Flags, wantVer)
	}
	if !bytes.Equal(got.Payload, kept) {
		return fmt.Errorf("%s: payload %x, PacketAt's %x", where, got.Payload, kept)
	}
	for i, b := range arena {
		if b != canary && (i < guard || i >= guard+max(bufCap, 0)) {
			return fmt.Errorf("%s: byte %d outside the buffer overwritten", where, i-guard)
		}
	}
	if !bytes.Equal(want.Payload, kept) {
		return fmt.Errorf("%s: the read rewrote a payload PacketAt had handed out", where)
	}
	return nil
}

// CheckSlots runs CheckRead over slots [from, to) of channel ch with no
// buffer, one a byte short of the slot's payload, one that fits it
// exactly and one with room to spare.
func CheckSlots(src station.PacketSource, ch int, from, to int64) error {
	for abs := from; abs < to; abs++ {
		p, _ := src.PacketAt(ch, abs)
		n := len(p.Payload)
		for _, bufCap := range []int{-1, n - 1, n, n + 19} {
			if err := CheckRead(src, ch, abs, bufCap); err != nil {
				return err
			}
		}
	}
	return nil
}
