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

// canary fills everything around the buffer a checked run is handed.
const canary = 0xC7

// guard is how many canary bytes lie on each side of the buffer.
const guard = 64

// served is what PacketAt serves at one slot, with a copy of its payload
// to tell whether a later read rewrote it.
type served struct {
	p    station.Packet
	kept []byte
}

// packetsAt reads slots abs..abs+n-1 of channel ch through PacketAt,
// whose second result must be its packet's Ver.
func packetsAt(src station.PacketSource, ch int, abs int64, n int) ([]served, error) {
	out := make([]served, n)
	for i := range out {
		p, ver := src.PacketAt(ch, abs+int64(i))
		if ver != p.Ver {
			return nil, fmt.Errorf("channel %d slot %d: PacketAt returns version %d for a packet of version %d", ch, abs+int64(i), ver, p.Ver)
		}
		out[i] = served{p, bytes.Clone(p.Payload)}
	}
	return out, nil
}

// CheckRun reads the run of n slots of channel ch from absolute slot abs
// and reports the first departure from the seam's contract: slot by
// slot, the run carries the channel, slot, flags, version and payload
// bytes PacketAt does, and PacketAt's second result is its packet's Ver;
// a slot before 0 or on a negative channel is the zero packet with Ver
// 0; the run writes nothing outside buf[:cap(buf)] — the buffer is cut
// from the middle of a canary-filled array whose two sides must come
// back intact — and leaves the payloads PacketAt handed out, which are
// their caller's to retain, as they were. bufCap is the capacity of the
// buffer handed in; negative hands in nil.
func CheckRun(src station.PacketSource, ch int, abs int64, n, bufCap int) error {
	want, err := packetsAt(src, ch, abs, n)
	if err != nil {
		return err
	}
	if err := checkRun(src, ch, abs, want, bufCap); err != nil {
		return err
	}
	return checkKept(ch, abs, want)
}

// CheckRuns holds to PacketAt (CheckRun) every run of the given lengths
// that starts in [from, to) on channel ch, and one run over the whole
// stretch and the slot past it — a cycle's worth crosses the cycle end.
// Each run goes into no buffer, one a byte short of its payloads, one
// that fits them exactly and one with room to spare.
func CheckRuns(src station.PacketSource, ch int, from, to int64, lens ...int) error {
	stretch := int(to-from) + 1
	longest := stretch
	for _, n := range lens {
		longest = max(longest, int(to-from)-1+n)
	}
	want, err := packetsAt(src, ch, from, longest)
	if err != nil {
		return err
	}
	check := func(at int64, n int) error {
		w := want[at-from : at-from+int64(n)]
		need := 0
		for _, s := range w {
			need += len(s.kept)
		}
		for _, bufCap := range []int{-1, need - 1, need, need + 19} {
			if err := checkRun(src, ch, at, w, bufCap); err != nil {
				return err
			}
		}
		return nil
	}
	for at := from; at < to; at++ {
		for _, n := range lens {
			if err := check(at, n); err != nil {
				return err
			}
		}
	}
	if err := check(from, stretch); err != nil {
		return err
	}
	return checkKept(ch, from, want)
}

// CheckLost holds the run of n slots of channel ch from abs to the answer
// for slots a source cannot serve — a channel it does not carry, a slot
// before 0, a slot lost on the way: every packet, read into no buffer,
// into a roomy one, and through PacketAt, is the zero packet with Ver 0.
func CheckLost(src station.PacketSource, ch int, abs int64, n int) error {
	want, err := packetsAt(src, ch, abs, n)
	if err != nil {
		return err
	}
	for i, s := range want {
		if !lost(s.p) {
			return fmt.Errorf("channel %d slot %d: PacketAt serves %s, want a lost slot", ch, abs+int64(i), describe(s.p))
		}
	}
	for _, bufCap := range []int{-1, 64 * n} {
		if err := checkRun(src, ch, abs, want, bufCap); err != nil {
			return err
		}
	}
	return nil
}

func lost(p station.Packet) bool {
	return p.Ch == 0 && p.Slot == 0 && p.Flags == 0 && p.Ver == 0 && len(p.Payload) == 0
}

func describe(p station.Packet) string {
	return fmt.Sprintf("(ch %d, slot %d, flags %#x, version %d, %d bytes)", p.Ch, p.Slot, p.Flags, p.Ver, len(p.Payload))
}

// checkRun reads the run want describes into a bufCap-byte buffer cut
// from a canary arena and holds it to want slot by slot.
func checkRun(src station.PacketSource, ch int, abs int64, want []served, bufCap int) error {
	var buf []byte
	size := max(bufCap, 0)
	arena := bytes.Repeat([]byte{canary}, guard+size+guard)
	if bufCap >= 0 {
		buf = arena[guard : guard : guard+bufCap]
	}
	got := make([]station.Packet, len(want))
	src.ReadRunAt(got, buf, ch, abs)

	for i, g := range got {
		w, at := want[i].p, abs+int64(i)
		where := func() string {
			return fmt.Sprintf("channel %d slot %d, read %d of a %d-slot run into a %d-byte buffer", ch, at, i, len(want), bufCap)
		}
		if g.Ch != w.Ch || g.Slot != w.Slot || g.Flags != w.Flags || g.Ver != w.Ver {
			return fmt.Errorf("%s: run read %s, PacketAt %s", where(), describe(g), describe(w))
		}
		if !bytes.Equal(g.Payload, want[i].kept) {
			return fmt.Errorf("%s: payload %x, PacketAt's %x", where(), g.Payload, want[i].kept)
		}
		if (ch < 0 || at < 0) && !lost(g) {
			return fmt.Errorf("%s: an impossible slot reads %s, want a lost slot", where(), describe(g))
		}
	}
	// The bytes on either side of the buffer, by their offset from its
	// start, must all still be canaries.
	for _, side := range []struct {
		bytes []byte
		off   int
	}{{arena[:guard], -guard}, {arena[guard+size:], size}} {
		for i, b := range side.bytes {
			if b != canary {
				return fmt.Errorf("channel %d slot %d: a %d-slot run into a %d-byte buffer overwrote byte %d outside it",
					ch, abs, len(want), bufCap, side.off+i)
			}
		}
	}
	return nil
}

// checkKept reports a payload PacketAt handed out that a later read
// rewrote.
func checkKept(ch int, abs int64, want []served) error {
	for i, s := range want {
		if !bytes.Equal(s.p.Payload, s.kept) {
			return fmt.Errorf("channel %d slot %d: a run read rewrote a payload PacketAt had handed out", ch, abs+int64(i))
		}
	}
	return nil
}
