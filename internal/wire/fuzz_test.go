// Native fuzz targets for every wire decoder: whatever bytes arrive
// off the air, decoders must reject malformed input with an error —
// never panic. Seed corpora mirror the handcrafted error-path tests
// (valid encodings, truncations, bad magics, out-of-range fields).
// FuzzRSRecover holds the reusable erasure solver to the one-shot
// RSRecover.

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dsi/internal/dsi"
)

func FuzzDecodeTable(f *testing.F) {
	tab := dsi.Table{Pos: 3, OwnHC: 99, Entries: []dsi.TableEntry{
		{TargetPos: 5, MinHC: 10}, {TargetPos: 11, MinHC: 200},
	}}
	seed, err := EncodeTable(tab, 16)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	bad := append([]byte{}, seed...)
	binary.BigEndian.PutUint16(bad[len(bad)-2:], 0) // zero pointer distance
	f.Add(bad)
	f.Fuzz(func(t *testing.T, buf []byte) {
		tab, err := DecodeTable(buf, 3, 16)
		if err == nil {
			// A decoded table must re-encode within the same cycle.
			if _, err := EncodeTable(tab, 16); err != nil {
				t.Fatalf("decoded table does not re-encode: %v", err)
			}
		}
	})
}

func FuzzDecodeTableMC(f *testing.F) {
	framesOn := []int{4, 8, 8}
	seed := EncodeTableMC(7, []MCEntry{{MinHC: 1, Ch: 1, Frame: 3}, {MinHC: 9, Ch: 2, Frame: 7}})
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	bad := append([]byte{}, seed...)
	bad[len(bad)-3] = 9 // channel outside the air
	f.Add(bad)
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, _, _ = DecodeTableMC(buf, framesOn)
	})
}

// fuzzDirBytes hand-assembles a shard directory over raw entries, so
// seeds can exercise invalid geometry EncodeShardDir refuses to emit.
func fuzzDirBytes(entries []DirEntry) []byte {
	buf := make([]byte, DirSize(len(entries)))
	for ch, e := range entries {
		at := ch * DirEntrySize
		buf[at] = e.Kind
		binary.BigEndian.PutUint16(buf[at+1:], e.StartFrame)
		binary.BigEndian.PutUint16(buf[at+3:], e.Frames)
		binary.BigEndian.PutUint32(buf[at+5:], e.CycleSlots)
	}
	return buf
}

func FuzzDecodeShardDir(f *testing.F) {
	good := fuzzDirBytes([]DirEntry{
		{Kind: DirIndex, Frames: 16, CycleSlots: 80},
		{Kind: DirData, StartFrame: 0, Frames: 10, CycleSlots: 210},
		{Kind: DirData, StartFrame: 10, Frames: 6, CycleSlots: 126},
	})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(fuzzDirBytes([]DirEntry{ // gap in the shard tiling
		{Kind: DirIndex, Frames: 16, CycleSlots: 80},
		{Kind: DirData, StartFrame: 3, Frames: 10, CycleSlots: 210},
	}))
	f.Add(fuzzDirBytes([]DirEntry{ // two index channels
		{Kind: DirIndex, Frames: 16, CycleSlots: 80},
		{Kind: DirIndex, Frames: 16, CycleSlots: 80},
	}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		dir, err := DecodeShardDir(buf)
		if err == nil {
			// Accepted directories must expose consistent geometry.
			if len(FramesOnDir(dir)) != len(dir) {
				t.Fatal("frame extraction lost channels")
			}
			b := BoundsFromDir(dir)
			for i := 1; i < len(b); i++ {
				if b[i] <= b[i-1] {
					t.Fatalf("non-ascending bounds %v", b)
				}
			}
		}
	})
}

func FuzzDecodeDirV(f *testing.F) {
	body := fuzzDirBytes([]DirEntry{
		{Kind: DirIndex, Frames: 16, CycleSlots: 80},
		{Kind: DirData, StartFrame: 0, Frames: 16, CycleSlots: 336},
	})
	good := make([]byte, DirVHeaderSize+len(body))
	binary.BigEndian.PutUint16(good[0:], DirMagic)
	binary.BigEndian.PutUint32(good[2:], 3)
	binary.BigEndian.PutUint16(good[6:], 2)
	binary.BigEndian.PutUint64(good[8:], 1234)
	copy(good[DirVHeaderSize:], body)
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:DirVHeaderSize-1])
	badMagic := append([]byte{}, good...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badSeam := append([]byte{}, good...)
	binary.BigEndian.PutUint64(badSeam[8:], 1<<63)
	f.Add(badSeam)
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, seam, _, err := DecodeDirV(buf)
		if err == nil && seam < 0 {
			t.Fatalf("accepted negative seam %d", seam)
		}
	})
}

func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHeader(ObjectHeader{X: 3, Y: 9, HC: 77}))
	f.Add(EncodeHeader(ObjectHeader{})[:HeaderSize-1])
	f.Fuzz(func(t *testing.T, buf []byte) {
		_, _ = DecodeHeader(buf)
	})
}

func FuzzDecodeParity(f *testing.F) {
	const capacity = 64
	good := EncodeParity(ParityHeader{Unit: 7, Group: 1, K: 2, R: 3, Index: 2, Members: 0b101}, make([]byte, capacity))
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-1])
	badRow := append([]byte{}, good...)
	badRow[9] = 3 // Index == R
	f.Add(badRow)
	badBitmap := append([]byte{}, good...)
	badBitmap[7] = 5 // K disagrees with the bitmap
	f.Add(badBitmap)
	f.Fuzz(func(t *testing.T, buf []byte) {
		h, sym, err := DecodeParity(buf, capacity)
		if err == nil && len(sym) != capacity {
			t.Fatalf("accepted %d-byte symbol, want %d", len(sym), capacity)
		}
		if err == nil && h.Index >= h.R {
			t.Fatalf("accepted row %d of %d", h.Index, h.R)
		}
	})
}

// FuzzRSRecover solves fuzzed erasure patterns of fuzzed code groups
// (k <= 16, r <= 8) with one solver shared by every input, holding each
// solve to a fresh RSRecover (recoverCase).
func FuzzRSRecover(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), uint8(64), uint16(0b1), uint8(0))
	f.Add(int64(2), uint8(15), uint8(7), uint8(64), uint16(0b1010_0101_0001), uint8(0b1000_0001))
	f.Add(int64(3), uint8(4), uint8(1), uint8(0), uint16(0b111), uint8(0))
	f.Add(int64(4), uint8(7), uint8(2), uint8(17), uint16(0b1111), uint8(0b10))
	var s RSSolver
	f.Fuzz(func(t *testing.T, seed int64, k, r, symLen uint8, erase uint16, lost uint8) {
		kk, rr := 1+int(k%16), 1+int(r%8)
		recoverCase(t, &s, rand.New(rand.NewSource(seed)), kk, rr, int(symLen%97),
			uint64(erase)&(1<<uint(kk)-1), uint64(lost)&(1<<uint(rr)-1))
	})
}

func FuzzDecodeFECDesc(f *testing.F) {
	good, _ := EncodeFECDesc(FECConfig{Table: FECCode{Groups: 1, Parity: 1}, Object: FECCode{Groups: 4, Parity: 6}}, 9)
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:FECDescSize-1])
	badMagic := append([]byte{}, good...)
	badMagic[1] ^= 0xff
	f.Add(badMagic)
	orphan := append([]byte{}, good...)
	orphan[6] = 0 // table parity without groups
	f.Add(orphan)
	f.Fuzz(func(t *testing.T, buf []byte) {
		c, _, err := DecodeFECDesc(buf)
		if err == nil {
			if _, err := EncodeFECDesc(c, 1); err != nil {
				t.Fatalf("decoded descriptor does not re-encode: %v", err)
			}
		}
	})
}

// FuzzDecodeNetFrame holds the one header parse, ParseNetFrame's view
// and DecodeNetFrame over it, to a field-by-field decoder written out in
// full (refDecodeNetFrame): both accept exactly the buffers it accepts,
// consume as many bytes, read the same fields and refuse the rest with
// the same error, so a valid prefix stays ErrShortFrame and garbage stays
// malformed. An accepted frame re-encodes to the bytes it came from.
func FuzzDecodeNetFrame(f *testing.F) {
	good, _ := AppendNetFrame(nil, NetFrame{Kind: NetData, Flags: 1, Ch: 2, Slot: 40, Ver: 3, Abs: 1234, Payload: []byte("net payload")})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:NetFrameHeader-1])
	f.Add(good[:len(good)-1])
	badMagic := append([]byte{}, good...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badKind := append([]byte{}, good...)
	badKind[2] = 0
	f.Add(badKind)
	f.Add(append(append([]byte{}, good...), good[:5]...)) // a frame and the head of the next
	f.Add(badMagic[:1])
	badKind = append([]byte{}, good...)
	badKind[2] = NetFECDesc + 1
	f.Add(badKind[:NetFrameHeader])
	for _, abs := range []uint64{1 << 62, 1<<62 + 1} {
		edge := append([]byte{}, good...)
		binary.BigEndian.PutUint64(edge[14:], abs)
		f.Add(edge)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		want, wantN, wantErr := refDecodeNetFrame(buf)
		v, err := ParseNetFrame(buf)
		fr, n, derr := DecodeNetFrame(buf)
		for name, got := range map[string]error{"ParseNetFrame": err, "DecodeNetFrame": derr} {
			if (got == nil) != (wantErr == nil) || got != nil && got.Error() != wantErr.Error() ||
				errors.Is(got, ErrShortFrame) != errors.Is(wantErr, ErrShortFrame) {
				t.Fatalf("%s: error %v, the reference decoder %v", name, got, wantErr)
			}
		}
		if wantErr != nil {
			if v != nil || n != 0 {
				t.Fatalf("a refused frame still gave a %d-byte view and %d bytes consumed", len(v), n)
			}
			return
		}
		if len(v) != wantN || n != wantN {
			t.Fatalf("the view holds %d bytes and DecodeNetFrame consumed %d, the reference %d", len(v), n, wantN)
		}
		for _, got := range []NetFrame{v.Frame(), fr} {
			if got.Kind != want.Kind || got.Flags != want.Flags || got.Ch != want.Ch || got.Slot != want.Slot ||
				got.Ver != want.Ver || got.Abs != want.Abs || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("decoded %+v, the reference %+v", got, want)
			}
		}
		if v.Kind() != want.Kind || v.Flags() != want.Flags || v.Ch() != want.Ch || v.Slot() != want.Slot ||
			v.Ver() != want.Ver || v.Abs() != want.Abs || !bytes.Equal(v.Payload(), want.Payload) {
			t.Fatalf("the view's accessors disagree with the reference %+v", want)
		}
		// A decoded frame must re-encode to the bytes it came from.
		re, err := AppendNetFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, buf[:n]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// refDecodeNetFrame is the net frame decoder spelled out check by check,
// in the order a stream reader meets the bytes: the oracle of the header
// parse.
func refDecodeNetFrame(buf []byte) (NetFrame, int, error) {
	var f NetFrame
	if len(buf) < 2 {
		if len(buf) >= 1 && buf[0] != netMagic0 {
			return f, 0, fmt.Errorf("wire: bad net frame magic %#02x", buf[0])
		}
		return f, 0, ErrShortFrame
	}
	if buf[0] != netMagic0 || buf[1] != netMagic1 {
		return f, 0, fmt.Errorf("wire: bad net frame magic %#02x%02x", buf[0], buf[1])
	}
	if len(buf) < NetFrameHeader {
		return f, 0, ErrShortFrame
	}
	f.Kind = buf[2]
	if f.Kind < NetData || f.Kind > NetFECDesc {
		return f, 0, fmt.Errorf("wire: net frame kind %d", f.Kind)
	}
	f.Flags = buf[3]
	f.Ch = binary.BigEndian.Uint16(buf[4:])
	f.Slot = binary.BigEndian.Uint32(buf[6:])
	f.Ver = binary.BigEndian.Uint32(buf[10:])
	abs := binary.BigEndian.Uint64(buf[14:])
	if abs > 1<<62 {
		return f, 0, fmt.Errorf("wire: net frame slot %d out of range", abs)
	}
	f.Abs = int64(abs)
	plen := int(binary.BigEndian.Uint16(buf[22:]))
	if len(buf) < NetFrameHeader+plen {
		return f, 0, ErrShortFrame
	}
	f.Payload = buf[NetFrameHeader : NetFrameHeader+plen]
	return f, NetFrameHeader + plen, nil
}
