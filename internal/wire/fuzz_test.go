// Native fuzz targets for every wire decoder: whatever bytes arrive
// off the air, decoders must reject malformed input with an error —
// never panic. Seed corpora mirror the handcrafted error-path tests
// (valid encodings, truncations, bad magics, out-of-range fields).
// FuzzRSRecover holds the reusable erasure solver to the one-shot
// RSRecover.

package wire

import (
	"encoding/binary"
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
	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, n, err := DecodeNetFrame(buf)
		if err == nil {
			if n < NetFrameHeader || n > len(buf) {
				t.Fatalf("consumed %d of %d", n, len(buf))
			}
			// A decoded frame must re-encode to the bytes it came from.
			re, err := AppendNetFrame(nil, fr)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			if string(re) != string(buf[:n]) {
				t.Fatalf("re-encode mismatch")
			}
		}
	})
}
