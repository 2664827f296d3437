package wire

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

func TestGFFieldProperties(t *testing.T) {
	// alpha generates the multiplicative group: all 255 powers distinct.
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		if seen[gfExp[i]] {
			t.Fatalf("alpha^%d = %#x repeats", i, gfExp[i])
		}
		seen[gfExp[i]] = true
	}
	// The product table is the log/antilog product, zero included.
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := byte(0)
			if a != 0 && b != 0 {
				want = gfExp[int(gfLog[a])+int(gfLog[b])]
			}
			if got := gfMulTab[a][b]; got != want {
				t.Fatalf("product table: %d*%d = %d, want %d", a, b, got, want)
			}
		}
	}
	gfMul := func(a, b byte) byte { return gfMulTab[a][b] }
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
	// Spot-check associativity and distributivity on a pseudo-random sample.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatalf("associativity fails for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
	}
}

func randSymbols(rng *rand.Rand, k, symLen int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, symLen)
		rng.Read(data[i])
	}
	return data
}

func TestRSRecoverAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []struct{ k, r int }{{1, 1}, {4, 1}, {5, 2}, {8, 3}, {8, 8}} {
		orig := randSymbols(rng, dim.k, 32)
		parity := RSParity(orig, dim.r)
		// Every erasure pattern with at most r erased data symbols must
		// recover exactly, for every subset of surviving parity rows
		// large enough to cover it.
		for mask := 0; mask < 1<<dim.k; mask++ {
			e := 0
			for i := 0; i < dim.k; i++ {
				if mask&(1<<i) != 0 {
					e++
				}
			}
			if e == 0 || e > dim.r {
				continue
			}
			data := make([][]byte, dim.k)
			for i := range data {
				if mask&(1<<i) == 0 {
					data[i] = orig[i]
				}
			}
			// Drop parity rows from the end until exactly e survive.
			par := make([][]byte, dim.r)
			copy(par, parity)
			for j := dim.r - 1; j >= e; j-- {
				par[j] = nil
			}
			if !RSRecover(data, par) {
				t.Fatalf("k=%d r=%d mask=%#x: recovery failed with %d rows", dim.k, dim.r, mask, e)
			}
			for i := range data {
				if !bytes.Equal(data[i], orig[i]) {
					t.Fatalf("k=%d r=%d mask=%#x: symbol %d mismatch", dim.k, dim.r, mask, i)
				}
			}
		}
	}
}

func TestRSRecoverScatteredParityLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	orig := randSymbols(rng, 6, 24)
	parity := RSParity(orig, 4)
	data := make([][]byte, 6)
	copy(data, orig)
	data[1], data[4] = nil, nil
	par := make([][]byte, 4)
	copy(par, parity)
	par[0], par[2] = nil, nil // only rows 1 and 3 survive — a non-prefix subset
	if !RSRecover(data, par) {
		t.Fatal("recovery failed with two scattered parity rows for two erasures")
	}
	for i := range data {
		if !bytes.Equal(data[i], orig[i]) {
			t.Fatalf("symbol %d mismatch", i)
		}
	}
}

func TestRSRecoverBeyondDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := randSymbols(rng, 5, 16)
	parity := RSParity(orig, 2)
	data := make([][]byte, 5)
	copy(data, orig)
	data[0], data[2], data[3] = nil, nil, nil // 3 erasures > 2 rows
	if RSRecover(data, parity) {
		t.Fatal("recovery claimed success beyond the code distance")
	}
	if data[0] != nil || data[2] != nil || data[3] != nil {
		t.Fatal("failed recovery wrote into erased slots")
	}
	// Losing parity too: 2 erasures but only 1 surviving row.
	data = make([][]byte, 5)
	copy(data, orig)
	data[0], data[2] = nil, nil
	if RSRecover(data, [][]byte{parity[0], nil}) {
		t.Fatal("recovery claimed success with fewer rows than erasures")
	}
}

func TestRSParityRow0IsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randSymbols(rng, 4, 16)
	parity := RSParity(data, 1)
	want := make([]byte, 16)
	for _, d := range data {
		for b := range want {
			want[b] ^= d[b]
		}
	}
	if !bytes.Equal(parity[0], want) {
		t.Fatal("parity row 0 is not the XOR of the group")
	}
}

// TestRSParityIntoMatchesRSParity computes parity into rows cut from
// one shared buffer, as a transmitter's parity arena does, over rows
// holding stale bytes: every row must equal RSParity's, and no byte
// outside the rows may change.
func TestRSParityIntoMatchesRSParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []struct{ k, r, symLen int }{{1, 1, 8}, {4, 1, 64}, {16, 8, 64}, {5, 3, 0}} {
		data := randSymbols(rng, dim.k, dim.symLen)
		want := RSParity(data, dim.r)
		const gap = 3
		buf := make([]byte, dim.r*(dim.symLen+gap))
		rng.Read(buf)
		orig := append([]byte(nil), buf...)
		rows := make([][]byte, dim.r)
		for j := range rows {
			at := j * (dim.symLen + gap)
			rows[j] = buf[at : at+dim.symLen]
		}
		RSParityInto(rows, data)
		for j := range rows {
			if !bytes.Equal(rows[j], want[j]) {
				t.Fatalf("k=%d r=%d: row %d differs from RSParity", dim.k, dim.r, j)
			}
			at := j*(dim.symLen+gap) + dim.symLen
			if !bytes.Equal(buf[at:at+gap], orig[at:at+gap]) {
				t.Fatalf("k=%d r=%d: row %d wrote past its symbol", dim.k, dim.r, j)
			}
		}
	}
}

// TestRSParityIsTheVandermondeSum holds every parity row to its
// definition, Sum_i alpha^(i*j) * data_i, summed a byte at a time from
// the log tables: rows 1 and 2 go by Horner's rule over words, the rest
// through the product table, and symbol lengths that are no multiple of
// a word take the byte-wise tail of both.
func TestRSParityIsTheVandermondeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mul := func(a, b byte) byte {
		if a == 0 || b == 0 {
			return 0
		}
		return gfExp[int(gfLog[a])+int(gfLog[b])]
	}
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		for _, symLen := range []int{0, 1, 7, 8, 13, 64, 82} {
			data := randSymbols(rng, k, symLen)
			got := RSParity(data, 8)
			for j, row := range got {
				for b := range symLen {
					var want byte
					for i, d := range data {
						want ^= mul(gfExp[(i*j)%255], d[b])
					}
					if row[b] != want {
						t.Fatalf("k=%d symLen=%d: row %d byte %d = %#x, want %#x", k, symLen, j, b, row[b], want)
					}
				}
			}
		}
	}
}

// recoverCase is one erasure pattern of one code group: k data symbols
// of symLen random bytes under r parity rows, members whose bit is set
// in erase erased and parity rows whose bit is set in lost lost.
// It solves the pattern with s and with a fresh RSRecover and fails
// unless both agree: the same verdict, the original symbols on
// success, and data untouched on failure. It reports the verdict.
func recoverCase(t *testing.T, s *RSSolver, rng *rand.Rand, k, r, symLen int, erase, lost uint64) bool {
	t.Helper()
	orig := randSymbols(rng, k, symLen)
	parity := RSParity(orig, r)
	data := make([][]byte, k)
	for i := range data {
		if erase&(1<<uint(i)) == 0 {
			data[i] = orig[i]
		}
	}
	par := make([][]byte, r)
	received := 0
	for j := range par {
		if lost&(1<<uint(j)) == 0 {
			par[j] = parity[j]
			received++
		}
	}
	fresh := append([][]byte(nil), data...)
	want := RSRecover(fresh, par)
	got := s.Recover(data, par)
	name := func() string { return fmt.Sprintf("k=%d r=%d len=%d erase=%#x lost=%#x", k, r, symLen, erase, lost) }
	if got != want {
		t.Fatalf("%s: reused solver says %v, fresh RSRecover %v", name(), got, want)
	}
	if erased := bits.OnesCount64(erase); erased > received && got {
		t.Fatalf("%s: %d erasures recovered from %d rows", name(), erased, received)
	}
	for i := range data {
		switch {
		case got && !bytes.Equal(data[i], orig[i]):
			t.Fatalf("%s: symbol %d recovered wrong", name(), i)
		case got && !bytes.Equal(fresh[i], orig[i]):
			t.Fatalf("%s: fresh RSRecover got symbol %d wrong", name(), i)
		case !got && erase&(1<<uint(i)) != 0 && data[i] != nil:
			t.Fatalf("%s: a failed solve wrote erased symbol %d", name(), i)
		case !got && erase&(1<<uint(i)) == 0 && symLen > 0 && &data[i][0] != &orig[i][0]:
			t.Fatalf("%s: a failed solve replaced received symbol %d", name(), i)
		}
	}
	return got
}

// TestRSSolverReuse runs one solver through random groups — k <= 16,
// r <= 8, symbol lengths 0..96, any erasure pattern and lost parity
// rows, within and beyond the code distance — so every solve starts
// on scratch a different system left behind.
func TestRSSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s RSSolver
	solved, failed := 0, 0
	for trial := 0; trial < 2000; trial++ {
		k, r := 1+rng.Intn(16), 1+rng.Intn(8)
		erase := rng.Uint64() & (1<<uint(k) - 1)
		if trial%2 == 0 {
			// Half the trials stay within the distance, which then fails
			// only where the surviving rows are rank-deficient.
			erase = 0
			for _, i := range rng.Perm(k)[:rng.Intn(min(k, r)+1)] {
				erase |= 1 << uint(i)
			}
		}
		lost := uint64(0)
		if rng.Intn(3) == 0 {
			lost = rng.Uint64() & (1<<uint(r) - 1)
		}
		if recoverCase(t, &s, rng, k, r, rng.Intn(97), erase, lost) {
			solved++
		} else {
			failed++
		}
	}
	if solved == 0 || failed == 0 {
		t.Fatalf("%d solved, %d failed: the sweep must cover both verdicts", solved, failed)
	}
}

func TestFECCodeValidate(t *testing.T) {
	ok := []struct {
		c FECCode
		n int
	}{
		{FECCode{}, 5}, {FECCode{Groups: 1, Parity: 1}, 5},
		{FECCode{Groups: 4, Parity: 2}, 16}, {FECCode{Groups: 1, Parity: 200}, 16},
	}
	for _, tc := range ok {
		if err := tc.c.Validate(tc.n); err != nil {
			t.Fatalf("%+v over %d packets: %v", tc.c, tc.n, err)
		}
	}
	bad := []struct {
		c FECCode
		n int
	}{
		{FECCode{Groups: 0, Parity: 1}, 5},  // parity with no groups
		{FECCode{Groups: 6, Parity: 1}, 5},  // more groups than members
		{FECCode{Groups: 1, Parity: 1}, 65}, // unit exceeds the bitmap
		{FECCode{Groups: 1, Parity: 250}, 16},
		{FECCode{Groups: 1, Parity: 300}, 16},
	}
	for _, tc := range bad {
		if err := tc.c.Validate(tc.n); err == nil {
			t.Fatalf("%+v over %d packets: want error", tc.c, tc.n)
		}
	}
}

func TestFECCodeGroupMembers(t *testing.T) {
	c := FECCode{Groups: 3, Parity: 1}
	n := 8 // members 0..7 interleave as groups {0,3,6}, {1,4,7}, {2,5}
	wantBits := []uint64{1<<0 | 1<<3 | 1<<6, 1<<1 | 1<<4 | 1<<7, 1<<2 | 1<<5}
	wantK := []int{3, 3, 2}
	total := uint64(0)
	for g := 0; g < c.Groups; g++ {
		members, k := c.GroupMembers(n, g)
		if members != wantBits[g] || k != wantK[g] {
			t.Fatalf("group %d: members %#x k=%d, want %#x k=%d", g, members, k, wantBits[g], wantK[g])
		}
		total |= members
	}
	if total != 1<<uint(n)-1 {
		t.Fatalf("groups cover %#x, want all %d members", total, n)
	}
}

// TestPutParityInPlace encodes a parity frame into a window of a
// shared arena whose symbol bytes already hold the symbol: the frame
// must equal EncodeParity's, and the arena outside it must not change.
func TestPutParityInPlace(t *testing.T) {
	h := ParityHeader{Unit: 99, Group: 1, K: 4, R: 2, Index: 1, Members: 0b1010_1010}
	sym := bytes.Repeat([]byte{0x5C, 0x17}, 32)
	const stride = ParityHeaderSize + 64
	arena := bytes.Repeat([]byte{0xEE}, 3*stride)
	frame := arena[stride : 2*stride]
	copy(frame[ParityHeaderSize:], sym)
	PutParity(frame, h, frame[ParityHeaderSize:])
	if !bytes.Equal(frame, EncodeParity(h, sym)) {
		t.Fatal("in-place frame differs from EncodeParity")
	}
	for _, b := range append(arena[:stride:stride], arena[2*stride:]...) {
		if b != 0xEE {
			t.Fatal("PutParity wrote outside its frame")
		}
	}
}

func TestParityRoundtrip(t *testing.T) {
	h := ParityHeader{Unit: 1234, Group: 2, K: 3, R: 5, Index: 4, Members: 1<<2 | 1<<5 | 1<<8}
	sym := bytes.Repeat([]byte{0xAB}, 64)
	buf := EncodeParity(h, sym)
	got, gotSym, err := DecodeParity(buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(gotSym, sym) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestDecodeParityRejects(t *testing.T) {
	h := ParityHeader{Unit: 7, Group: 0, K: 2, R: 1, Index: 0, Members: 0b11}
	good := EncodeParity(h, make([]byte, 32))
	cases := map[string][]byte{
		"truncated":  good[:len(good)-1],
		"wrong size": append(append([]byte{}, good...), 0),
		"bad magic": func() []byte {
			b := append([]byte{}, good...)
			b[0] ^= 0xff
			return b
		}(),
		"row outside R": func() []byte {
			b := append([]byte{}, good...)
			b[9] = 1 // Index == R
			return b
		}(),
		"zero rows": func() []byte {
			b := append([]byte{}, good...)
			b[8] = 0
			return b
		}(),
		"bitmap mismatch": func() []byte {
			b := append([]byte{}, good...)
			b[7] = 3 // K=3 but bitmap has 2 bits
			return b
		}(),
		"zero members": func() []byte {
			b := append([]byte{}, good...)
			b[7] = 0
			binary4zero(b[10:18])
			return b
		}(),
	}
	for name, buf := range cases {
		if _, _, err := DecodeParity(buf, 32); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

func binary4zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func TestFECDescRoundtrip(t *testing.T) {
	c := FECConfig{Table: FECCode{Groups: 1, Parity: 2}, Object: FECCode{Groups: 4, Parity: 6}}
	buf, err := EncodeFECDesc(c, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, ver, err := DecodeFECDesc(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != c || ver != 42 {
		t.Fatalf("roundtrip mismatch: %+v version %d", got, ver)
	}
	if _, err := EncodeFECDesc(FECConfig{Table: FECCode{Groups: 256, Parity: 1}}, 1); err == nil {
		t.Fatal("want field-width error")
	}
}

func TestDecodeFECDescRejects(t *testing.T) {
	good, err := EncodeFECDesc(FECConfig{Object: FECCode{Groups: 2, Parity: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated": good[:FECDescSize-1],
		"oversized": append(append([]byte{}, good...), 0),
		"bad magic": func() []byte {
			b := append([]byte{}, good...)
			b[1] ^= 0xff
			return b
		}(),
		"parity without groups": func() []byte {
			b := append([]byte{}, good...)
			b[8] = 0 // object groups 0, parity still 1
			return b
		}(),
	}
	for name, buf := range cases {
		if _, _, err := DecodeFECDesc(buf); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

// BenchmarkMulAddInto is the GF(256) inner loop every parity row and
// every elimination step runs: dst ^= c*src over a 1 KiB symbol.
func BenchmarkMulAddInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := make([]byte, 1024), make([]byte, 1024)
	rng.Read(src)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		mulAddInto(dst, src, byte(2+i%250))
	}
}
