// GF(256) arithmetic and the Vandermonde erasure code the FEC layer
// rests on. The field is GF(2^8) with the usual primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11d) and generator alpha = 2; addition is XOR,
// so a rate-(k/(k+1)) code with one parity row degenerates to the plain
// XOR parity group and the same machinery serves both code families the
// FEC design names (XOR groups first, Reed-Solomon-style for
// multi-loss bursts).
//
// Parity row j of a group is Sum_i alpha^(i*j) * data_i: row 0 is the
// all-ones XOR row, rows 1..r-1 extend it to a Vandermonde system in
// the distinct nodes alpha^i. Decoding solves the erased columns from
// whichever parity rows arrived, by Gaussian elimination over all
// received rows — recovery succeeds exactly when the received equations
// determine the erasures, with no reliance on submatrix-regularity
// folklore (a rank-deficient system reports failure instead of
// producing garbage).

package wire

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// gfPoly is the primitive polynomial of the field (0x11d without the
// x^8 term once reduced).
const gfPoly = 0x1d

// gfExp holds alpha^i for i in [0, 510) so products of two logs need no
// modular reduction; gfLog is its inverse on [1, 255].
var gfExp, gfLog = gfTables()

// gfMulTab[a][b] is the product a*b: one load per byte where the log
// tables take two and a zero branch (64 KiB of static data, filled once
// from them).
var gfMulTab [256][256]byte

func init() {
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMulTab[a][b] = gfExp[int(gfLog[a])+int(gfLog[b])]
		}
	}
}

func gfTables() (exp [510]byte, log [256]byte) {
	x := 1
	for i := 0; i < 255; i++ {
		exp[i] = byte(x)
		exp[i+255] = byte(x)
		log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x = (x ^ 0x100) ^ gfPoly
		}
	}
	return exp, log
}

// gfInv returns the multiplicative inverse of a non-zero element.
func gfInv(a byte) byte {
	if a == 0 {
		panic("wire: inverse of zero in GF(256)")
	}
	return gfExp[255-int(gfLog[a])]
}

// gfCoef returns the Vandermonde coefficient alpha^(i*j) of data
// column i in parity row j.
func gfCoef(i, j int) byte {
	return gfExp[(i*j)%255]
}

// mulAddInto accumulates dst ^= c * src over whole symbols.
func mulAddInto(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		if len(src) > 0 {
			_ = dst[len(src)-1]
			subtle.XORBytes(dst, dst, src) // word-wide: the XOR row is most of every light code
		}
		return
	}
	t := &gfMulTab[c]
	for b, v := range src {
		dst[b] ^= t[v]
	}
}

// RSParity computes the r parity symbols of one code group. Every data
// symbol must have the same length; the returned parity symbols share
// it. Row 0 is the XOR of the group, so r = 1 is the plain XOR code.
func RSParity(data [][]byte, r int) [][]byte {
	if len(data) == 0 || r <= 0 {
		return nil
	}
	symLen := len(data[0])
	buf := make([]byte, r*symLen)
	out := make([][]byte, r)
	for j := range out {
		out[j] = buf[j*symLen : (j+1)*symLen : (j+1)*symLen]
	}
	RSParityInto(out, data)
	return out
}

// RSParityInto is RSParity into rows the caller owns: parity[j] is
// overwritten with parity row j of the group, so len(parity) is the
// row count r. Every data symbol and every row must have the same
// length.
func RSParityInto(parity, data [][]byte) {
	if len(data)+len(parity) > 255 {
		panic(fmt.Sprintf("wire: code group of %d data + %d parity exceeds GF(256)", len(data), len(parity)))
	}
	for j, p := range parity {
		for i, d := range data {
			if len(d) != len(p) {
				panic(fmt.Sprintf("wire: symbol %d is %dB, group uses %dB", i, len(d), len(p)))
			}
		}
		if (j == 1 || j == 2) && len(data) > 0 {
			hornerRow(p, data, j)
			continue
		}
		clear(p)
		for i, d := range data {
			mulAddInto(p, d, gfCoef(i, j))
		}
	}
}

// hornerRow writes parity row j = Sum_i (alpha^j)^i * data_i into p by
// Horner's rule — p = alpha^j * p + data_i from the last column down —
// so a row costs j multiplications by alpha a column instead of a
// product-table lookup a byte, and those run eight bytes to a word
// (mulAlpha64). It pays for rows 1 and 2, whose multiplier is one or
// two doublings.
func hornerRow(p []byte, data [][]byte, j int) {
	copy(p, data[len(data)-1])
	t := &gfMulTab[gfExp[j]]
	for i := len(data) - 2; i >= 0; i-- {
		d := data[i]
		b := 0
		for ; b+8 <= len(p); b += 8 {
			v := mulAlpha64(binary.LittleEndian.Uint64(p[b:]))
			if j == 2 {
				v = mulAlpha64(v)
			}
			binary.LittleEndian.PutUint64(p[b:], v^binary.LittleEndian.Uint64(d[b:]))
		}
		for ; b < len(p); b++ {
			p[b] = t[p[b]] ^ d[b]
		}
	}
}

// mulAlpha64 multiplies each of the eight field elements packed in v by
// alpha: a left shift per byte, reduced by gfPoly in the bytes whose top
// bit shifted out.
func mulAlpha64(v uint64) uint64 {
	const top = 0x8080808080808080
	hi := v & top
	return (v&^top)<<1 ^ (hi>>7)*gfPoly
}

// RSRecover reconstructs the erased data symbols of one code group in
// place. data[i] == nil marks an erasure; parity[j] == nil marks a
// parity symbol that was itself lost. It reports whether every erasure
// was recovered: recovery solves the received parity equations for the
// erased columns and fails (leaving data untouched) when they do not
// determine all of them — more erasures than surviving parity rows, or
// a rank-deficient system. The recovered symbols are the caller's.
func RSRecover(data [][]byte, parity [][]byte) bool {
	return new(RSSolver).Recover(data, parity)
}

// RSSolver is RSRecover with scratch that outlives a call: the erased
// columns and the equation rows live in storage the solver keeps and
// reuses, so a receiver that solves group after group allocates only
// while the largest system it has met grows.
type RSSolver struct {
	erased []int
	rows   [][]byte // the equations, each a window of arena
	arena  []byte   // the rows' bytes: coefficients, then right-hand side
}

// Recover is RSRecover over the solver's scratch. A recovered symbol
// aliases the solver and holds its value only until the next Recover:
// a caller copies what it keeps.
func (s *RSSolver) Recover(data [][]byte, parity [][]byte) bool {
	erased := s.erased[:0]
	symLen := -1
	for i, d := range data {
		if d == nil {
			erased = append(erased, i)
		} else if symLen < 0 {
			symLen = len(d)
		}
	}
	s.erased = erased
	if len(erased) == 0 {
		return true
	}
	received := 0
	for _, p := range parity {
		if p != nil {
			received++
			if symLen < 0 {
				symLen = len(p)
			}
		}
	}
	if symLen < 0 {
		return false // nothing received at all
	}
	if received < len(erased) {
		return false
	}

	// One equation per received parity row: the erased columns on the
	// left, the parity minus the known columns on the right.
	width := len(erased) + symLen
	if cap(s.arena) < received*width {
		s.arena = make([]byte, received*width)
	}
	rows := s.rows[:0]
	for j, p := range parity {
		if p == nil {
			continue
		}
		at := len(rows) * width
		row := s.arena[at : at+width : at+width]
		for m, i := range erased {
			row[m] = gfCoef(i, j)
		}
		rhs := row[len(erased):]
		clear(rhs[copy(rhs, p):])
		for i, d := range data {
			if d != nil {
				mulAddInto(rhs, d, gfCoef(i, j))
			}
		}
		rows = append(rows, row)
	}
	s.rows = rows

	// Gauss-Jordan over the received rows.
	for col := 0; col < len(erased); col++ {
		pivot := -1
		for r := col; r < len(rows); r++ {
			if rows[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return false // rank-deficient: the erasures are undetermined
		}
		rows[col], rows[pivot] = rows[pivot], rows[col]
		if c := rows[col][col]; c != 1 {
			t := &gfMulTab[gfInv(c)]
			row := rows[col]
			for b := col; b < len(row); b++ {
				row[b] = t[row[b]]
			}
		}
		for r := range rows {
			if r != col && rows[r][col] != 0 {
				mulAddInto(rows[r][col:], rows[col][col:], rows[r][col])
			}
		}
	}
	for m, i := range erased {
		data[i] = rows[m][len(erased):]
	}
	return true
}
