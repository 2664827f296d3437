package hilbert

import (
	"math/rand"
	"testing"
)

// TestLUTMatchesScalar pins the table-driven Encode/Decode to the
// bit-at-a-time reference implementation across every order, including
// the ones that need pad-state compensation (order % 4 != 0).
func TestLUTMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for order := uint(1); order <= MaxOrder; order++ {
		c := New(order)
		side := uint64(c.Side())
		for i := 0; i < 200; i++ {
			x := uint32(rng.Uint64() % side)
			y := uint32(rng.Uint64() % side)
			want := c.encodeScalar(x, y)
			if got := c.Encode(x, y); got != want {
				t.Fatalf("order %d: Encode(%d,%d) = %d, scalar %d", order, x, y, got, want)
			}
			wx, wy := c.decodeScalar(want)
			if gx, gy := c.Decode(want); gx != wx || gy != wy {
				t.Fatalf("order %d: Decode(%d) = (%d,%d), scalar (%d,%d)", order, want, gx, gy, wx, wy)
			}
		}
	}
}

// TestLUTExhaustiveSmallOrders checks every cell of the small curves.
func TestLUTExhaustiveSmallOrders(t *testing.T) {
	for order := uint(1); order <= 6; order++ {
		c := New(order)
		for x := uint32(0); x < c.Side(); x++ {
			for y := uint32(0); y < c.Side(); y++ {
				want := c.encodeScalar(x, y)
				if got := c.Encode(x, y); got != want {
					t.Fatalf("order %d: Encode(%d,%d) = %d, scalar %d", order, x, y, got, want)
				}
			}
		}
		for d := uint64(0); d < c.Size(); d++ {
			wx, wy := c.decodeScalar(d)
			if gx, gy := c.Decode(d); gx != wx || gy != wy {
				t.Fatalf("order %d: Decode(%d) = (%d,%d), scalar (%d,%d)", order, d, gx, gy, wx, wy)
			}
		}
	}
}

// TestAppendRangesReuse verifies the append APIs reuse the caller's
// buffer, keep prior contents intact, and equal the plain APIs.
func TestAppendRangesReuse(t *testing.T) {
	c := New(6)
	buf := make([]Range, 0, 64)
	buf = append(buf, Range{Lo: 999, Hi: 1000}) // sentinel to preserve

	got := c.AppendRanges(buf, 3, 5, 20, 17)
	want := c.Ranges(3, 5, 20, 17)
	if got[0] != (Range{Lo: 999, Hi: 1000}) {
		t.Fatal("AppendRanges clobbered existing elements")
	}
	if len(got) != 1+len(want) {
		t.Fatalf("AppendRanges produced %d ranges, want %d", len(got)-1, len(want))
	}
	for i, r := range want {
		if got[1+i] != r {
			t.Fatalf("range %d = %v, want %v", i, got[1+i], r)
		}
	}

	gotD := c.AppendRangesDisk(nil, 31, 20, 7.5)
	wantD := c.RangesDisk(31, 20, 7.5)
	if len(gotD) != len(wantD) {
		t.Fatalf("disk: %d vs %d ranges", len(gotD), len(wantD))
	}
	for i := range wantD {
		if gotD[i] != wantD[i] {
			t.Fatalf("disk range %d differs", i)
		}
	}

	// Steady-state decomposition into a warm buffer must not allocate.
	warm := c.AppendRanges(nil, 3, 5, 20, 17)
	allocs := testing.AllocsPerRun(50, func() {
		warm = c.AppendRanges(warm[:0], 3, 5, 20, 17)
	})
	if allocs != 0 {
		t.Errorf("warm AppendRanges allocated %.1f times per run", allocs)
	}
}

func BenchmarkEncodeScalar(b *testing.B) {
	c := New(16)
	for i := 0; i < b.N; i++ {
		c.encodeScalar(uint32(i)%c.Side(), uint32(i*7)%c.Side())
	}
}

func BenchmarkDecodeScalar(b *testing.B) {
	c := New(16)
	for i := 0; i < b.N; i++ {
		c.decodeScalar(uint64(i) % c.Size())
	}
}
