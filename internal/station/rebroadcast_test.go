package station

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/wire"
)

func buildShardLay(t *testing.T, x *dsi.Index, bounds []int) *dsi.Layout {
	t.Helper()
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: len(bounds), Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func samePacket(a, b Packet) bool {
	return a.Ch == b.Ch && a.Slot == b.Slot && a.Flags == b.Flags && bytes.Equal(a.Payload, b.Payload)
}

// TestRebroadcastNoSwapBitIdentical is the control contract: with no
// swap staged, the transmitter serves its one cycle (Packet) at every
// absolute slot as version 1 on every channel, its directory is the
// bare shard directory at version 1, seam 0, and an uncoded one ships
// no FEC descriptor.
func TestRebroadcastNoSwapBitIdentical(t *testing.T) {
	ds := dataset.Uniform(180, 7, 61)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay := buildShardLay(t, x, []int{0, 11, 24, x.NF})
	tx, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < lay.Channels(); ch++ {
		l := lay.ChanLen(ch)
		for abs := 0; abs < 2*l+3; abs++ {
			got, ver := tx.PacketAt(ch, int64(abs))
			want := tx.Packet(ch, abs%l)
			if ver != 1 || !samePacket(got, want) {
				t.Fatalf("ch %d abs %d: packet (%+v, v%d) != transmitter %+v", ch, abs, got, ver, want)
			}
		}
	}
	if desc, ver := tx.FECDescAt(12345); desc != nil || ver != 1 {
		t.Fatalf("uncoded transmitter ships FEC descriptor %x as v%d", desc, ver)
	}
	buf, ver := tx.DirectoryAt(12345)
	if ver != 1 {
		t.Fatalf("directory: v%d", ver)
	}
	version, seam, _, err := wire.DecodeDirV(buf)
	if err != nil || version != 1 || seam != 0 {
		t.Fatalf("decoded directory v%d seam %d err %v", version, seam, err)
	}
	bare, err := tx.Directory()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[wire.DirVHeaderSize:], bare) {
		t.Fatal("versioned directory body differs from the bare directory")
	}
}

// TestRebroadcastIdenticalSwapBitIdentical: a version bump whose new
// directory carries the same shard map (the re-planner found no drift
// worth acting on, but the transmitter rotated the version anyway) must
// leave every packet of every channel unchanged, before, across, and
// after the seam — the wire/station half of the "replanning disabled is
// bit-identical" acceptance criterion.
func TestRebroadcastIdenticalSwapBitIdentical(t *testing.T) {
	ds := dataset.Uniform(200, 7, 67)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, 17, 60, x.NF}
	lay1 := buildShardLay(t, x, bounds)
	lay2 := buildShardLay(t, x, bounds)
	tx, err := NewMultiTransmitter(lay1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewMultiTransmitter(lay1)
	if err != nil {
		t.Fatal(err)
	}
	seam, err := r.Stage(lay2, 100)
	if err != nil {
		t.Fatal(err)
	}
	maxSeam := seam
	for ch := 0; ch < lay1.Channels(); ch++ {
		if s, ok := r.SeamOf(ch); ok && s > maxSeam {
			maxSeam = s
		}
	}
	check := func() {
		for ch := 0; ch < lay1.Channels(); ch++ {
			l := lay1.ChanLen(ch)
			for abs := int64(0); abs < maxSeam+2*int64(l); abs++ {
				got, _ := r.PacketAt(ch, abs)
				want := tx.Packet(ch, int(abs%int64(l)))
				if !samePacket(got, want) {
					t.Fatalf("ch %d abs %d: identical-bounds swap changed the stream", ch, abs)
				}
			}
		}
	}
	check()
	if r.Commit(maxSeam - 1) {
		t.Fatal("committed before every channel crossed its seam")
	}
	if !r.Commit(maxSeam) {
		t.Fatal("commit refused after the transition window")
	}
	if r.Version() != 2 {
		t.Fatalf("version %d after commit", r.Version())
	}
	check()
}

// TestRebroadcastTransitionWindow stages a genuinely different shard
// map and walks the transition: the index channel cuts over at the
// global seam while data channels finish their old cycles, so both
// directory versions are on air simultaneously; after the last seam the
// new streams are self-describing under the new directory; and a stale
// receiver scanning the new streams with the old directory is rejected,
// then converges by re-fetching the directory.
func TestRebroadcastTransitionWindow(t *testing.T) {
	ds := dataset.Uniform(180, 7, 71)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	oldB := []int{0, x.NF / 3, 2 * (x.NF / 3), x.NF}
	newB := []int{0, 9, 21, x.NF}
	oldLay := buildShardLay(t, x, oldB)
	newLay := buildShardLay(t, x, newB)
	oldTx, err := NewMultiTransmitter(oldLay)
	if err != nil {
		t.Fatal(err)
	}
	newTx, err := NewMultiTransmitter(newLay)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewMultiTransmitter(oldLay)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(17)
	swap, err := r.Stage(newLay, now)
	if err != nil {
		t.Fatal(err)
	}
	idxLen := int64(oldLay.ChanLen(0))
	if swap <= now || swap%idxLen != 0 {
		t.Fatalf("global seam %d not an index cycle boundary after %d", swap, now)
	}

	// Per-channel seams: first old-cycle boundary at or after the swap;
	// the cold shard's long cycle must outlast the index channel's.
	mixed := false
	var maxSeam int64
	for ch := 0; ch < oldLay.Channels(); ch++ {
		s, ok := r.SeamOf(ch)
		if !ok {
			t.Fatal("no seam during transition")
		}
		l := int64(oldLay.ChanLen(ch))
		if s < swap || s%l != 0 || s-swap >= l {
			t.Fatalf("ch %d seam %d (cycle %d, swap %d) not the first boundary at/after the swap", ch, s, l, swap)
		}
		if s > swap {
			mixed = true
		}
		if s > maxSeam {
			maxSeam = s
		}
	}
	if !mixed {
		t.Fatal("every channel seams exactly at the swap: transition window is empty, pick other bounds")
	}

	// During the window: old packets (old version) before a channel's
	// seam, new packets (new version) after.
	for ch := 0; ch < oldLay.Channels(); ch++ {
		s, _ := r.SeamOf(ch)
		for abs := swap - 5; abs < maxSeam+5; abs++ {
			got, ver := r.PacketAt(ch, abs)
			if abs < s {
				want := oldTx.Packet(ch, int(abs%int64(oldLay.ChanLen(ch))))
				if ver != 1 || !samePacket(got, want) {
					t.Fatalf("ch %d abs %d: pre-seam packet not the old stream (v%d)", ch, abs, ver)
				}
			} else {
				want := newTx.Packet(ch, int((abs-s)%int64(newLay.ChanLen(ch))))
				if ver != 2 || !samePacket(got, want) {
					t.Fatalf("ch %d abs %d: post-seam packet not the new stream (v%d)", ch, abs, ver)
				}
			}
		}
	}

	// The directory announcement leads the data seams: old before the
	// swap, new (with the seam slot) from it.
	if _, ver := r.DirectoryAt(swap - 1); ver != 1 {
		t.Fatalf("pre-swap directory v%d", ver)
	}
	bufNew, ver := r.DirectoryAt(swap)
	if ver != 2 {
		t.Fatalf("post-swap directory v%d", ver)
	}
	version, seam, _, err := wire.DecodeDirV(bufNew)
	if err != nil || version != 2 || seam != swap {
		t.Fatalf("new directory decodes to v%d seam %d err %v", version, seam, err)
	}

	// A stale receiver scans the post-seam streams against the OLD
	// directory: the geometry contradicts the air and the scan is
	// rejected rather than silently misassembling tables.
	collect := func(lay *dsi.Layout) []<-chan Packet {
		streams := make([]<-chan Packet, lay.Channels())
		for ch := 0; ch < lay.Channels(); ch++ {
			s, _ := r.SeamOf(ch)
			c := make(chan Packet, lay.ChanLen(ch))
			for i := 0; i < lay.ChanLen(ch); i++ {
				p, _ := r.PacketAt(ch, s+int64(i))
				c <- p
			}
			close(c)
			streams[ch] = c
		}
		return streams
	}
	oldDir, err := oldTx.Directory()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScanMultiDir(newLay, oldDir, collect(newLay)); err == nil {
		t.Fatal("stale directory accepted against the new streams")
	}
	// Convergence: re-fetch the announced directory and rescan — the
	// new streams are fully self-describing.
	frames, err := ScanMultiDir(newLay, bufNew[wire.DirVHeaderSize:], collect(newLay))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for pos, fi := range frames {
		if fi.MinHC != x.MinHC(x.PosToFrame(pos)) {
			t.Fatalf("pos %d: min HC %d", pos, fi.MinHC)
		}
		total += len(fi.Headers)
	}
	if total != ds.N() {
		t.Fatalf("%d headers, want %d", total, ds.N())
	}

	// After the last seam the swap commits and the new schedule is
	// simply on air.
	if !r.Commit(maxSeam) {
		t.Fatal("commit refused")
	}
	if r.Layout() != newLay || r.Version() != 2 {
		t.Fatalf("committed to %v v%d", r.Layout(), r.Version())
	}
	for ch := 0; ch < newLay.Channels(); ch++ {
		abs := maxSeam + 7
		got, ver := r.PacketAt(ch, abs)
		s := r.air.Load().cur.clocks[ch].phase
		want := newTx.Packet(ch, int((abs-s)%int64(newLay.ChanLen(ch))))
		if ver != 2 || !samePacket(got, want) {
			t.Fatalf("ch %d: committed stream broken", ch)
		}
	}
}

// TestRebroadcastStageErrors covers the staging validation.
func TestRebroadcastStageErrors(t *testing.T) {
	ds := dataset.Uniform(150, 7, 73)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay := buildShardLay(t, x, []int{0, 20, x.NF})
	r, err := NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}

	other := dataset.Uniform(150, 7, 74)
	ox, err := dsi.Build(other, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stage(buildShardLay(t, ox, []int{0, 20, ox.NF}), 0); err == nil {
		t.Error("different index staged")
	}
	if _, err := r.Stage(buildShardLay(t, x, []int{0, 10, 20, x.NF}), 0); err == nil {
		t.Error("different channel count staged")
	}
	if _, err := r.Stage(lay, -1); err == nil {
		t.Error("negative stage time accepted")
	}
	if _, err := r.Stage(buildShardLay(t, x, []int{0, 30, x.NF}), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stage(buildShardLay(t, x, []int{0, 40, x.NF}), 5); err == nil {
		t.Error("double stage accepted")
	}
	// A single-channel layout has no directory to version: it goes on
	// air, but cannot be swapped.
	single, err := NewMultiTransmitter(x.SingleLayout())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Stage(x.SingleLayout(), 0); err == nil {
		t.Error("directoryless layout staged")
	}
}

// TestRebroadcastConcurrent hammers ReadRunAt/DirectoryAt from reader
// goroutines while the control goroutine stages and commits 20 swaps,
// and holds every packet of every run to the producer's contract: the
// packet a reader gets is what an unstaged transmitter of its version's
// layout broadcasts at that slot of that version's cycle. Runs of one to
// five slots cross seams, so one run may carry both versions. A read
// that mixed two snapshots — one generation's version or phase with
// another's packet — fails it; the race detector checks the rest.
func TestRebroadcastConcurrent(t *testing.T) {
	ds := dataset.Uniform(150, 7, 79)
	x, err := dsi.Build(ds, dsi.Config{ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	const swaps = 20
	lays := []*dsi.Layout{buildShardLay(t, x, []int{0, 15, x.NF})}
	for i := 0; i < swaps; i++ {
		lays = append(lays, buildShardLay(t, x, []int{0, 10 + i, x.NF}))
	}
	// run is the control loop, letting the readers through settle after
	// every Stage and Commit. It is deterministic, so a dry run on a
	// private producer yields every version's channel clocks before the
	// readers start.
	run := func(r *MultiTransmitter, settle func()) [][]clock {
		clocks := [][]clock{r.air.Load().cur.clocks}
		for i := 1; i <= swaps; i++ {
			seam, err := r.Stage(lays[i], int64(i*100))
			if err != nil {
				t.Error(err)
				return nil
			}
			settle()
			deadline := seam
			for ch := 0; ch < lays[0].Channels(); ch++ {
				if s, ok := r.SeamOf(ch); ok && s > deadline {
					deadline = s
				}
			}
			if !r.Commit(deadline) {
				t.Error("commit refused at its own deadline")
				return nil
			}
			settle()
			clocks = append(clocks, r.air.Load().cur.clocks)
		}
		return clocks
	}
	dry, err := NewMultiTransmitter(lays[0])
	if err != nil {
		t.Fatal(err)
	}
	clocks := run(dry, func() {})
	if t.Failed() {
		return
	}
	refs := make([]*MultiTransmitter, len(lays))
	for v, lay := range lays {
		if refs[v], err = NewMultiTransmitter(lay); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewMultiTransmitter(lays[0])
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const longest = 5
			buf := make([]byte, 0, longest*x.Cfg.Capacity)
			var run [longest]Packet
			for abs := int64(g); ; abs += 3 {
				select {
				case <-stop:
					return
				default:
				}
				ch := int(abs) % lays[0].Channels()
				n := 1 + int(abs/3)%longest
				r.ReadRunAt(run[:n], buf, ch, abs)
				reads.Add(1)
				for i, got := range run[:n] {
					at, ver := abs+int64(i), got.Ver
					if ver < 1 || int(ver) > len(lays) {
						t.Errorf("abs %d ch %d: version %d never went on air", at, ch, ver)
						return
					}
					c := clocks[ver-1][ch]
					slot := ((at-c.phase)%c.len + c.len) % c.len
					if want := refs[ver-1].Packet(ch, int(slot)); !samePacket(got, want) {
						t.Errorf("abs %d ch %d v%d: packet %+v, version %d's cycle has %+v at slot %d",
							at, ch, ver, got, ver, want, slot)
						return
					}
				}
				if abs%7 == 0 {
					r.DirectoryAt(abs)
				}
			}
		}(g)
	}
	run(r, func() {
		for n := reads.Load() + 256; reads.Load() < n && !t.Failed(); {
			runtime.Gosched()
		}
	})
	close(stop)
	wg.Wait()
}
