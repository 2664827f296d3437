package diskstore

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/station/stationtest"
	"dsi/internal/wire"
)

func packetEq(a, b station.Packet) bool {
	return a.Ch == b.Ch && a.Slot == b.Slot && a.Flags == b.Flags && bytes.Equal(a.Payload, b.Payload)
}

// comparePackets walks every channel's full cycle on both sources and
// fails on the first differing packet.
func comparePackets(t *testing.T, want, got station.PacketSource, chanSlots []int) {
	t.Helper()
	for ch, slots := range chanSlots {
		for slot := 0; slot < slots; slot++ {
			pw, vw := want.PacketAt(ch, int64(slot))
			pg, vg := got.PacketAt(ch, int64(slot))
			if vw != vg {
				t.Fatalf("ch %d slot %d: version %d != %d", ch, slot, vg, vw)
			}
			if !packetEq(pw, pg) {
				t.Fatalf("ch %d slot %d: packet %+v != %+v", ch, slot, pg, pw)
			}
		}
		// Wrap-around addressing must agree too.
		pw, _ := want.PacketAt(ch, int64(slots)+3)
		pg, _ := got.PacketAt(ch, int64(slots)+3)
		if !packetEq(pw, pg) {
			t.Fatalf("ch %d: wrapped slot disagrees", ch)
		}
	}
}

// TestStreamImageIdentity is the tentpole regression: the image built
// out-of-core (external sort, sorted object file, geometry-only
// streaming source) must be byte-identical to the image of the one
// static transmitter over the in-memory build's SingleLayout — and its
// packets identical to the transmitter's.
func TestStreamImageIdentity(t *testing.T) {
	cases := []struct {
		n        int
		order    uint
		capacity int
		objBytes int
		segments int
		budget   int
	}{
		{n: 300, order: 7, capacity: 64, objBytes: 1024, segments: 1, budget: 37},   // spills many runs
		{n: 500, order: 8, capacity: 128, objBytes: 256, segments: 1, budget: 0},    // in-memory fast path
		{n: 400, order: 8, capacity: 64, objBytes: 1024, segments: 2, budget: 64},   // reorganized broadcast
		{n: 257, order: 8, capacity: 512, objBytes: 1024, segments: 1, budget: 100}, // multi-object frames
	}
	for _, tc := range cases {
		cfg := dsi.Config{Capacity: tc.capacity, Segments: tc.segments, ObjectBytes: tc.objBytes}
		ds := dataset.Uniform(tc.n, tc.order, 42)
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := station.NewMultiTransmitter(x.SingleLayout())
		if err != nil {
			t.Fatal(err)
		}
		meta := wire.StationMeta{
			Dataset:  wire.StationDataset{Kind: "uniform", N: tc.n, Order: tc.order, Seed: 42, Sum: ds.Checksum()},
			Capacity: x.Cfg.Capacity, Segments: x.Cfg.Segments, ObjectBytes: x.Cfg.ObjectBytes,
			Channels: 1, Scheduler: "single",
		}

		dir := t.TempDir()
		memPath := filepath.Join(dir, "mem.img")
		info, ok := InfoFor(tr, meta)
		if !ok {
			t.Fatal("InfoFor failed for the single-layout transmitter")
		}
		if err := WriteImageFile(memPath, tr, info); err != nil {
			t.Fatal(err)
		}

		diskPath := filepath.Join(dir, "disk.img")
		stats, err := BuildImage(diskPath, UniformStream(tc.n, tc.order, 42),
			cfg, BuildOptions{Budget: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Checksum != ds.Checksum() {
			t.Fatalf("streaming checksum %#x != dataset checksum %#x", stats.Checksum, ds.Checksum())
		}
		if tc.budget > 0 && tc.n/tc.budget > 1 && stats.SpilledRuns < 2 {
			t.Fatalf("budget %d over %d objects spilled only %d runs", tc.budget, tc.n, stats.SpilledRuns)
		}

		memImg, err := os.ReadFile(memPath)
		if err != nil {
			t.Fatal(err)
		}
		diskImg, err := os.ReadFile(diskPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(memImg, diskImg) {
			t.Fatalf("case %+v: disk-built image differs from in-memory image (%d vs %d bytes)",
				tc, len(diskImg), len(memImg))
		}

		src, err := OpenImage(diskPath)
		if err != nil {
			t.Fatal(err)
		}
		comparePackets(t, tr, src, info.ChanSlots)
		if got := src.Meta(); got.Dataset.Sum != ds.Checksum() {
			t.Fatalf("image meta checksum %#x != %#x", got.Dataset.Sum, ds.Checksum())
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRealStreamChecksum: the clustered stream must reproduce the
// in-memory REAL-like dataset exactly — same objects, same HC order,
// same checksum.
func TestRealStreamChecksum(t *testing.T) {
	ds := dataset.Clustered(dataset.DefaultRealConfig(7))
	ps := RealStream(7)
	if ps.N != ds.N() {
		t.Fatalf("stream N %d != dataset %d", ps.N, ds.N())
	}
	var recs []objRec
	ps.Gen(func(p spatial.Point, hc uint64) {
		recs = append(recs, objRec{X: p.X, Y: p.Y, HC: hc})
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].HC < recs[j].HC })
	sum := dataset.NewChecksumBuilder(ps.Order)
	for _, r := range recs {
		sum.Add(spatial.Point{X: r.X, Y: r.Y})
	}
	if got, want := sum.Sum(), ds.Checksum(); got != want {
		t.Fatalf("streamed checksum %#x != dataset checksum %#x", got, want)
	}
}

// TestMultiChannelImageIdentity: images of split, shard, and
// FEC-coded multi-channel transmitters serve bit-identical packets,
// directories, and FEC descriptors.
func TestMultiChannelImageIdentity(t *testing.T) {
	ds := dataset.Uniform(400, 8, 5)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]*dsi.Layout{}
	split, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	layouts["split"] = split
	shard, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 4, Scheduler: dsi.SchedShard, SwitchSlots: 2,
		ShardBounds: []int{0, x.NF / 3, 2 * x.NF / 3, x.NF},
	})
	if err != nil {
		t.Fatal(err)
	}
	layouts["shard"] = shard

	for name, lay := range layouts {
		for _, coded := range []bool{false, true} {
			var src station.PacketSource
			if coded {
				fsrc, err := station.NewMultiTransmitterFEC(lay, wire.FECConfig{
					Object: wire.FECCode{Groups: 4, Parity: 1},
					Table:  wire.FECCode{Groups: 1, Parity: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				src = fsrc
			} else {
				msrc, err := station.NewMultiTransmitter(lay)
				if err != nil {
					t.Fatal(err)
				}
				src = msrc
			}
			info, ok := InfoFor(src, wire.StationMeta{})
			if !ok {
				t.Fatalf("%s coded=%v: InfoFor failed", name, coded)
			}
			path := filepath.Join(t.TempDir(), "multi.img")
			if err := WriteImageFile(path, src, info); err != nil {
				t.Fatalf("%s coded=%v: %v", name, coded, err)
			}
			img, err := OpenImage(path)
			if err != nil {
				t.Fatalf("%s coded=%v: %v", name, coded, err)
			}
			comparePackets(t, src, img, info.ChanSlots)

			wantDir, wantVer := src.DirectoryAt(0)
			gotDir, gotVer := img.DirectoryAt(0)
			if !bytes.Equal(wantDir, gotDir) || wantVer != gotVer {
				t.Fatalf("%s coded=%v: directory mismatch", name, coded)
			}
			wantFEC, wantV := src.FECDescAt(0)
			gotFEC, gotV := img.FECDescAt(0)
			if !bytes.Equal(wantFEC, gotFEC) || wantV != gotV {
				t.Fatalf("%s coded=%v: FEC descriptor mismatch", name, coded)
			}
			if err := img.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInfoForRefusesALiveTransmitter: a transmitter images only while it
// is the static broadcast — once a swap is staged its stream is no
// longer one fixed cycle, nor after the swap is committed.
func TestInfoForRefusesALiveTransmitter(t *testing.T) {
	ds := dataset.Uniform(200, 7, 9)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	shard := func(bounds ...int) *dsi.Layout {
		lay, err := dsi.NewLayout(x, dsi.MultiConfig{
			Channels: 3, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: bounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	tx, err := station.NewMultiTransmitter(shard(0, x.NF/2, x.NF))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := InfoFor(tx, wire.StationMeta{}); !ok {
		t.Fatal("static transmitter refused")
	}
	swap, err := tx.Stage(shard(0, x.NF/4, x.NF), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := InfoFor(tx, wire.StationMeta{}); ok {
		t.Fatal("transmitter with a swap staged was imaged")
	}
	horizon := swap
	for ch := 0; ch < 3; ch++ {
		s, _ := tx.SeamOf(ch)
		horizon = max(horizon, s)
	}
	if !tx.Commit(horizon) {
		t.Fatal("commit refused past every seam")
	}
	if _, ok := InfoFor(tx, wire.StationMeta{}); ok {
		t.Fatal("transmitter past a committed swap was imaged")
	}
}

// TestImageRejectsCorruption: every tampering mode must be refused at
// OpenImage, before a single packet is served.
func TestImageRejectsCorruption(t *testing.T) {
	ds := dataset.Uniform(120, 7, 3)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := station.NewMultiTransmitter(x.SingleLayout())
	if err != nil {
		t.Fatal(err)
	}
	info, _ := InfoFor(tr, wire.StationMeta{})
	dir := t.TempDir()
	good := filepath.Join(dir, "good.img")
	if err := WriteImageFile(good, tr, info); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mutate := func(at int, b byte) []byte {
		c := append([]byte(nil), img...)
		c[at] ^= b
		return c
	}

	cases := map[string]string{
		"empty":          write("empty.img", nil),
		"tiny":           write("tiny.img", img[:10]),
		"truncated-body": write("tb.img", img[:len(img)/2]),
		"truncated-tail": write("tt.img", img[:len(img)-5]),
		"bad-magic":      write("bm.img", mutate(0, 0xff)),
		"bad-trailer":    write("bt.img", mutate(len(img)-1, 0xff)),
		"corrupt-footer": write("cf.img", mutate(len(img)-trailerSize-3, 0xff)),
		"bad-footlen":    write("bl.img", mutate(len(img)-trailerSize+1, 0xff)),
	}
	for name, path := range cases {
		if src, err := OpenImage(path); err == nil {
			src.Close()
			t.Errorf("%s: OpenImage accepted a corrupt image", name)
		}
	}

	// The pristine file still opens.
	src, err := OpenImage(good)
	if err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	src.Close()
}

// TestBuildRefusesHeaderlessObjects: a configuration whose objects'
// first packets cannot hold the wire header images a stream no receiver
// can decode; the streaming build refuses it before sorting a record.
func TestBuildRefusesHeaderlessObjects(t *testing.T) {
	for _, cfg := range []dsi.Config{
		{Capacity: 64, ObjectBytes: 16},
		{Capacity: 16, ObjectBytes: 64},
	} {
		dir := t.TempDir()
		imgPath := filepath.Join(dir, "cycle.img")
		_, err := BuildImage(imgPath, UniformStream(300, 7, 11), cfg, BuildOptions{})
		if err == nil || !strings.Contains(err.Error(), "16-byte") || !strings.Contains(err.Error(), "32-byte") {
			t.Fatalf("%+v: BuildImage error %v, want one naming both sizes", cfg, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("%+v: refused build left %d files behind", cfg, len(left))
		}
		geo, planned, err := dsi.PlanGeometry(300, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStreamSource(filepath.Join(dir, "none"), filepath.Join(dir, "none"), geo, planned); err == nil ||
			!strings.Contains(err.Error(), "32-byte") {
			t.Fatalf("%+v: OpenStreamSource error %v, want the header refusal", cfg, err)
		}
	}
}

// openTestStream runs the front half of BuildImage — sort, spill, open —
// and returns the stream source the image would be written from.
func openTestStream(t *testing.T, ps PointStream, cfg dsi.Config) *StreamSource {
	t.Helper()
	geo, cfg, err := dsi.PlanGeometry(ps.N, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sorter, err := NewSorter(dir, objCodec, func(a, b objRec) bool { return a.HC < b.HC }, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sorter.Close()
	ps.Gen(func(p spatial.Point, hc uint64) {
		if err := sorter.Add(objRec{X: p.X, Y: p.Y, HC: hc}); err != nil {
			t.Fatal(err)
		}
	})
	st, err := sorter.Merge()
	if err != nil {
		t.Fatal(err)
	}
	objPath, framesPath := filepath.Join(dir, "objects"), filepath.Join(dir, "frames")
	if _, err := spillSorted(st, geo, ps.Order, objPath, framesPath); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStreamSource(objPath, framesPath, geo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestReadRunAtMatchesPacketAt holds the two disk-backed sources to the
// seam's run contract (stationtest.CheckRuns) over one full cycle of
// every channel and a run across its end: the image of a coded sharded
// broadcast, whose every payload is a slice of the read-only mapping, and
// the stream source an out-of-core image is written from. Channels and
// slots neither carries read as lost slots.
func TestReadRunAtMatchesPacketAt(t *testing.T) {
	x, err := dsi.Build(dataset.Uniform(300, 7, 13), dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{
		Channels: 3, Scheduler: dsi.SchedShard, SwitchSlots: 2, ShardBounds: []int{0, x.NF / 2, x.NF},
	})
	if err != nil {
		t.Fatal(err)
	}
	code := wire.FECConfig{
		Table:  wire.FECCode{Groups: 1, Parity: 1},
		Object: wire.FECCode{Groups: 4, Parity: 1},
	}
	tx, err := station.NewMultiTransmitterFEC(lay, code)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := InfoFor(tx, wire.StationMeta{})
	path := filepath.Join(t.TempDir(), "coded.img")
	if err := WriteImageFile(path, tx, info); err != nil {
		t.Fatal(err)
	}
	img, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	lens := []int{1, 2, x.ObjPackets, x.ObjPackets + code.Object.Tail()}
	for ch := 0; ch < img.Channels(); ch++ {
		if err := stationtest.CheckRuns(img, ch, 0, int64(img.ChanSlots(ch)), lens...); err != nil {
			t.Fatalf("image source: %v", err)
		}
	}

	stream := openTestStream(t, UniformStream(300, 7, 13), dsi.Config{Capacity: 64})
	if err := stationtest.CheckRuns(stream, 0, 0, int64(stream.CycleSlots()), lens...); err != nil {
		t.Fatalf("stream source: %v", err)
	}

	for _, sc := range []struct {
		name  string
		src   station.PacketSource
		chans int
	}{{"image", img, img.Channels()}, {"stream", stream, 1}} {
		for _, c := range []struct {
			ch  int
			abs int64
		}{{sc.chans, 0}, {sc.chans + 4, 77}, {-1, 3}, {0, -20}} {
			if err := stationtest.CheckLost(sc.src, c.ch, c.abs, 20); err != nil {
				t.Fatalf("%s source: %v", sc.name, err)
			}
		}
		if err := stationtest.CheckRun(sc.src, 0, -3, 20, 20*64); err != nil {
			t.Fatalf("%s source: %v", sc.name, err)
		}
	}
}
