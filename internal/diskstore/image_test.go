package diskstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// TestStreamImageIdentity: the image built out-of-core (external sort,
// mapped sorted object file) must be byte-identical to the image of the
// one static transmitter over the in-memory build's SingleLayout — and
// its packets identical to the transmitter's.
func TestStreamImageIdentity(t *testing.T) {
	cases := []struct {
		ps       PointStream
		capacity int
		objBytes int
		segments int
		budget   int
	}{
		{ps: UniformStream(300, 7, 42), capacity: 64, objBytes: 1024, segments: 1, budget: 37},   // spills many runs
		{ps: UniformStream(500, 8, 42), capacity: 128, objBytes: 256, segments: 1, budget: 0},    // in-memory fast path
		{ps: UniformStream(400, 8, 42), capacity: 64, objBytes: 1024, segments: 2, budget: 64},   // reorganized broadcast
		{ps: UniformStream(257, 8, 42), capacity: 512, objBytes: 1024, segments: 1, budget: 100}, // multi-object frames
		{ps: RealStream(7), capacity: 64, objBytes: 256, segments: 1, budget: 1000},              // clustered, spills
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s n=%d capacity=%d objbytes=%d segments=%d budget=%d",
			tc.ps.Kind, tc.ps.N, tc.capacity, tc.objBytes, tc.segments, tc.budget)
		cfg := dsi.Config{Capacity: tc.capacity, Segments: tc.segments, ObjectBytes: tc.objBytes}
		ds := dataset.Uniform(tc.ps.N, tc.ps.Order, tc.ps.Seed)
		if tc.ps.Kind == "real" {
			ds = dataset.Clustered(dataset.DefaultRealConfig(tc.ps.Seed))
		}
		x, err := dsi.Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := station.NewMultiTransmitter(x.SingleLayout())
		if err != nil {
			t.Fatal(err)
		}
		meta := wire.StationMeta{
			Dataset: wire.StationDataset{
				Kind: tc.ps.Kind, N: tc.ps.N, Order: tc.ps.Order, Seed: tc.ps.Seed, Sum: ds.Checksum(),
			},
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
		stats, err := BuildImage(diskPath, tc.ps, cfg, BuildOptions{Budget: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Checksum != ds.Checksum() {
			t.Fatalf("%s: streaming checksum %#x != dataset checksum %#x", name, stats.Checksum, ds.Checksum())
		}
		if tc.budget > 0 && tc.ps.N/tc.budget > 1 && stats.SpilledRuns < 2 {
			t.Fatalf("%s: spilled only %d runs", name, stats.SpilledRuns)
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
			t.Fatalf("%s: disk-built image differs from in-memory image (%d vs %d bytes)",
				name, len(diskImg), len(memImg))
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
	}
}

// TestMappedObjectsMatchDataset: the object file a spilled sort writes,
// mapped back, is the in-memory dataset's object slice — every ID, point
// and HC value.
func TestMappedObjectsMatchDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "objects")
	ps := UniformStream(300, 7, 13)
	sum, spilled, err := spillSorted(ps, path, dir, 37)
	if err != nil {
		t.Fatal(err)
	}
	if spilled < 2 {
		t.Fatalf("budget 37 over 300 objects spilled only %d runs", spilled)
	}
	objs, m, err := mapObjects(path, ps.N)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	ds := dataset.Uniform(ps.N, ps.Order, ps.Seed)
	if sum != ds.Checksum() {
		t.Fatalf("spill checksum %#x != dataset checksum %#x", sum, ds.Checksum())
	}
	if !slices.Equal(objs, ds.Objects) {
		t.Fatal("mapped objects differ from dataset.Uniform's")
	}
}

// TestMapObjectsRefusesBadFiles: an object file of the wrong size is an
// error, never a panic or a short slice.
func TestMapObjectsRefusesBadFiles(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "objects")
	const n = 50
	if _, _, err := spillSorted(UniformStream(n, 6, 3), good, dir, 0); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"truncated": img[:len(img)-5],
		"one byte":  img[:1],
		"empty":     nil,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := mapObjects(path, n); err == nil {
			t.Errorf("%s file of %d bytes was mapped as %d objects", name, len(b), n)
		}
	}
	if _, _, err := mapObjects(good, n+1); err == nil {
		t.Errorf("file of %d objects was mapped as %d", n, n+1)
	}
	objs, m, err := mapObjects(good, n)
	if err != nil || len(objs) != n {
		t.Fatalf("pristine file: %d objects, error %v", len(objs), err)
	}
	m.close()
}

// TestReadRunAtMatchesPacketAt holds the image source to the seam's run
// contract (stationtest.CheckRuns) over one full cycle of every channel
// and a run across its end: the image of a coded sharded broadcast,
// whose every payload is a slice of the read-only mapping. Channels and
// slots it does not carry read as lost slots.
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

	for _, c := range []struct {
		ch  int
		abs int64
	}{{img.Channels(), 0}, {img.Channels() + 4, 77}, {-1, 3}, {0, -20}} {
		if err := stationtest.CheckLost(img, c.ch, c.abs, 20); err != nil {
			t.Fatal(err)
		}
	}
	if err := stationtest.CheckRun(img, 0, -3, 20, 20*64); err != nil {
		t.Fatal(err)
	}
}
