package diskstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/hilbert"
	"dsi/internal/spatial"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// objRec is one record of the external sort: the object's cell and HC
// value, 16 bytes fixed. The object's ID is its HC rank, assigned once
// the sort is done, so it is not stored.
type objRec struct {
	X, Y uint32
	HC   uint64
}

const objRecSize = 16

var objCodec = Codec[objRec]{
	Size: objRecSize,
	Put: func(dst []byte, v objRec) {
		binary.LittleEndian.PutUint32(dst[0:], v.X)
		binary.LittleEndian.PutUint32(dst[4:], v.Y)
		binary.LittleEndian.PutUint64(dst[8:], v.HC)
	},
	Get: func(src []byte) objRec {
		return objRec{
			X:  binary.LittleEndian.Uint32(src[0:]),
			Y:  binary.LittleEndian.Uint32(src[4:]),
			HC: binary.LittleEndian.Uint64(src[8:]),
		}
	},
}

// PointStream is a dataset as a stream: the generator identity a
// network client rebuilds it from (the catalog document's dataset
// section) plus the point generator itself, which emits points in
// generation order — the external sorter puts them in HC order.
type PointStream struct {
	Kind  string // catalog kind: "uniform" or "real"
	N     int
	Order uint
	Seed  int64
	Gen   func(emit func(p spatial.Point, hc uint64))
}

// UniformStream streams the UNIFORM dataset: identical objects to
// dataset.Uniform(n, order, seed), never materialized.
func UniformStream(n int, order uint, seed int64) PointStream {
	return PointStream{Kind: "uniform", N: n, Order: order, Seed: seed,
		Gen: func(emit func(spatial.Point, uint64)) {
			dataset.UniformPoints(n, order, seed, emit)
		}}
}

// RealStream streams the REAL-like dataset at the paper's default
// configuration — the only clustered shape network clients can rebuild
// from a catalog document (netrecv regenerates "real" via
// dataset.DefaultRealConfig).
func RealStream(seed int64) PointStream {
	cfg := dataset.DefaultRealConfig(seed)
	return PointStream{Kind: "real", N: cfg.N, Order: cfg.Order, Seed: seed,
		Gen: func(emit func(spatial.Point, uint64)) {
			dataset.ClusteredPoints(cfg, emit)
		}}
}

// BuildOptions bounds the out-of-core build.
type BuildOptions struct {
	// Budget is the maximum number of object records held in heap by
	// the sort (16 bytes each); 0 selects DefaultBudget.
	Budget int
	// TmpDir hosts the sort spill runs and the temporary sorted object
	// file; empty uses the image's directory.
	TmpDir string
}

// BuildStats reports what a streaming image build produced.
type BuildStats struct {
	Geo         dsi.Geometry
	Checksum    uint64
	SpilledRuns int
}

// BuildImage builds the wire-cycle image of the single-channel DSI
// broadcast of ps under cfg. Points stream through the external sorter,
// which holds at most opt.Budget object records in heap, into a sorted
// object file. That file is mapped as the dataset's objects, and the
// image is what station.NewMultiTransmitter over dsi.Build(dataset,
// cfg).SingleLayout() transmits: the one cycle producer, so the image
// is the in-memory build's by construction. The objects stay out of
// heap; the index (dsi.Build's per-frame minHC and cell coordinates and
// its single-channel layout) does not, at about 50 B a frame: neither
// the index nor the transmitter stores a table.
//
// Multi-channel and erasure-coded broadcasts are imaged from their
// in-memory transmitters via WriteImage.
func BuildImage(imgPath string, ps PointStream, cfg dsi.Config, opt BuildOptions) (BuildStats, error) {
	var stats BuildStats
	if cfg.ReserveMCPtr {
		return stats, fmt.Errorf("diskstore: the streaming build images single-channel broadcasts; ReserveMCPtr is multi-channel")
	}
	_, planned, err := dsi.PlanGeometry(ps.N, cfg)
	if err != nil {
		return stats, err
	}
	if err := wire.CheckHeaderFits(planned.Capacity, planned.ObjectBytes); err != nil {
		return stats, err // before the sort: the transmitter would refuse it only after
	}

	tmp := opt.TmpDir
	if tmp == "" {
		tmp = filepath.Dir(imgPath)
	}
	objPath := filepath.Join(tmp, filepath.Base(imgPath)+".objects.tmp")
	defer os.Remove(objPath)
	stats.Checksum, stats.SpilledRuns, err = spillSorted(ps, objPath, tmp, opt.Budget)
	if err != nil {
		return stats, err
	}
	objs, m, err := mapObjects(objPath, ps.N)
	if err != nil {
		return stats, err
	}
	defer m.close()

	x, err := dsi.Build(&dataset.Dataset{Curve: hilbert.New(ps.Order), Objects: objs}, cfg)
	if err != nil {
		return stats, err
	}
	stats.Geo = x.Geometry
	tx, err := station.NewMultiTransmitter(x.SingleLayout())
	if err != nil {
		return stats, err
	}
	info, _ := InfoFor(tx, wire.StationMeta{ // a fresh transmitter is static
		Dataset: wire.StationDataset{
			Kind: ps.Kind, N: ps.N, Order: ps.Order, Seed: ps.Seed, Sum: stats.Checksum,
		},
		Capacity: x.Cfg.Capacity, Segments: x.Cfg.Segments, ObjectBytes: x.Cfg.ObjectBytes,
		Channels: 1, Scheduler: "single",
	})
	return stats, WriteImageFile(imgPath, tx, info)
}

// objectSize is the bytes of one dataset.Object in this process's
// memory layout, the record of the sorted object file.
const objectSize = int(unsafe.Sizeof(dataset.Object{}))

// objectBytes views objects as their bytes in memory.
func objectBytes(objs []dataset.Object) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(objs))), len(objs)*objectSize)
}

// spillSorted sorts ps's points into HC order, holding at most budget
// records in heap (spill runs go to tmp), and writes them to objPath as
// dataset.Objects whose IDs are their HC ranks. The file is raw memory:
// it is read back only by mapObjects in the process that wrote it, so
// byte order and padding cannot differ. It returns the dataset
// checksum and the number of runs the sort spilled.
func spillSorted(ps PointStream, objPath, tmp string, budget int) (sum uint64, spilled int, err error) {
	sorter, err := NewSorter(tmp, objCodec, func(a, b objRec) bool { return a.HC < b.HC }, budget)
	if err != nil {
		return 0, 0, err
	}
	defer sorter.Close()
	var addErr error
	ps.Gen(func(p spatial.Point, hc uint64) {
		if addErr == nil {
			addErr = sorter.Add(objRec{X: p.X, Y: p.Y, HC: hc})
		}
	})
	if addErr != nil {
		return 0, 0, addErr
	}
	if got := sorter.Len(); got != int64(ps.N) {
		return 0, 0, fmt.Errorf("diskstore: generator emitted %d objects, want %d", got, ps.N)
	}
	st, err := sorter.Merge()
	if err != nil {
		return 0, 0, err
	}

	f, err := os.Create(objPath)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	cs := dataset.NewChecksumBuilder(ps.Order)
	buf := make([]dataset.Object, 0, runReadBuf/objectSize)
	var prev uint64
	for rank := 0; ; rank++ {
		v, ok := st.Next()
		if !ok || len(buf) == cap(buf) {
			if _, err := f.Write(objectBytes(buf)); err != nil {
				return 0, 0, err
			}
			buf = buf[:0]
		}
		if !ok {
			break
		}
		if rank > 0 && v.HC <= prev {
			return 0, 0, fmt.Errorf("diskstore: duplicate or unordered HC %d at rank %d", v.HC, rank)
		}
		prev = v.HC
		p := spatial.Point{X: v.X, Y: v.Y}
		cs.Add(p)
		buf = append(buf, dataset.Object{ID: rank, P: p, HC: v.HC})
	}
	if err := st.Err(); err != nil {
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return cs.Sum(), sorter.Spilled(), sorter.Close()
}

// mapObjects maps the object file spillSorted wrote as the n objects it
// holds. The slice is valid until the mapping is closed. A file that is
// not exactly n >= 1 objects, or whose mapping is not aligned for them,
// is refused.
func mapObjects(path string, n int) ([]dataset.Object, *mapping, error) {
	m, err := openMapping(path)
	if err != nil {
		return nil, nil, err
	}
	if n <= 0 || len(m.data) != n*objectSize {
		m.close()
		return nil, nil, fmt.Errorf("diskstore: object file %s is %dB, want %d objects of %dB", path, len(m.data), n, objectSize)
	}
	p := unsafe.Pointer(&m.data[0])
	if uintptr(p)%unsafe.Alignof(dataset.Object{}) != 0 {
		m.close()
		return nil, nil, fmt.Errorf("diskstore: object file %s is mapped unaligned", path)
	}
	return unsafe.Slice((*dataset.Object)(p), n), m, nil
}
