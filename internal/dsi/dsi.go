// Package dsi implements the Distributed Spatial Index (DSI) of Lee &
// Zheng (ICDCS 2005), the paper's primary contribution.
//
// DSI linearizes spatial objects along a Hilbert curve and broadcasts
// them as a cycle of frames. Every frame carries a small index table
// whose i-th entry describes the frame r^i positions ahead (r is the
// index base), giving each table exponentially spaced knowledge of the
// entire cycle. Clients answer queries by alternately reading tables and
// dozing to the next relevant frame; because every frame carries a
// table, a query can start anywhere and resume after packet loss.
//
// The package provides:
//
//   - Build: construct the broadcast program for a dataset, either in
//     ascending HC order (Segments=1) or with the paper's broadcast
//     reorganization (Segments=m interleaves m equal HC spans).
//   - Open and Session: the mobile-client query processor with
//     energy-efficient forwarding (EEF), window queries, and kNN queries
//     in the paper's conservative and aggressive variants.
package dsi

import (
	"fmt"
	"slices"

	"dsi/internal/broadcast"
	"dsi/internal/dataset"
)

// Sizing selects how frames are sized relative to packets.
type Sizing int

const (
	// SizingAuto is the default: object factor one (one object per
	// frame, as in all of the paper's examples) and a one-packet index
	// table (as in the paper's evaluation). The index base r is raised
	// until the entries that fit in one packet cover the whole cycle —
	// the knob the paper describes: "the index base r can be chosen to
	// control the overhead of index table". At 64-byte packets this
	// yields two entries with r = 100 for 10,000 objects; at 512 bytes
	// it converges to r = 2.
	SizingAuto Sizing = iota
	// SizingUnitFactor uses object factor one with a fixed index base
	// (Config.IndexBase) and full cycle coverage; the index table spans
	// multiple packets when the capacity is small.
	SizingUnitFactor
	// SizingPaperTable follows the paper's evaluation-section frame
	// derivation literally: the index table is exactly one packet with
	// the configured base, the number of entries that fit determines
	// the frame count, and frames hold multiple objects. Clients scan
	// inside a frame selectively by reading per-object header packets.
	SizingPaperTable
)

func (s Sizing) String() string {
	switch s {
	case SizingAuto:
		return "auto"
	case SizingUnitFactor:
		return "unit-factor"
	case SizingPaperTable:
		return "paper-table"
	default:
		return fmt.Sprintf("sizing(%d)", int(s))
	}
}

// Config describes a DSI broadcast.
type Config struct {
	// Capacity is the packet size in bytes (paper default 64).
	Capacity int
	// IndexBase is the exponential base r of the index tables (paper
	// default 2).
	IndexBase int
	// Segments is the broadcast reorganization factor m: the HC-ordered
	// frame sequence is cut into m equal spans that are interleaved on
	// air. m = 1 is the original (pure HC order) broadcast; the paper's
	// reorganized broadcast uses m = 2.
	Segments int
	// Sizing selects the frame sizing policy.
	Sizing Sizing
	// ObjectBytes is the data-object payload size (paper default 1024).
	ObjectBytes int
	// ReserveMCPtr sizes index tables for the multi-channel pointer
	// width (broadcast.MCPtrBytes, one channel-id byte wider per
	// entry). An index whose tables fill their packet budget to within
	// E bytes cannot otherwise carry multi-channel pointers — the wire
	// layer rejects such layouts at transmission time — so builds that
	// target a multi-channel layout set this to reserve the headroom.
	// Off by default: the classic sizing (and thus the single-channel
	// broadcast) is untouched.
	ReserveMCPtr bool
}

// DefaultConfig returns the paper's default configuration: 64-byte
// packets, index base 2, original (non-reorganized) broadcast.
func DefaultConfig() Config {
	return Config{
		Capacity:    64,
		IndexBase:   2,
		Segments:    1,
		Sizing:      SizingUnitFactor,
		ObjectBytes: broadcast.ObjectBytes,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Capacity == 0 {
		c.Capacity = d.Capacity
	}
	if c.IndexBase == 0 {
		c.IndexBase = d.IndexBase
	}
	if c.Segments == 0 {
		c.Segments = d.Segments
	}
	if c.ObjectBytes == 0 {
		c.ObjectBytes = d.ObjectBytes
	}
	return c
}

func (c Config) validate(n int) error {
	if n <= 0 {
		return fmt.Errorf("dsi: dataset is empty")
	}
	if c.Capacity < 8 {
		return fmt.Errorf("dsi: packet capacity %d too small", c.Capacity)
	}
	if c.IndexBase < 2 {
		return fmt.Errorf("dsi: index base %d must be >= 2", c.IndexBase)
	}
	if c.Segments < 1 {
		return fmt.Errorf("dsi: segment count %d must be >= 1", c.Segments)
	}
	if c.ObjectBytes <= 0 {
		return fmt.Errorf("dsi: object size %d must be positive", c.ObjectBytes)
	}
	return nil
}

// entryBytes is the size of one index-table entry: an HC value plus a
// pointer (paper section 4).
const entryBytes = broadcast.HCBytes + broadcast.PtrBytes

// entryWidth returns the on-air size of one index-table entry under
// the build's pointer reservation.
func (c Config) entryWidth() int {
	if c.ReserveMCPtr {
		return broadcast.HCBytes + broadcast.MCPtrBytes
	}
	return entryBytes
}

// Geometry is the frame geometry of a DSI broadcast: everything the
// sizing policy derives from (n, Config), with no reference to the
// dataset's contents. It is a pure function of those inputs
// (PlanGeometry): slot arithmetic, frame-to-object mapping, and table
// shape all live here.
type Geometry struct {
	// N is the object count the geometry was planned for; Capacity and
	// Segments echo the planned Config.
	N, Capacity, Segments int

	// NF is the number of frames in a cycle; NO the object factor
	// (objects per frame, the last frame may hold fewer); E the number
	// of entries per index table; Base the effective index base r
	// (equal to Config.IndexBase except under SizingAuto, which raises
	// it until the one-packet table covers the cycle); EntryWidth the
	// on-air bytes of one table entry under the build's pointer
	// reservation.
	NF, NO, E, Base, EntryWidth int

	// TablePackets, ObjPackets and FramePackets give the frame layout:
	// a frame occupies FramePackets = TablePackets + NO*ObjPackets
	// consecutive slots (frames are padded to uniform size).
	TablePackets, ObjPackets, FramePackets int

	// segStart[j] is the first frame id of broadcast segment j;
	// segStart[Segments] = NF is a sentinel.
	segStart []int
}

// Index is a built DSI broadcast: the frame sequence plus the static
// metadata ("catalog") that clients are assumed to know a priori
// (dataset size, curve order, frame geometry, segment split HC values).
// It stores no index tables: each is a function of minHC and the
// geometry (AppendTable), computed where it is read. Where the frames
// go on air is a Layout's business.
type Index struct {
	DS  *dataset.Dataset
	Cfg Config

	Geometry

	// minHC[f] is the smallest HC value in frame f; frames are numbered
	// in HC order (frame f covers objects [f*NO, min((f+1)*NO, N))).
	minHC []uint64

	// cellX[f], cellY[f] are the grid coordinates of the cell with HC
	// value minHC[f], decoded once at Build so distance computations
	// against frames (the aggressive kNN hop rule) need no per-hop
	// Hilbert decoding.
	cellX, cellY []uint32

	// single is the one-channel layout, the paper's broadcast; sessions
	// opened without a layout option run on it.
	single *Layout

	// Splits[j] = minHC[segStart[j]], the first HC value of broadcast
	// segment j.
	Splits []uint64
}

// PlanGeometry sizes the broadcast for n objects under cfg, returning
// the geometry plus the config with defaults applied. It is the pure
// sizing half of Build: no dataset contents are consulted, so a caller
// can check a configuration before it has the objects.
func PlanGeometry(n int, cfg Config) (Geometry, Config, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(n); err != nil {
		return Geometry{}, cfg, err
	}

	x := &Geometry{N: n, Capacity: cfg.Capacity, Segments: cfg.Segments,
		Base: cfg.IndexBase, EntryWidth: cfg.entryWidth()}
	switch cfg.Sizing {
	case SizingAuto:
		// Pick the object factor so the one-packet index table stays a
		// small, capacity-independent fraction of the frame (at least
		// minDataPackets data packets per table packet). At 64-byte
		// packets a 1024-byte object spans 16 packets and one object
		// per frame suffices; at 512 bytes an object is only 2 packets,
		// so frames carry several objects — clients skip inside a frame
		// by reading per-object header packets.
		const minDataPackets = 12
		objPackets := broadcast.PacketsFor(cfg.ObjectBytes, cfg.Capacity)
		x.NO = (minDataPackets + objPackets - 1) / objPackets
		if x.NO < 1 {
			x.NO = 1
		}
		if x.NO > n {
			x.NO = n
		}
		x.NF = (n + x.NO - 1) / x.NO
		// As many entries as fit in one packet beside the frame's own
		// HC value — but no more than base-2 coverage needs, and at
		// least two so forwarding stays exponential.
		x.E = (cfg.Capacity - broadcast.HCBytes) / cfg.entryWidth()
		if max := entriesToCover(x.NF, 2); x.E > max {
			x.E = max
		}
		if x.E < 2 {
			x.E = 2
		}
		x.Base = baseToCover(x.NF, x.E, cfg.IndexBase)
		// On a reorganized broadcast, make the base a multiple of the
		// segment count: far entries (distance r^i, i >= 1) then stay
		// within the current segment while the distance-1 entry crosses
		// segments. An odd base with m = 2 would aim every entry at the
		// other segment and starve same-segment knowledge.
		if m := cfg.Segments; m > 1 && x.Base%m != 0 {
			x.Base += m - x.Base%m
		}
		x.TablePackets = broadcast.PacketsFor(x.TableBytes(), cfg.Capacity)
	case SizingUnitFactor:
		x.NO = 1
		x.NF = n
		x.E = entriesToCover(x.NF, cfg.IndexBase)
		// Table: the frame's own minimum HC value plus E entries.
		x.TablePackets = broadcast.PacketsFor(x.TableBytes(), cfg.Capacity)
	case SizingPaperTable:
		fit := (cfg.Capacity - broadcast.HCBytes) / cfg.entryWidth()
		if fit < 1 {
			return Geometry{}, cfg, fmt.Errorf("dsi: capacity %d cannot hold a one-packet index table", cfg.Capacity)
		}
		nf := 1
		for i := 0; i < fit && nf < n; i++ {
			nf *= cfg.IndexBase
		}
		if nf > n {
			nf = n
		}
		x.NO = (n + nf - 1) / nf
		x.NF = (n + x.NO - 1) / x.NO
		x.E = entriesToCover(x.NF, cfg.IndexBase)
		x.TablePackets = 1
	default:
		return Geometry{}, cfg, fmt.Errorf("dsi: unknown sizing %v", cfg.Sizing)
	}
	if x.NF < cfg.Segments {
		return Geometry{}, cfg, fmt.Errorf("dsi: %d frames cannot be cut into %d segments", x.NF, cfg.Segments)
	}

	x.ObjPackets = broadcast.PacketsFor(cfg.ObjectBytes, cfg.Capacity)
	x.FramePackets = x.TablePackets + x.NO*x.ObjPackets

	x.segStart = make([]int, cfg.Segments+1)
	start := 0
	for j := 0; j < cfg.Segments; j++ {
		x.segStart[j] = start
		start += x.segLen(j)
	}
	x.segStart[cfg.Segments] = x.NF
	return *x, cfg, nil
}

// Build constructs the DSI broadcast program for the dataset.
func Build(ds *dataset.Dataset, cfg Config) (*Index, error) {
	geo, cfg, err := PlanGeometry(ds.N(), cfg)
	if err != nil {
		return nil, err
	}
	x := &Index{DS: ds, Cfg: cfg, Geometry: geo}

	x.minHC = make([]uint64, x.NF)
	x.cellX = make([]uint32, x.NF)
	x.cellY = make([]uint32, x.NF)
	for f := 0; f < x.NF; f++ {
		x.minHC[f] = ds.Objects[f*x.NO].HC
		x.cellX[f], x.cellY[f] = ds.Curve.Decode(x.minHC[f])
	}

	x.Splits = make([]uint64, cfg.Segments)
	for j := 0; j < cfg.Segments; j++ {
		x.Splits[j] = x.minHC[x.segStart[j]]
	}

	x.single, err = stripeLayout(x, MultiConfig{Channels: 1})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// SingleLayout returns the one-channel layout: the paper's single-
// channel broadcast of the index, the layout sessions opened without a
// layout option run on.
func (x *Index) SingleLayout() *Layout { return x.single }

// AppendTable returns the index table broadcast with the frame at cycle
// position pos: the frame's own smallest HC value and E entries at
// exponentially spaced distances 1, Base, Base², ... ahead, each naming
// its target position and that frame's smallest HC value. The entries
// are appended to dst[:0], so a reader that passes back the previous
// table's entries computes each table with E lookups and no allocation.
// This simulates reception of the table's packets.
func (x *Index) AppendTable(pos int, dst []TableEntry) Table {
	t := Table{Entries: dst}
	x.tableInto(&t, pos)
	return t
}

// tableInto is AppendTable computing into t in place, its entries into
// t.Entries[:0]: a receiver that keeps its table in a field reads it
// this way, without copying a returned Table into the field.
func (x *Index) tableInto(t *Table, pos int) {
	minHC, base := x.minHC, x.Base
	ents := slices.Grow(t.Entries[:0], x.E)[:x.E]
	dist := 1
	for i := range ents {
		tp := x.Ahead(pos, dist)
		ents[i] = TableEntry{TargetPos: tp, MinHC: minHC[x.PosToFrame(tp)]}
		dist *= base
	}
	t.Pos, t.OwnHC, t.Entries = pos, minHC[x.PosToFrame(pos)], ents
}

// Ahead returns the cycle position dist frames after pos: (pos+dist)
// mod NF, dividing only when the sum wraps the cycle — a table read
// takes E of them, and most entries do not wrap.
func (g *Geometry) Ahead(pos, dist int) int {
	if p := pos + dist; p < g.NF {
		return p
	}
	return (pos + dist) % g.NF
}

// entriesToCover returns the smallest E with base^E >= nf, at least 1:
// an index table with E entries (pointing 1, r, ..., r^(E-1) frames
// ahead) covers a cycle of nf frames.
func entriesToCover(nf, base int) int {
	e := 1
	span := base
	for span < nf {
		span *= base
		e++
	}
	return e
}

// baseToCover returns the smallest base r >= min such that r^e >= nf:
// the index base at which e table entries cover a cycle of nf frames.
func baseToCover(nf, e, min int) int {
	if min < 2 {
		min = 2
	}
	for r := min; ; r++ {
		span := 1
		for i := 0; i < e; i++ {
			span *= r
			if span >= nf {
				return r
			}
		}
	}
}

// TableBytes returns the payload size of one index table: the frame's
// own minimum HC value plus E (HC value, pointer) entries, at the
// pointer width the build reserved (see Config.ReserveMCPtr).
func (g *Geometry) TableBytes() int {
	return broadcast.HCBytes + g.E*g.EntryWidth
}

// segLen returns the number of frames in broadcast segment j: the
// frames at cycle positions congruent to j modulo Segments.
func (g *Geometry) segLen(j int) int {
	return (g.NF - j + g.Segments - 1) / g.Segments
}

// PosToFrame returns the frame id broadcast at cycle position pos.
// Position p carries the (p div m)-th frame of segment (p mod m), so
// segment frames appear interleaved and each segment's frames appear in
// ascending HC order. One segment is the identity, and is answered
// without the two divisions: this runs on every table entry, visit and
// chooser step.
func (g *Geometry) PosToFrame(pos int) int {
	m := g.Segments
	if m == 1 {
		return pos
	}
	return g.segStart[pos%m] + pos/m
}

// FrameToPos returns the cycle position at which frame f is broadcast.
func (g *Geometry) FrameToPos(f int) int {
	j := g.FrameSegment(f)
	return j + g.Segments*(f-g.segStart[j])
}

// FrameSegment returns the broadcast segment containing frame f.
func (g *Geometry) FrameSegment(f int) int {
	for j := g.Segments - 1; j > 0; j-- {
		if f >= g.segStart[j] {
			return j
		}
	}
	return 0
}

// HCSegment returns the broadcast segment whose HC span contains v:
// segment j spans [Splits[j], Splits[j+1]). Values below Splits[0] (no
// object there) map to segment 0.
func (x *Index) HCSegment(v uint64) int {
	for j := x.Cfg.Segments - 1; j > 0; j-- {
		if v >= x.Splits[j] {
			return j
		}
	}
	return 0
}

// MinHC returns the smallest HC value in frame f. This is server-side
// information; clients learn it from index tables.
func (x *Index) MinHC(f int) uint64 { return x.minHC[f] }

// FrameObjects returns the dataset index range [first, first+num) of the
// objects in frame f.
func (g *Geometry) FrameObjects(f int) (first, num int) {
	first = f * g.NO
	num = g.NO
	if first+num > g.N {
		num = g.N - first
	}
	return first, num
}

// FrameStartSlot returns the cycle slot of the first packet of the frame
// at position pos.
func (g *Geometry) FrameStartSlot(pos int) int { return pos * g.FramePackets }

// CycleSlots returns the number of slots in one broadcast cycle.
func (g *Geometry) CycleSlots() int { return g.NF * g.FramePackets }

// TableEntry is one index-table entry as received by a client: the frame
// TargetPos positions ahead holds objects whose smallest HC value is
// MinHC.
type TableEntry struct {
	TargetPos int // absolute cycle position of the described frame
	MinHC     uint64
}

// Table is the index table of one frame as received by a client.
type Table struct {
	Pos     int    // cycle position of the frame carrying the table
	OwnHC   uint64 // smallest HC value of the carrying frame
	Entries []TableEntry
}

// IndexOverheadBytes returns the total index bytes added per cycle.
func (x *Index) IndexOverheadBytes() int64 {
	return int64(x.NF) * int64(x.TablePackets) * int64(x.Cfg.Capacity)
}

// CycleBytes returns the broadcast cycle length in bytes.
func (x *Index) CycleBytes() int64 { return int64(x.CycleSlots()) * int64(x.Cfg.Capacity) }

func (x *Index) String() string {
	return fmt.Sprintf("DSI{n=%d nF=%d nO=%d E=%d m=%d C=%d cycle=%dB}",
		x.DS.N(), x.NF, x.NO, x.E, x.Cfg.Segments, x.Cfg.Capacity, x.CycleBytes())
}
