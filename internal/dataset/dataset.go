// Package dataset generates the workload datasets used in the paper's
// evaluation.
//
// Two datasets are provided:
//
//   - UNIFORM: points drawn uniformly from the grid (the paper uses
//     10,000 points in a square Euclidean space).
//   - REAL-like: the paper uses 5,848 cities and villages of Greece from
//     rtreeportal.org. That file is proprietary/offline, so we substitute
//     a seeded synthetic clustered dataset of the same cardinality: a
//     Gaussian mixture of "city" clusters with Zipf-weighted populations
//     plus isolated "villages". The substitution preserves the property
//     the experiment exercises — heavy spatial skew.
//
// All generators snap points to distinct Hilbert cells (the paper assumes
// a 1-1 correspondence between coordinates and HC values) and return
// objects sorted by HC value, which is the broadcast order.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dsi/internal/hilbert"
	"dsi/internal/spatial"
)

// Object is one broadcast data object: a spatial point and its HC value.
// ID is the object's rank in HC order (assigned by the generators).
type Object struct {
	ID int
	P  spatial.Point
	HC uint64
}

// Dataset is a set of objects on a Hilbert grid, sorted by HC value.
//
// Index builders derive the same intermediate products from a dataset
// regardless of the packet capacity they are built for — the STR
// packing's x-sorted object order, the B+-tree's key extraction. Those
// are cached here (lazily, thread-safe), so an experiment sweeping many
// capacities over one dataset pays for them once instead of once per
// figure point.
type Dataset struct {
	Curve   hilbert.Curve
	Objects []Object
	Name    string

	xOrderOnce sync.Once
	xOrder     []int

	hcKeysOnce sync.Once
	hcKeys     []uint64
	hcVals     []int
}

// N returns the number of objects.
func (d *Dataset) N() int { return len(d.Objects) }

// Checksum returns an FNV-1a hash of the object cells in HC order.
// Two datasets with equal checksums build identical indexes (the
// build is a pure function of the cell sequence), so a network client
// can verify its locally derived catalog matches the station's before
// trusting any decoded pointer.
func (d *Dataset) Checksum() uint64 {
	b := NewChecksumBuilder(d.Curve.Order())
	for i := range d.Objects {
		b.Add(d.Objects[i].P)
	}
	return b.Sum()
}

// ChecksumBuilder computes Checksum incrementally: feed it every
// object's point in HC order and Sum matches Dataset.Checksum exactly.
// The out-of-core build path uses it to checksum a dataset it never
// materializes, so image-backed stations publish the same catalog
// proof as in-memory ones.
type ChecksumBuilder struct {
	h uint64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// NewChecksumBuilder starts a checksum over a dataset of the given
// curve order.
func NewChecksumBuilder(order uint) *ChecksumBuilder {
	b := &ChecksumBuilder{h: fnvOffset}
	b.mix(uint64(order))
	return b
}

func (b *ChecksumBuilder) mix(v uint64) {
	for i := 0; i < 8; i++ {
		b.h ^= v & 0xff
		b.h *= fnvPrime
		v >>= 8
	}
}

// Add mixes in the next object's point; objects must arrive in HC
// order.
func (b *ChecksumBuilder) Add(p spatial.Point) {
	b.mix(uint64(p.X))
	b.mix(uint64(p.Y))
}

// Sum returns the checksum over everything added so far.
func (b *ChecksumBuilder) Sum() uint64 { return b.h }

// MinOrderFor returns the smallest curve order whose grid has at least
// slack*n cells, so that n distinct cells can be occupied with room to
// spare. The paper picks the curve order from the object density the
// same way ("HC of higher order is needed for denser object
// distribution").
func MinOrderFor(n int, slack float64) uint {
	if n <= 0 {
		return 1
	}
	need := float64(n) * slack
	for order := uint(1); order <= hilbert.MaxOrder; order++ {
		if math.Pow(4, float64(order)) >= need {
			return order
		}
	}
	return hilbert.MaxOrder
}

// Uniform generates n objects uniformly distributed over the grid of the
// given curve order, each on a distinct cell. It panics if the grid
// cannot hold n distinct cells.
func Uniform(n int, order uint, seed int64) *Dataset {
	objs := make([]Object, 0, n)
	c := UniformPoints(n, order, seed, func(p spatial.Point, hc uint64) {
		objs = append(objs, Object{P: p, HC: hc})
	})
	return finish(c, objs, fmt.Sprintf("UNIFORM(n=%d,order=%d,seed=%d)", n, order, seed))
}

// ClusteredConfig controls the REAL-like generator.
type ClusteredConfig struct {
	N        int     // total number of objects
	Order    uint    // curve order
	Clusters int     // number of city clusters
	Spread   float64 // cluster standard deviation as a fraction of grid side
	Isolated float64 // fraction of objects placed uniformly ("villages")
	Seed     int64
}

// DefaultRealConfig mirrors the paper's REAL dataset cardinality: 5,848
// points with strong clustering.
func DefaultRealConfig(seed int64) ClusteredConfig {
	return ClusteredConfig{
		N:        5848,
		Order:    8,
		Clusters: 60,
		Spread:   0.02,
		Isolated: 0.15,
		Seed:     seed,
	}
}

// Clustered generates a skewed dataset per the config. Cluster sizes
// follow a Zipf distribution (a few big cities, many small ones), which
// is the canonical model for population-derived point sets.
func Clustered(cfg ClusteredConfig) *Dataset {
	objs := make([]Object, 0, cfg.N)
	c := ClusteredPoints(cfg, func(p spatial.Point, hc uint64) {
		objs = append(objs, Object{P: p, HC: hc})
	})
	name := fmt.Sprintf("REAL-like(n=%d,order=%d,clusters=%d,seed=%d)",
		cfg.N, cfg.Order, cfg.Clusters, cfg.Seed)
	return finish(c, objs, name)
}

func finish(c hilbert.Curve, objs []Object, name string) *Dataset {
	// Objects of equal HC sit on one cell and differ only in the ID,
	// assigned below, so an unstable sort still fixes every object.
	slices.SortFunc(objs, func(a, b Object) int { return cmp.Compare(a.HC, b.HC) })
	for i := range objs {
		objs[i].ID = i
	}
	return &Dataset{Curve: c, Objects: objs, Name: name}
}

// WindowBrute returns the IDs of objects inside the window, in HC order.
// It is the ground truth for window-query correctness tests.
func (d *Dataset) WindowBrute(w spatial.Rect) []int {
	var out []int
	for _, o := range d.Objects {
		if w.Contains(o.P) {
			out = append(out, o.ID)
		}
	}
	return out
}

// KNNBrute returns the IDs of the k nearest objects to q (ties broken by
// HC value, then by ID, so the result is deterministic), plus the
// distance of the k-th neighbor. It is the ground truth for kNN
// correctness tests. One pass keeps the k best candidates in a max-heap
// — the worst of them at the root, the one a closer object displaces —
// so it allocates O(k), not O(N).
func (d *Dataset) KNNBrute(q spatial.Point, k int) (ids []int, kth float64) {
	k = min(k, len(d.Objects))
	if k <= 0 {
		return nil, 0
	}
	best := make([]knnCand, 0, k)
	for i := range d.Objects {
		o := &d.Objects[i]
		c := knnCand{d2: o.P.Dist2(q), hc: o.HC, id: o.ID}
		switch {
		case len(best) < k:
			best = append(best, c)
			for j := len(best) - 1; j > 0; {
				parent := (j - 1) / 2
				if !best[parent].before(best[j]) {
					break
				}
				best[parent], best[j] = best[j], best[parent]
				j = parent
			}
		case c.before(best[0]):
			best[0] = c
			for j := 0; ; {
				worst := j
				for _, child := range [2]int{2*j + 1, 2*j + 2} {
					if child < k && best[worst].before(best[child]) {
						worst = child
					}
				}
				if worst == j {
					break
				}
				best[j], best[worst] = best[worst], best[j]
				j = worst
			}
		}
	}
	slices.SortFunc(best, knnCand.compare)
	ids = make([]int, k)
	for i, c := range best {
		ids[i] = c.id
	}
	return ids, math.Sqrt(best[k-1].d2)
}

// knnCand is one object as KNNBrute ranks it.
type knnCand struct {
	d2 float64
	hc uint64
	id int
}

// compare ranks c against o — negative when c is nearer — by squared
// distance, then HC value, then ID.
func (c knnCand) compare(o knnCand) int {
	switch {
	case c.d2 != o.d2:
		return cmp.Compare(c.d2, o.d2)
	case c.hc != o.hc:
		return cmp.Compare(c.hc, o.hc)
	}
	return cmp.Compare(c.id, o.id)
}

// before reports whether c ranks nearer than o.
func (c knnCand) before(o knnCand) bool { return c.compare(o) < 0 }

// KthDist returns the distance from q to its k-th nearest object.
func (d *Dataset) KthDist(q spatial.Point, k int) float64 {
	_, kth := d.KNNBrute(q, k)
	return kth
}

// ByID returns the object with the given ID (its HC rank).
func (d *Dataset) ByID(id int) Object { return d.Objects[id] }

// XOrder returns the object IDs sorted by x coordinate, ties broken by
// ID — the first pass of STR packing, which is the same for every
// packet capacity the tree might be built at. The comparator is a
// total order, so any sort — the in-memory sort here, or the external
// merge sort of the out-of-core build — produces the identical
// permutation, and trees built from either are identical. Computed
// once per dataset; the returned slice is shared and must not be
// modified.
func (d *Dataset) XOrder() []int {
	d.xOrderOnce.Do(func() {
		idx := make([]int, len(d.Objects))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := &d.Objects[idx[i]], &d.Objects[idx[j]]
			if a.P.X != b.P.X {
				return a.P.X < b.P.X
			}
			return a.ID < b.ID
		})
		d.xOrder = idx
	})
	return d.xOrder
}

// HCKeys returns the objects' HC values and IDs in broadcast (HC)
// order — the key extraction every capacity's B+-tree build starts
// from. Computed once per dataset; the returned slices are shared and
// must not be modified.
func (d *Dataset) HCKeys() (keys []uint64, vals []int) {
	d.hcKeysOnce.Do(func() {
		d.hcKeys = make([]uint64, len(d.Objects))
		d.hcVals = make([]int, len(d.Objects))
		for i, o := range d.Objects {
			d.hcKeys[i] = o.HC
			d.hcVals[i] = o.ID
		}
	})
	return d.hcKeys, d.hcVals
}

// FindHC returns the index of the first object with HC >= v, which is
// len(Objects) when v exceeds every object's HC value.
func (d *Dataset) FindHC(v uint64) int {
	return sort.Search(len(d.Objects), func(i int) bool { return d.Objects[i].HC >= v })
}
