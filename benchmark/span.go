// Spans: what the traced run records at the two public seams, and the
// self-time arithmetic that turns them into per-layer numbers.
//
// One root span per query, one child span per receiver operation, one
// grandchild span per PacketAt the operation triggered. A layer's self
// time is its spans' duration minus the part of that interval their
// child spans cover, so the three layers of a query (client navigation,
// receiver, packet source) partition the root span exactly.

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanKind names a span; the order groups kinds by the layer they are
// attributed to.
type spanKind uint8

const (
	spanKNN    spanKind = iota // root: Session.KNN
	spanWindow                 // root: Session.Window
	spanTable                  // receiver ops
	spanHeader
	spanObject
	spanNext
	spanDoze
	spanPoll
	spanTune
	spanPacketAt // source op
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"dsi.knn", "dsi.window",
	"rx.table", "rx.header", "rx.object", "rx.next", "rx.doze", "rx.poll", "rx.tune",
	"source.packet_at",
}

// layer is the attribution target of a span kind.
type layer uint8

const (
	layerDSI layer = iota
	layerRX
	layerSource
	numLayers
)

func (k spanKind) layer() layer {
	switch {
	case k <= spanWindow:
		return layerDSI
	case k < spanPacketAt:
		return layerRX
	}
	return layerSource
}

// span is one recorded interval. Parent is the index of the span that
// caused it within the same recorder, -1 for a query's root; Start and
// End are nanoseconds since the recorder's epoch.
type span struct {
	Parent int32
	Kind   spanKind
	Query  int64
	Start  int64
	End    int64
}

// recorder collects the spans and counts of one session. Sessions are
// single-goroutine, so a recorder needs no locking; each worker owns
// one and they are merged after the run.
//
// Counts are taken for every query while the decorators are on; spans
// only for the deterministic 1-in-every sample, so a long traced run
// holds a bounded trace in memory.
type recorder struct {
	epoch time.Time
	every int64

	// chunks holds the spans in fixed-size blocks: appending never
	// copies, so recording a span costs the same however long the run.
	chunks  [][]span
	count   int32
	open    []int32 // stack of open span indexes of the sampled query
	sampled bool
	query   int64

	counts  [numSpanKinds]int64 // operations seen, sampled or not
	queries int64               // root spans seen, sampled or not
	roots   int64               // root spans recorded
}

func newRecorder(epoch time.Time, every int) *recorder {
	if every < 1 {
		every = 1
	}
	return &recorder{epoch: epoch, every: int64(every)}
}

// reset forgets everything recorded so far (warm-up queries).
func (r *recorder) reset() { *r = recorder{epoch: r.epoch, every: r.every} }

// sampledQuery is the deterministic 1-in-every choice: a splitmix64
// scramble of the query id, so the sample does not alias with any
// periodic structure of the query stream (kNN/window alternation).
func sampledQuery(id, every int64) bool {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%uint64(every) == 0
}

// beginQuery opens the root span of a new query and decides whether the
// query is sampled.
func (r *recorder) beginQuery(kind spanKind, query int64) int32 {
	r.queries++
	r.query = query
	r.sampled = sampledQuery(query, r.every)
	r.open = r.open[:0]
	if r.sampled {
		r.roots++
	}
	return r.begin(kind)
}

// begin opens a span of the given kind under the innermost open span.
// It returns the span's handle for end, -1 when the query in flight is
// not sampled (the operation is still counted).
func (r *recorder) begin(kind spanKind) int32 {
	r.counts[kind]++
	if !r.sampled {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := r.count
	if int(id)%spanChunk == 0 {
		r.chunks = append(r.chunks, make([]span, spanChunk))
	}
	r.count++
	r.open = append(r.open, id)
	*r.at(id) = span{Parent: parent, Kind: kind, Query: r.query, Start: int64(time.Since(r.epoch))}
	return id
}

// spanChunk is the block size of a recorder's span storage.
const spanChunk = 1 << 13

func (r *recorder) at(id int32) *span { return &r.chunks[id/spanChunk][id%spanChunk] }

// spans returns the recorded spans in recording order.
func (r *recorder) spans() []span {
	out := make([]span, 0, r.count)
	for _, c := range r.chunks {
		n := int(r.count) - len(out)
		if n > len(c) {
			n = len(c)
		}
		out = append(out, c[:n]...)
	}
	return out
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.at(id).End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
	if len(r.open) == 0 {
		r.sampled = false
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ch := kids[int32(i)]
		if len(ch) == 0 {
			continue
		}
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		covered, upto := int64(0), s.Start
		for _, c := range ch {
			lo, hi := spans[c].Start, spans[c].End
			if lo < upto {
				lo = upto
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// attribution is the per-layer reduction of one or more recorders.
type attribution struct {
	queries   int64               // queries that ran with the decorators on
	sampled   int64               // of those, queries whose spans were kept
	self      [numSpanKinds]int64 // summed self time per span kind, sampled queries, ns
	rootTotal [numSpanKinds]int64 // summed root duration per root kind, ns
	rootCount [numSpanKinds]int64 // sampled roots per root kind
	counts    [numSpanKinds]int64 // operations over all decorated queries
}

func attribute(recs []*recorder) attribution {
	var a attribution
	for _, r := range recs {
		a.queries += r.queries
		a.sampled += r.roots
		for k, c := range r.counts {
			a.counts[k] += c
		}
		spans := r.spans()
		self := selfTimes(spans)
		for i, s := range spans {
			a.self[s.Kind] += self[i]
			if s.Parent < 0 {
				a.rootTotal[s.Kind] += s.End - s.Start
				a.rootCount[s.Kind]++
			}
		}
	}
	return a
}

// layerSelf sums the self time of every span kind of a layer.
func (a attribution) layerSelf(l layer) int64 {
	var t int64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k.layer() == l {
			t += a.self[k]
		}
	}
	return t
}

// layerCount sums the operation counts of a layer.
func (a attribution) layerCount(l layer) int64 {
	var t int64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k.layer() == l {
			t += a.counts[k]
		}
	}
	return t
}

// traceLine is the on-disk form of a span: one JSON object per line.
type traceLine struct {
	Workload string `json:"workload"`
	Worker   int    `json:"worker"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Query    int64  `json:"query"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// writeTrace appends the recorders' spans to path as JSON lines.
func writeTrace(path, workload string, recs []*recorder) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for wi, r := range recs {
		for i, s := range r.spans() {
			line := traceLine{
				Workload: workload, Worker: wi, ID: i, Parent: int(s.Parent),
				Name: spanNames[s.Kind], Query: s.Query, StartNS: s.Start, EndNS: s.End,
			}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
