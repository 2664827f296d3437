package dsi

import (
	"dsi/internal/broadcast"
	"dsi/internal/ordset"
)

// knowledge is the client-side knowledge base: everything a client has
// learned about the broadcast from received index tables and object
// headers, plus the static catalog (segment split HC values).
//
// The key inference DSI clients rely on (paper sections 3.3-3.4, e.g.
// "the index table shows the next object is O32, ruling out the
// existence of O28 and O31"): within one broadcast segment, frames
// appear in ascending HC order, so two known frames at adjacent
// same-segment positions bound the HC values of everything between them
// — if the positions are adjacent, nothing exists between their HC
// values.
//
// The knowledge base is organized in spans: maximal runs of frames the
// client can apply that inference to, each an ascending-HC frame range
// whose first frame is catalog knowledge. On classic layouts the spans
// are the broadcast segments (the i-th frame of segment j airs at cycle
// position j + m*i). On sharded layouts (SchedShard) the spans are the
// shards: each data channel's frame range is one span, so every span of
// the knowledge base corresponds to exactly one broadcast channel — the
// per-channel knowledge bases the shard-aware client navigates with —
// and the shard split HC values (carried by the layout's shard
// directory) seed the catalog.
//
// All per-frame and per-object state is epoch-stamped: a fact is
// current only when its stamp equals the knowledge base's epoch, so
// reset clears the whole base in O(known facts) — it bumps the epoch
// and recycles the known-frame sets — instead of reallocating six
// dataset-sized slices per query.
//
// Beside the facts the knowledge base keeps the query's pending set
// (pending.go): the units — known frames with objects to fetch, runs of
// unknown frames a target range can still reach — the client may have
// to visit, patched from what each read taught. The invariant every
// fact recorder and chooser maintains: after sync, the pending sets hold
// every unit a fresh walk over everything known would visit (the walk in
// walk_test.go is that definition, executable), and nothing a fresh walk
// would not visit survives being read by a chooser.
type knowledge struct {
	x *Index

	// Span partition. spanStart (frame ids, with a sentinel NF) and
	// splits (each span's first minimum HC value) describe the spans;
	// the i-th frame of span j airs at cycle position
	// posOrigin[j] + stride*i.
	nspan     int
	spanStart []int
	splits    []uint64
	posOrigin []int
	stride    int

	// epoch stamps current facts; entries with any other stamp are
	// unknown. Starts at 1 so zeroed stamp arrays mean "nothing known".
	epoch uint32

	// frameEp[f]>>epochShift == epoch -> minimum HC value known. Below
	// the epoch sit the version of the search disk the frame's units
	// were last evaluated under (8 bits) and the frame's pending-unit
	// state (3 bits), both pending.go's.
	frameEp []uint32
	frameHC []uint64 // valid when the frame is known

	// known[j] is the set of within-span indices of known frames in
	// span j. Because frames in a span are HC sorted, the set is
	// simultaneously ordered by position and by HC.
	known []ordset.Set

	// Per-object state. Objects are identified by their dataset ID
	// (HC rank); object i belongs to frame i/NO.
	objEp []uint32 // objEp[id] == epoch -> location (HC value) known
	objHC []uint64 // valid when located
	retEp []uint32 // retEp[id] == epoch -> full payload received

	// newObjs queues freshly located objects for the kNN candidate set.
	// Its backing array is reused across drains and queries.
	newObjs []int

	// pend answers "which frame next?" for the installed targets.
	pend pending

	// resync is the scratch of rebuildShardSpans (known frame ids in
	// flight between the old and new span partition).
	resync []int
}

// newKnowledge builds the classic knowledge base, whose spans are the
// broadcast segments.
func newKnowledge(x *Index) *knowledge {
	m := x.Cfg.Segments
	origin := make([]int, m)
	for j := range origin {
		origin[j] = j
	}
	return newSpanKnowledge(x, x.segStart, x.Splits, origin, m)
}

// newShardKnowledge builds the per-channel knowledge base of a sharded
// layout: one span per shard (= per data channel), with the shard split
// HC values as catalog knowledge. Sharded layouts require m = 1, so the
// i-th frame of the shard starting at frame s airs at position s + i.
func newShardKnowledge(x *Index, bounds []int) *knowledge {
	n := len(bounds) - 1
	splits := make([]uint64, n)
	for s := 0; s < n; s++ {
		splits[s] = x.minHC[bounds[s]]
	}
	return newSpanKnowledge(x, bounds, splits, bounds[:n], 1)
}

func newSpanKnowledge(x *Index, spanStart []int, splits []uint64, posOrigin []int, stride int) *knowledge {
	kb := &knowledge{
		x:         x,
		nspan:     len(splits),
		spanStart: spanStart,
		splits:    splits,
		posOrigin: posOrigin,
		stride:    stride,
		epoch:     1,
		frameEp:   make([]uint32, x.NF),
		frameHC:   make([]uint64, x.NF),
		known:     make([]ordset.Set, len(splits)),
		objEp:     make([]uint32, x.DS.N()),
		objHC:     make([]uint64, x.DS.N()),
		retEp:     make([]uint32, x.DS.N()),
	}
	kb.seedCatalog()
	return kb
}

// reset forgets everything and re-seeds the catalog, in time
// proportional to what was known rather than the dataset size.
func (kb *knowledge) reset() {
	kb.epoch++
	if kb.epoch == epochWrap {
		// Stamp wraparound: stale stamps from a full turn of resets ago
		// could alias the new epoch, so clear them once per wrap.
		clear(kb.frameEp)
		clear(kb.objEp)
		clear(kb.retEp)
		kb.epoch = 1
	}
	for j := range kb.known {
		kb.known[j].Reset()
	}
	kb.newObjs = kb.newObjs[:0]
	kb.pend.targets, kb.pend.isDisk, kb.pend.end = nil, false, 0
	kb.clearPending()
	kb.seedCatalog()
}

// seedCatalog records the public split HC values: the first frame of
// every span is known a priori.
func (kb *knowledge) seedCatalog() {
	for j := 0; j < kb.nspan; j++ {
		kb.addFrameFact(kb.spanStart[j], kb.splits[j])
	}
}

// frameSpan returns the knowledge span containing frame f.
func (kb *knowledge) frameSpan(f int) int {
	for j := kb.nspan - 1; j > 0; j-- {
		if f >= kb.spanStart[j] {
			return j
		}
	}
	return 0
}

// hcSpan returns the knowledge span whose HC range contains v: span j
// spans [splits[j], splits[j+1]). Values below splits[0] (no object
// there) map to span 0.
func (kb *knowledge) hcSpan(v uint64) int {
	for j := kb.nspan - 1; j > 0; j-- {
		if v >= kb.splits[j] {
			return j
		}
	}
	return 0
}

// spanLen returns the number of frames in span j.
func (kb *knowledge) spanLen(j int) int { return kb.spanStart[j+1] - kb.spanStart[j] }

// spanPos returns the cycle position of the i-th frame of span j.
func (kb *knowledge) spanPos(j, i int) int { return kb.posOrigin[j] + kb.stride*i }

// spanHC returns the HC range [lo, hi) covered by span j.
func (kb *knowledge) spanHC(j int) (lo, hi uint64) {
	lo = kb.splits[j]
	if j+1 < kb.nspan {
		hi = kb.splits[j+1]
	} else {
		hi = kb.x.DS.Curve.Size()
	}
	return lo, hi
}

func (kb *knowledge) frameKnown(f int) bool  { return kb.frameEp[f]>>epochShift == kb.epoch }
func (kb *knowledge) objLocated(id int) bool { return kb.objEp[id] == kb.epoch }
func (kb *knowledge) retrieved(id int) bool  { return kb.retEp[id] == kb.epoch }

// addFrameFact records that frame f's minimum HC value is hc, locating
// the frame's first object.
func (kb *knowledge) addFrameFact(f int, hc uint64) {
	if kb.frameKnown(f) {
		return
	}
	kb.frameEp[f] = kb.epoch << epochShift
	kb.frameHC[f] = hc
	j := kb.frameSpan(f)
	i := f - kb.spanStart[j]
	at, _ := kb.known[j].Add(i)

	first, _ := kb.x.FrameObjects(f)
	kb.locate(first, hc)
	kb.learned(j, i, at)
}

// locate records an object's HC value (and thus its exact position on
// the grid: objects live on cells).
func (kb *knowledge) locate(id int, hc uint64) {
	if kb.objLocated(id) {
		return
	}
	kb.objEp[id] = kb.epoch
	kb.objHC[id] = hc
	kb.newObjs = append(kb.newObjs, id)
}

// addHeader records that the header of the o-th object of frame f has
// been received, revealing its HC value.
func (kb *knowledge) addHeader(f, o int, hc uint64) {
	first, num := kb.x.FrameObjects(f)
	if o < 0 || o >= num {
		panic("dsi: header index outside frame")
	}
	kb.locate(first+o, hc)
	kb.touch(f)
}

// markRetrieved records a completed object download.
func (kb *knowledge) markRetrieved(id int) {
	kb.retEp[id] = kb.epoch
	kb.touch(id / kb.x.NO)
}

// drainNew returns the objects located since the previous call. The
// returned slice is only valid until the next locate: its backing array
// is reused.
func (kb *knowledge) drainNew() []int {
	if len(kb.newObjs) == 0 {
		return nil
	}
	out := kb.newObjs
	kb.newObjs = kb.newObjs[:0]
	return out
}

// dataPhase returns where data channel ch will be in its cycle once the
// receiver could be listening to it: now plus the channel switch (if
// any), relative to the channel's phase anchor (0 on simulator airs, the
// cutover seam on a swapped wire schedule).
func (c *Client) dataPhase(ch int, now int64, cur int, sw int64) int64 {
	if ch != cur {
		now += sw
	}
	l := int64(c.lay.ChanLen(ch))
	phase := (now - c.rx.PhaseOf(ch)) % l
	if phase < 0 {
		phase += l
	}
	return phase
}

// arrivalData returns the slots from now until a visit of position p's
// data can begin: the channel switch (if any) plus the doze to the
// frame's data slot, exactly what gotoData would pay.
func (c *Client) arrivalData(p int, now int64, cur int, sw int64) int64 {
	ch := int(c.lay.dataCh[p])
	wait := int64(c.lay.dataSlot[p]) - c.dataPhase(ch, now, cur, sw)
	if wait < 0 {
		wait += int64(c.lay.ChanLen(ch))
	}
	if ch != cur {
		wait += sw
	}
	return wait
}

// arrivalTables returns the earliest table-read start among the unknown
// frames at cycle positions posLo, posLo+stride, ..., posHi, all of
// whose tables sit in position order on the index channel, plus the
// position achieving it. The index channel carries nothing but tables,
// so its cycle phase is dataPhase's arithmetic on the start channel.
func (c *Client) arrivalTables(posLo, posHi, stride int, now int64, cur int, sw int64) (int64, int) {
	var t int64
	if cur != c.lay.StartCh {
		t = sw
	}
	l := int64(c.lay.ChanLen(c.lay.StartCh))
	phase := c.dataPhase(c.lay.StartCh, now, cur, sw)
	tp := int64(c.x.TablePackets)
	pLo, pHi := int64(posLo), int64(posHi)
	// First span position whose table starts at or after the phase.
	cand := pLo
	if need := (phase + tp - 1) / tp; need > pLo {
		st := int64(stride)
		r := (pLo - need) % st
		if r < 0 {
			r += st
		}
		cand = need + r
	}
	if cand <= pHi {
		return t + cand*tp - phase, int(cand)
	}
	// Every span table already passed this cycle: wait for the wrap.
	return t + pLo*tp + l - phase, int(pLo)
}

// arrivalDelta returns the smallest delta in [1, nf] such that
// nowPos+delta is one of the positions posLo, posLo+stride, ..., posHi
// on a cycle of nf positions: the positional-arithmetic kernel behind
// the earliest-arrival choice of layouts navigated in position order.
func arrivalDelta(nowPos, posLo, posHi, stride, nf int) int {
	// First candidate strictly after nowPos within this cycle.
	cur := nowPos % nf
	if cur < posHi {
		// Smallest position >= cur+1 congruent to posLo mod stride, at
		// least posLo.
		c := cur + 1
		if c < posLo {
			c = posLo
		}
		r := (posLo - c) % stride
		if r < 0 {
			r += stride
		}
		if cand := c + r; cand <= posHi {
			return cand - cur
		}
	}
	// Wrap to the first position of the gap in the next cycle.
	return posLo + nf - cur
}

// Client is a mobile client executing queries over a DSI broadcast.
// Open is the one constructor: it returns a Session, which re-tunes
// its client between queries; Session.Client hands out the client
// itself for what the facade does not wrap. A client answers one query
// per Open or Reset, and Reset is cheap — proportional to what the
// previous query learned, not to the dataset — so long-running
// simulations reuse one session per worker instead of allocating
// dataset-sized state per query.
//
// All air access goes through the client's Receiver: the same query
// engine runs over the in-memory simulator (SimReceiver) and over real
// byte streams (station.WireReceiver).
type Client struct {
	x   *Index
	lay *Layout
	rx  Receiver
	kb  *knowledge

	// lastTable is the most recently received intact index table
	// (pointing into the index's precomputed tables), used by the
	// aggressive kNN hop rule. Nil until a table is received.
	lastTable *Table

	// posHopOnly disables the arrival-time pricing of aggressive kNN
	// hops on multi-data-channel layouts, falling back to the purely
	// positional closest-frame rule (tests compare the two).
	posHopOnly bool

	// trace, when non-nil, receives an Event for every client step.
	trace func(Event)

	// onHop, when non-nil, observes every navigation choice (tests hold
	// the pending set against a fresh walk with it).
	onHop func(p, next int, ok bool)

	// pendingLay, when non-nil, is a scheduled shard-directory version
	// bump: at clock pendingAt the broadcast swaps to pendingLay and the
	// client re-syncs mid-query (see ScheduleResync).
	pendingLay *Layout
	pendingAt  int64

	// scr holds per-query scratch reused across queries (see
	// queries.go); its buffers grow to a steady state after which warm
	// queries allocate nothing dataset-sized.
	scr scratch
}

// newReceiverClient assembles a client over an arbitrary receiver: the
// knowledge base is built for the receiver's layout (per-shard spans on
// sharded layouts, broadcast segments otherwise).
func newReceiverClient(rx Receiver) *Client {
	lay := rx.Layout()
	var kb *knowledge
	if lay.Sched == SchedShard && lay.Channels() > 1 {
		kb = newShardKnowledge(lay.X, lay.shardBounds)
	} else {
		kb = newKnowledge(lay.X)
	}
	return &Client{x: lay.X, lay: lay, rx: rx, kb: kb}
}

// Layout returns the channel layout the client executes over.
func (c *Client) Layout() *Layout { return c.lay }

// Receiver returns the client's radio.
func (c *Client) Receiver() Receiver { return c.rx }

// gotoTable moves the receiver to the start of the index table of the
// frame at position p, switching channels when the layout placed the
// table elsewhere.
func (c *Client) gotoTable(p int) {
	c.rx.Tune(int(c.lay.tableCh[p]))
	c.rx.DozeUntilPos(int(c.lay.tableSlot[p]))
}

// gotoData moves the receiver to the (o*ObjPackets + skip)-th object
// packet of the frame at position p, switching channels as needed.
func (c *Client) gotoData(p, o, skip int) {
	ch := int(c.lay.dataCh[p])
	c.rx.Tune(ch)
	c.rx.DozeUntilPos((int(c.lay.dataSlot[p]) + o*c.x.ObjPackets + skip) % c.lay.ChanLen(ch))
}

// gotoFrameEntry moves the receiver to where a tableless visit of the
// frame at position p begins: the frame start on its channel. Layouts
// with a dedicated index channel go straight to the frame's data
// channel — data is all it carries for this frame.
func (c *Client) gotoFrameEntry(p int) {
	if c.lay.splitData() {
		c.gotoData(p, 0, 0)
		return
	}
	c.gotoTable(p)
}

// Reset forgets everything the client learned and re-tunes it at the
// given absolute slot, recycling all internal state: the reused client
// behaves exactly like a freshly constructed one (identical results and
// identical cost metrics) at a fraction of the setup cost.
func (c *Client) Reset(probeSlot int64, loss *broadcast.LossModel) {
	c.rx.Reset(probeSlot, loss)
	c.kb.reset()
	c.lastTable = nil
	c.pendingLay = nil
}

// SetChannelLoss installs a per-channel loss model on the client's
// receiver, overriding the query-wide model on that channel. Only
// multi-channel clients support per-channel loss, and the channel must
// exist in the layout: violations return a descriptive error instead
// of indexing (or panicking) deep inside the tuner. Reset clears the
// overrides, so heterogeneous-channel simulations reinstall them per
// query.
func (c *Client) SetChannelLoss(ch int, loss *broadcast.LossModel) error {
	return c.rx.SetChannelLoss(ch, loss)
}

// Stats returns the metrics accumulated so far.
func (c *Client) Stats() broadcast.Stats { return c.rx.Stats() }

// probe performs the initial probe: receive one intact packet on the
// start channel to synchronize with the broadcast, then doze to the
// next index-table start on that channel. Returns the cycle position of
// that table's frame.
func (c *Client) probe() int {
	for {
		_, ok := c.rx.Next()
		c.emit(Event{Op: OpProbe, OK: ok})
		if ok {
			break
		}
	}
	p := c.lay.probePos(c.rx.Pos())
	c.rx.DozeUntilPos(int(c.lay.tableSlot[p]))
	return p
}

// readTable receives the index table of the frame at position p (the
// receiver must be at the frame's first slot). It returns false when
// any table packet was corrupted — or, on a byte-level receiver, when
// the payload did not decode — in which case no knowledge is gained
// but the tuning cost is still paid.
func (c *Client) readTable(p int) bool {
	t, ok := c.rx.Table(p)
	c.emit(Event{Op: OpTableRead, Pos: p, Frame: c.x.PosToFrame(p), Arg: c.x.TablePackets, OK: ok})
	if !ok {
		return false
	}
	c.lastTable = t
	c.kb.addFrameFact(c.x.PosToFrame(p), t.OwnHC)
	for _, e := range t.Entries {
		c.kb.addFrameFact(c.x.PosToFrame(e.TargetPos), e.MinHC)
	}
	return true
}

// wantTable reports whether visiting the frame at position p should
// read its index table: yes when the frame's own minimum HC is unknown
// or the next same-segment frame (needed to bound this frame's content)
// is unknown. Pure data re-fetches skip the table.
//
// On an index-split layout the table lives on another channel, so a
// visit to a known frame never crosses over for the neighbour's bound:
// the frame resolves from its own object headers instead, and unknown
// frames are handled wholesale by the index sweep.
func (c *Client) wantTable(p int) bool {
	f := c.x.PosToFrame(p)
	if !c.kb.frameKnown(f) {
		return true
	}
	if c.lay.splitData() {
		return false
	}
	j := c.x.FrameSegment(f)
	if f+1 < c.x.segStart[j+1] {
		return !c.kb.frameKnown(f + 1)
	}
	return false
}

// visit moves the client to the frame at position p, reads its index
// table when useful, and retrieves the frame's objects selected by the
// installed targets. update, when non-nil, runs after the table is
// absorbed, so a kNN client shrinks its search space before deciding
// what to download. On a multi-channel layout the visit follows the
// layout's (channel, slot) placements: table on the index-bearing
// channel, objects on the frame's data channel.
//
// When the table is corrupted (or skipped) and the frame's minimum HC is
// unknown, the client falls back to reading the first object's header
// packet — DSI's loss resilience: the broadcast content itself reveals
// the frame's HC range, so navigation resumes at the very next frame.
func (c *Client) visit(p int, update func()) {
	f := c.x.PosToFrame(p)
	headerConsumed := -1
	if c.wantTable(p) {
		c.gotoTable(p)
		ok := c.readTable(p)
		if c.lay.splitData() {
			// An index-split table visit ends with the table: the
			// frame's data lives on another channel, and the timed
			// chooser will schedule its retrieval at the slot it
			// actually arrives instead of crossing channels here and
			// stalling until it comes around.
			return
		}
		if !ok && !c.kb.frameKnown(f) {
			// Header fallback: one data packet reveals the first object's
			// HC value (every object's payload starts with its coordinate).
			// Index-split layouts skip it — their index channel rebroadcasts
			// the lost table much sooner than the data channel reaches the
			// frame's first header.
			first, _ := c.x.FrameObjects(f)
			c.gotoData(p, 0, 0)
			hc, okHdr := c.rx.Header(p, 0)
			c.emit(Event{Op: OpHeaderRead, Pos: p, Frame: f, Arg: first, OK: okHdr})
			if okHdr {
				c.kb.addFrameFact(f, hc)
				headerConsumed = 0
			}
		}
	} else {
		c.gotoFrameEntry(p)
	}
	if update != nil {
		update()
	}
	c.fetchData(p, headerConsumed)
}

// fetchData retrieves from the frame at position p every object whose
// HC value is a target and is not yet retrieved. headerConsumed
// is the index of the object whose header packet was already received
// during the table fallback (-1 for none). Corrupted objects stay
// unretrieved; a later cycle retries them.
func (c *Client) fetchData(p int, headerConsumed int) {
	f := c.x.PosToFrame(p)
	if !c.kb.frameKnown(f) {
		return // nothing is known about this frame; nothing to fetch safely
	}
	first, num := c.x.FrameObjects(f)
	tg := &c.kb.pend

	prev := c.kb.frameHC[f] // ascending watermark of located HC values
	for t := 0; t < num; t++ {
		id := first + t
		if c.kb.objLocated(id) {
			prev = c.kb.objHC[id]
			if !c.kb.retrieved(id) && tg.contains(prev) {
				skip := 0
				if t == headerConsumed {
					skip = 1
				}
				c.readObject(p, t, id, skip)
			}
			continue
		}
		// Unlocated: objects from here on have HC above prev; stop
		// once nothing in range can remain.
		if prev+1 >= tg.end {
			return
		}
		// Read the header packet to learn this object's HC value.
		c.gotoData(p, t, 0)
		hc, ok := c.rx.Header(p, t)
		c.emit(Event{Op: OpHeaderRead, Pos: p, Frame: f, Arg: id, OK: ok})
		if !ok {
			continue // lost header: a later cycle rescans this object
		}
		c.kb.addHeader(f, t, hc)
		prev = hc
		if tg.contains(hc) {
			c.readObject(p, t, id, 1)
		}
	}
}

// readObject receives object id, the o-th object of the frame at
// position p, skipping the first skip packets (already received as a
// header). The object counts as retrieved only if every packet arrives
// intact.
func (c *Client) readObject(p, o, id, skip int) {
	c.gotoData(p, o, skip)
	ok := c.rx.Object(p, o, skip)
	c.emit(Event{Op: OpObjectRead, Pos: p, Frame: c.x.PosToFrame(p), Arg: id, OK: ok})
	if ok {
		c.kb.markRetrieved(id)
	}
}

// retrieveAll is the generic query engine: it visits frames until every
// object with an HC value in the installed target set has been retrieved
// with certainty. update, if non-nil, runs after every table read and
// may shrink the target set as knowledge accumulates (kNN); window,
// point and EEF targets are fixed. hook, if non-nil, may redirect the
// next visit (the aggressive kNN hop rule); it returns a cycle position
// and true to override the default soonest-unresolved-frame choice.
func (c *Client) retrieveAll(startPos int, update func(), hook func(p int) (int, bool)) {
	p := startPos
	for {
		// A pending shard-directory version bump is detected between
		// navigation steps (the version rides the index channel the
		// client mines anyway); re-syncing rebuilds the pending sets
		// against the new spans.
		c.maybeResync()
		c.visit(p, update)
		// Absorb what the visit located (kNN shrinks its targets as
		// candidates accumulate) before choosing where to go.
		if update != nil {
			update()
		}
		next, ok := c.nextVisit(p, c.lay.splitData())
		if !ok {
			return
		}
		if hook != nil {
			if override, use := hook(p); use {
				next = override
			}
		}
		p = next
	}
}

// nextVisit chooses the next frame to visit from position p, reading
// the pending sets. Nothing pending doubles as the termination test:
// the query is done exactly when no unresolved frame remains.
// Index-split layouts choose by actual arrival time across channels
// (timed); on one channel, position order is time order, and the
// positional chooser is kept bit-identical to the classic engine.
func (c *Client) nextVisit(p int, timed bool) (next int, ok bool) {
	if timed {
		next, ok = c.nextPendingTimed()
	} else {
		next, ok = c.kb.nextPending(p)
	}
	if c.onHop != nil {
		c.onHop(p, next, ok)
	}
	return next, ok
}
