// Session re-sync: the receiver side of online re-planning. When the
// transmitter swaps a sharded broadcast to a freshly planned shard
// directory (a new MultiConfig at a cycle seam, directory version
// bumped), a client mid-query detects the bump and re-seeds onto the
// new layout without restarting the query: every fact it holds — frame
// minimum HC values, located objects, retrieved objects — is knowledge
// about the dataset, not about the schedule, so only the span partition
// of the knowledge base (which spans mirror the shard channels) and the
// channel placements need rebuilding. The epoch-stamped per-frame and
// per-object pages carry over untouched; the rebuild costs O(known
// frames), not O(dataset).

package dsi

import (
	"fmt"

	"dsi/internal/ordset"
)

// Resync re-seeds the client onto a new sharded layout of the same
// broadcast: the response to a shard-directory version bump. The
// knowledge base keeps every fact it holds, its span partition is
// rebuilt around the new shard bounds, the new directory's shard split
// HC values are absorbed as catalog knowledge, and the tuner follows
// the schedule swap on its current channel (no switch cost: the
// carriers are unchanged). The query in flight continues — the engine's
// next navigation step prices the new channel cycles.
//
// Resyncing to the layout already in use is a no-op. The new layout
// must shard the same index across the same number of channels.
func (s *Session) Resync(lay *Layout) error {
	if lay == s.lay {
		return nil
	}
	if err := s.resyncCheck(lay); err != nil {
		return err
	}
	s.kb.rebuildShardSpans(lay.shardBounds)
	s.lay = lay
	s.rx.Follow(lay)
	return nil
}

// resyncCheck validates a re-sync target against the client's state.
func (s *Session) resyncCheck(lay *Layout) error {
	if lay.X != s.x {
		return fmt.Errorf("dsi: resync to a layout of a different index")
	}
	if lay.Sched != SchedShard || lay.Channels() == 1 {
		return fmt.Errorf("dsi: resync target is %v over %d channels, want a sharded multi-channel layout",
			lay.Sched, lay.Channels())
	}
	if s.lay.Sched != SchedShard || s.lay.Channels() == 1 {
		return fmt.Errorf("dsi: resync of a %v client; only shard clients follow directory versions", s.lay.Sched)
	}
	if s.lay.Channels() != lay.Channels() {
		return fmt.Errorf("dsi: resync from %d channels to %d; a schedule swap cannot retune radios",
			s.lay.Channels(), lay.Channels())
	}
	return nil
}

// ScheduleResync arms a pending directory-version bump for the next
// query: once the client's clock reaches atSlot — the cycle seam at
// which the transmitter swaps schedules — the next navigation step
// detects the bump (version numbers ride the index channel the client
// is already mining) and Resyncs onto lay mid-query. Scheduling
// validates the target immediately. Tune discards a pending bump, so a
// session that would re-tune automatically before its next query does
// so here first.
func (s *Session) ScheduleResync(lay *Layout, atSlot int64) error {
	if err := s.resyncCheck(lay); err != nil {
		return err
	}
	if !s.fresh {
		s.Tune(s.probeSlot, s.loss)
	}
	s.pendingLay = lay
	s.pendingAt = atSlot
	return nil
}

// maybeResync fires a pending re-sync between navigation steps:
// detection granularity is one frame visit, matching a receiver that
// learns the directory version from the index tables it reads anyway.
// Two sources feed it — a byte-level receiver that learned a new shard
// directory from the air (Poll), and a simulator-side swap scheduled
// with ScheduleResync once the clock has passed its seam.
func (s *Session) maybeResync() {
	if lay, ok := s.rx.Poll(); ok {
		if err := s.Resync(lay); err != nil {
			// The receiver adopted a directory the client cannot follow;
			// the two must stay in lockstep, so this is a programming
			// error, not an input error.
			panic(fmt.Sprintf("dsi: directory resync failed: %v", err))
		}
		return
	}
	if s.pendingLay == nil || s.rx.Now() < s.pendingAt {
		return
	}
	lay := s.pendingLay
	s.pendingLay = nil
	if err := s.Resync(lay); err != nil {
		// ScheduleResync validated the target against this client; a
		// failure here is a programming error, not an input error.
		panic(fmt.Sprintf("dsi: scheduled resync failed: %v", err))
	}
}

// rebuildShardSpans re-partitions the knowledge base onto new shard
// bounds, preserving every epoch-current fact. The known-frame sets are
// rebuilt by re-inserting the frames the old spans enumerate (O(known
// frames)); the epoch-stamped frame and object pages are untouched —
// the facts they hold are schedule-independent. The new bounds' split
// HC values are then seeded as catalog knowledge: they arrive with the
// new directory exactly like the original catalog did at tune-in.
func (kb *knowledge) rebuildShardSpans(bounds []int) {
	x := kb.x
	n := len(bounds) - 1

	kb.resync = kb.resync[:0]
	for j := 0; j < kb.nspan; j++ {
		base := kb.spanStart[j]
		from := len(kb.resync)
		kb.resync = kb.known[j].AppendTo(kb.resync)
		for i := from; i < len(kb.resync); i++ {
			kb.resync[i] += base
		}
	}

	kb.nspan = n
	kb.spanStart = bounds // the layout's private copy: immutable
	kb.posOrigin = bounds[:n]
	kb.stride = 1 // sharded layouts require m = 1
	if cap(kb.splits) < n {
		kb.splits = make([]uint64, n)
	}
	kb.splits = kb.splits[:n]
	for s := 0; s < n; s++ {
		kb.splits[s] = x.minHC[bounds[s]]
	}
	for j := range kb.known {
		kb.known[j].Reset()
	}
	if len(kb.known) < n {
		kb.known = append(kb.known, make([]ordset.Set, n-len(kb.known))...)
	}
	kb.known = kb.known[:n]
	// The pending sets are per span and the spans moved: empty them now
	// (the catalog seeding below patches into them) and re-evaluate
	// every known frame once the new spans are complete.
	kb.clearPending()

	for _, f := range kb.resync {
		j := kb.frameSpan(f)
		kb.known[j].Insert(f - kb.spanStart[j])
	}
	kb.seedCatalog()
	kb.rebuildPending()
}
