// The recovered-unit cache. The group window (fecrx.go) keeps exactly
// one unit occurrence — enough for the header-then-object claim inside
// a single retrieval, but a recovery's work is forgotten as soon as
// the receiver moves on, and dropped entirely at Reset. The unit cache
// is the multi-unit complement: a small LRU of fully-known units the
// receiver reconstructed from parity, keyed like the window by
// (channel, unit, adopted version) with whole-cycle occurrence
// congruence. A later Table read of a cached unit — typically the next
// query re-reading last cycle's index tables — decodes straight from
// the cache with zero air slots: no reception, no latency, the radio
// stays dozing. The cache deliberately survives Reset (cross-query
// hits are its whole point; content is a function of the schedule, not
// of the radio's clock) and is dropped only when the schedule
// generation changes under the receiver (Poll adoption, Follow).
//
// Only units that cost a recovery are cached: a cleanly received unit
// re-airs every cycle for free, so caching it buys nothing and the
// error-free cost model stays exactly the plain receiver's.

package station

// fecCacheUnits is the cache capacity in units. Index tables are the
// intended tenants — a handful covers a query's working set of table
// re-reads — and each entry holds one unit's payload copies, so the
// budget stays a few KiB.
const fecCacheUnits = 4

// fecCacheEntry is one fully-known unit occurrence.
type fecCacheEntry struct {
	ch   int
	unit int
	abs  int64 // absolute physical slot of member 0 when recorded
	ver  uint32
	pay  [][]byte // every member known good, each a window of buf
	buf  []byte   // the members' bytes, end to end
	used int64    // LRU clock at last touch
}

// fecCache is a tiny LRU over recovered units.
type fecCache struct {
	entries []fecCacheEntry // at most fecCacheUnits, storage kept across drop
	clock   int64
}

// lookup returns the payloads of the cached unit occurrence congruent
// with abs (a whole number of cycles apart on a physLen-slot channel,
// same adopted version), or nil.
func (c *fecCache) lookup(ch int, unit int, ver uint32, abs int64, physLen int) [][]byte {
	for i := range c.entries {
		e := &c.entries[i]
		if e.ch != ch || e.unit != unit || e.ver != ver {
			continue
		}
		if (abs-e.abs)%int64(physLen) != 0 {
			continue
		}
		c.clock++
		e.used = c.clock
		return e.pay
	}
	return nil
}

// store records a fully-known unit occurrence, copying the payloads
// (callers recycle their member scratch) into the storage of the entry
// it takes: an existing entry for the unit is replaced, otherwise a
// free slot is filled or the least recently used one evicted. Once the
// slots have grown to the unit size, storing allocates nothing.
func (c *fecCache) store(ch int, unit int, ver uint32, abs int64, pay [][]byte) {
	c.clock++
	var slot *fecCacheEntry
	for i := range c.entries {
		e := &c.entries[i]
		if e.ch == ch && e.unit == unit && e.ver == ver {
			slot = e
			break
		}
	}
	if slot == nil {
		if n := len(c.entries); n < fecCacheUnits {
			if c.entries == nil {
				c.entries = make([]fecCacheEntry, 0, fecCacheUnits)
			}
			c.entries = c.entries[:n+1] // a dropped entry's storage comes back
			slot = &c.entries[n]
		} else {
			slot = &c.entries[0]
			for i := range c.entries {
				if c.entries[i].used < slot.used {
					slot = &c.entries[i]
				}
			}
		}
	}
	buf := slot.buf[:0]
	for _, p := range pay {
		buf = append(buf, p...)
	}
	owned := slot.pay[:0]
	at := 0
	for _, p := range pay {
		owned = append(owned, buf[at:at+len(p):at+len(p)])
		at += len(p)
	}
	*slot = fecCacheEntry{ch: ch, unit: unit, abs: abs, ver: ver, pay: owned, buf: buf, used: c.clock}
}

// drop empties the cache — the schedule generation changed and every
// anchor is meaningless.
func (c *fecCache) drop() { c.entries = c.entries[:0] }
