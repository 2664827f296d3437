// The receiver core shared by every transport: once a Feed is being
// filled, the byte-level decoder (station.WireReceiver, which recovers
// when the stream carries parity) is constructed directly over it —
// the network adds a transport layer under the decode seam, not a new
// decode path.

package netrecv

import (
	"context"
	"fmt"
	"sync/atomic"

	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// Receiver is the transport-independent core of a network receiver: a
// dsi.Receiver decoding from a live network feed, plus the lifecycle
// and health surface the transports share. A query session uses it
// like any other receiver — dsi.Open(cat.X, dsi.WithReceiver(rx)) —
// but must tune each query at the live edge (LiveSlot), since the
// broadcast clock keeps running between queries.
type Receiver struct {
	dsi.Receiver
	feed       *Feed
	met        *obs.NetReceiverMetrics
	cancel     context.CancelFunc
	reconnects atomic.Int64
}

// LiveSlot returns the newest absolute slot heard from the station —
// the position to tune fresh queries at.
func (r *Receiver) LiveSlot() int64 { return r.feed.Live() }

// Reconnects returns how many times the transport re-established a
// severed stream.
func (r *Receiver) Reconnects() int64 { return r.reconnects.Load() }

// Feed exposes the reassembly feed (tests inject faults through it).
func (r *Receiver) Feed() *Feed { return r.feed }

// DirVersion returns the shard-directory version the decoder currently
// follows (0 when the decoder has no versioned directory).
func (r *Receiver) DirVersion() uint32 {
	if v, ok := r.Receiver.(interface{ Version() uint32 }); ok {
		return v.Version()
	}
	return 0
}

// Close tears the transport down and releases every waiter.
func (r *Receiver) Close() {
	if r.cancel != nil {
		r.cancel()
	}
	r.feed.Close()
}

// newFeed builds the feed a receiver of cat fills: a data frame wider
// than the catalog's largest packet, a capacity-sized parity symbol and
// its header, is garbage, so no frame can widen the feed's records past
// what the broadcast sends.
func newFeed(cat *Catalog, opt Options, met *obs.NetReceiverMetrics) *Feed {
	f := NewFeed(cat.Lay.Channels(), opt, met)
	f.maxPayload = cat.X.Cfg.Capacity + wire.ParityHeaderSize
	return f
}

// newDecoder waits for the stream to come alive and constructs the
// byte-level decoder over the feed, tuned at the live edge.
func newDecoder(cat *Catalog, feed *Feed, opt Options) (dsi.Receiver, error) {
	wait := bootstrapWait(opt)
	if cat.FEC.Enabled() {
		if _, ok := feed.WaitFEC(wait); !ok {
			return nil, fmt.Errorf("netrecv: no FEC descriptor heard within %v; station down or uncoded", wait)
		}
	}
	live, ok := feed.WaitLive(wait)
	if !ok {
		return nil, fmt.Errorf("netrecv: no frames heard within %v; station down?", wait)
	}
	return station.NewFECReceiver(cat.Lay, cat.Version(), feed, cat.FEC, live, nil)
}
