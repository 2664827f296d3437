// The HTTP transport: net frames back to back as the bare body of
// /v1/stream, which the station ends by closing the connection. TCP
// makes a live stream lossless; a severed stream is reconnected with
// exponential backoff, and the slots broadcast during the gap surface
// as ordinary channel losses — the absolute slot clock is global, so no
// re-anchoring is needed beyond what a directory swap in the gap
// already triggers through the in-band control frames.

package netrecv

import (
	"context"
	"net/http"
	"slices"
	"time"

	"dsi/internal/obs"
)

// HTTPReceiver is a dsi.Receiver fed from a station's HTTP stream.
type HTTPReceiver struct {
	Receiver
}

// NewHTTPReceiver bootstraps (or reuses) a catalog and subscribes to
// the station's frame stream. cat may be nil to bootstrap from
// baseURL/v1/meta.
func NewHTTPReceiver(baseURL string, cat *Catalog, opt Options) (*HTTPReceiver, error) {
	opt = opt.withDefaults()
	if cat == nil {
		var err error
		if cat, err = Bootstrap(baseURL, opt); err != nil {
			return nil, err
		}
	}
	met := obs.NewNetReceiverMetrics(opt.Registry, "http")
	feed := newFeed(cat, opt, met)
	ctx, cancel := context.WithCancel(context.Background())
	h := &HTTPReceiver{Receiver: Receiver{feed: feed, met: met, cancel: cancel}}
	go h.streamLoop(ctx, baseURL)
	dec, err := newDecoder(cat, feed, opt)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Receiver.Receiver = dec
	return h, nil
}

// streamLoop keeps one subscription alive for the receiver's lifetime,
// reconnecting with exponential backoff after any transport failure.
func (h *HTTPReceiver) streamLoop(ctx context.Context, baseURL string) {
	backoff := 50 * time.Millisecond
	first := true
	for ctx.Err() == nil {
		if !first {
			h.reconnects.Add(1)
			if h.met != nil {
				h.met.Reconnects.Inc()
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		first = false
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stream", nil)
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		h.drainStream(resp)
		resp.Body.Close()
		backoff = 50 * time.Millisecond
	}
}

// drainStream feeds the raw byte stream until it breaks. The stream is
// read straight into the free tail of one buffer, behind the partial
// frame the last read left over; only that partial frame is ever moved.
func (h *HTTPReceiver) drainStream(resp *http.Response) {
	buf := make([]byte, 0, 64<<10)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf)) // one frame outgrew the buffer
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		if n > 0 {
			buf = buf[:len(buf)+n]
			used, cerr := h.feed.Consume(buf)
			buf = buf[:copy(buf, buf[used:])]
			if cerr != nil {
				return // desynced: tear down, reconnect clean
			}
		}
		if err != nil {
			return
		}
	}
}
