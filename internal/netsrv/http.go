// The HTTP transport: /v1/meta serves the catalog document and
// /v1/stream serves the raw net-frame byte stream as a bare body — no
// transfer coding, no length, the frames themselves until the station
// closes the connection. When a registry is configured the handler also
// carries /metrics and /debug/pprof.

package netsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dsi/internal/obs"
)

// streamQueueDepth bounds how many flushes a lagging subscriber of a
// paced station may fall behind — 160 ms of air — before whole batches
// are dropped (or, in Block mode, the broadcast stalls).
const streamQueueDepth = 32

const (
	// flatOutSlots is the flush of a station with no pace, and
	// maxQueuedSlots what one of its subscriber queues holds, in
	// maxQueuedSlots/flatOutSlots flushes. A wide flush spreads the
	// per-flush work (a send and a wake-up per subscriber) over
	// many slots; the bound keeps what a stalled subscriber pins, and so
	// the live heap of a back-pressured pipeline, small.
	flatOutSlots   = 256
	maxQueuedSlots = 2048
)

// streamConn is one live HTTP subscription: a bounded queue of flushes
// the pacer publishes into and the writer goroutine drains, releasing
// each once written.
type streamConn struct {
	q     chan *flush
	done  chan struct{}
	chans chanSet
}

// Handler returns the station's HTTP surface.
func (s *Server) Handler() http.Handler {
	var mux *http.ServeMux
	if s.cfg.Registry != nil {
		mux = obs.NewMux(s.cfg.Registry)
	} else {
		mux = http.NewServeMux()
	}
	mux.HandleFunc("/v1/meta", s.handleMeta)
	mux.HandleFunc("/v1/stream", s.handleStream)
	return mux
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.meta())
}

// parseCh reads the optional ?ch= selector: a comma-separated channel
// list (repeatable as multiple ch= parameters), or every channel when
// absent. Every listed channel is validated against the broadcast's
// channel count — an unknown channel is a client error, never a
// silent full fan-out. The returned mask is nil for the full set.
func (s *Server) parseCh(r *http.Request) (chanSet, error) {
	vals := r.URL.Query()["ch"]
	if len(vals) == 0 {
		return nil, nil
	}
	mask := make(chanSet, s.nch)
	picked := 0
	for _, v := range vals {
		for _, part := range strings.Split(v, ",") {
			ch, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad channel %q in ch=%q", part, v)
			}
			if ch < 0 || ch >= s.nch {
				return nil, fmt.Errorf("channel %d out of range [0,%d)", ch, s.nch)
			}
			if !mask[ch] {
				mask[ch] = true
				picked++
			}
		}
	}
	if picked == s.nch {
		return nil, nil // the full set; no filtering needed
	}
	return mask, nil
}

// subscribe registers a stream connection with the pacer and returns
// its unregister func. The initial control snapshot is queued as the
// first flush so the subscription opens with the live directory and
// FEC descriptor.
func (s *Server) subscribe(chans chanSet) (*streamConn, func()) {
	c := &streamConn{
		q:     make(chan *flush, s.depth),
		done:  make(chan struct{}),
		chans: chans,
	}
	c.q <- s.ctrlSnapshot()
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.httpMet.ConnOpened()
	if chans != nil {
		s.httpMet.SubsetSubscribed()
	}
	return c, func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		close(c.done)
		s.httpMet.ConnClosed()
		// Hand back what was queued and never written. A publish already
		// under way may still queue one more; that one is the collector's.
		for {
			select {
			case fl := <-c.q:
				s.release(fl)
			default:
				return
			}
		}
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ch, err := s.parseCh(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	c, unsub := s.subscribe(ch)
	defer unsub()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	// The body is the frames as they are: net/http sends an identity
	// response without the header, unchunked, and closes the connection
	// when the handler returns. A subscription to every channel is then
	// one send per flush, and the client reads frames with no chunk
	// lines between them.
	w.Header().Set("Transfer-Encoding", "identity")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case <-r.Context().Done():
			return
		case fl := <-c.q:
			err := fl.writeTo(w, c.chans)
			if err == nil {
				fl.book(s.httpMet, c.chans, 0, 0)
			}
			s.release(fl)
			if err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
