// The HTTP transport: /v1/meta serves the catalog document and
// /v1/stream serves the raw net-frame byte stream over chunked transfer
// encoding. When a registry is configured the handler also carries
// /metrics and /debug/pprof.

package netsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dsi/internal/obs"
)

// streamQueueDepth bounds how many flushes a lagging subscriber may
// fall behind before whole batches are dropped (or, in Block mode, the
// broadcast stalls).
const streamQueueDepth = 32

// streamConn is one live HTTP subscription: a bounded queue of flushes
// the pacer publishes into and the writer goroutine drains.
type streamConn struct {
	q     chan flushSet
	done  chan struct{}
	chans []bool // per-channel subscription mask; nil subscribes to every channel
}

// wants reports whether the subscription carries batches of channel
// ch. Control snapshots (ch < 0) go to everyone.
func (c *streamConn) wants(ch int) bool {
	return ch < 0 || c.chans == nil || c.chans[ch]
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
func (s *Server) parseCh(r *http.Request) ([]bool, error) {
	vals := r.URL.Query()["ch"]
	if len(vals) == 0 {
		return nil, nil
	}
	mask := make([]bool, s.nch)
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
func (s *Server) subscribe(chans []bool) (*streamConn, func()) {
	c := &streamConn{
		q:     make(chan flushSet, streamQueueDepth),
		done:  make(chan struct{}),
		chans: chans,
	}
	c.q <- flushSet{batches: []slotBatch{s.ctrlSnapshot()}}
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
	}
}

// emit writes one batch to the subscriber and books the emission
// metrics. A ch of -1 (the control snapshot) books bytes to channel 0.
func (s *Server) emit(w http.ResponseWriter, b slotBatch) error {
	if len(b.buf) == 0 {
		return nil
	}
	if _, err := w.Write(b.buf); err != nil {
		return err
	}
	s.bookEmit(s.httpMet, b)
	return nil
}

func (s *Server) bookEmit(met *obs.NetStationMetrics, b slotBatch) {
	if met == nil {
		return
	}
	ch := b.ch
	if ch < 0 {
		ch = 0
	}
	met.BytesEmitted(ch, len(b.buf))
	met.Frames.Add(int64(b.frames))
	met.CtrlFrames.Add(int64(b.ctrl))
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ch, err := s.parseCh(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	c, unsub := s.subscribe(ch)
	defer unsub()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case <-r.Context().Done():
			return
		case fs := <-c.q:
			for _, b := range fs.batches {
				if !c.wants(b.ch) {
					continue
				}
				if err := s.emit(w, b); err != nil {
					return
				}
			}
			fl.Flush()
		}
	}
}
