package netsrv

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dsi/internal/dataset"
	"dsi/internal/dsi"
	"dsi/internal/obs"
	"dsi/internal/station"
	"dsi/internal/wire"
)

// newTestSource builds a 3-channel split broadcast's transmitter.
func newTestSource(t *testing.T) (*station.MultiTransmitter, *dsi.Layout) {
	t.Helper()
	ds := dataset.Uniform(200, 7, 3)
	x, err := dsi.Build(ds, dsi.Config{Capacity: 64, ReserveMCPtr: true})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := dsi.NewLayout(x, dsi.MultiConfig{Channels: 3, Scheduler: dsi.SchedSplit, SwitchSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err := station.NewMultiTransmitter(lay)
	if err != nil {
		t.Fatal(err)
	}
	return src, lay
}

// newTestStation assembles a 3-channel split station over an httptest
// server, its pacer running flat out.
func newTestStation(t *testing.T, reg *obs.Registry) (*Server, *httptest.Server) {
	t.Helper()
	src, lay := newTestSource(t)
	srv, err := New(Config{Source: src, Layout: lay, Registry: reg, CtrlEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = srv.Run(ctx) }()
	return srv, hs
}

// TestStreamChValidation: unknown or malformed channels in ?ch= are a
// 400, never a silent full fan-out.
func TestStreamChValidation(t *testing.T) {
	_, hs := newTestStation(t, nil)
	for _, q := range []string{
		"ch=3", "ch=-1", "ch=abc", "ch=1,3", "ch=1,,2", "ch=0&ch=9",
	} {
		resp, err := http.Get(hs.URL + "/v1/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/stream?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// readFrames reads from the stream until n data frames arrived (or the
// deadline), returning them.
func readFrames(t *testing.T, body io.Reader, n int) []wire.NetFrame {
	t.Helper()
	var frames []wire.NetFrame
	buf := make([]byte, 0, 1<<16)
	chunk := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	for len(frames) < n && time.Now().Before(deadline) {
		c, err := body.Read(chunk)
		if c > 0 {
			buf = append(buf, chunk[:c]...)
			for {
				f, used, err := wire.DecodeNetFrame(buf)
				if err != nil {
					break
				}
				buf = buf[used:]
				if f.Kind == wire.NetData {
					frames = append(frames, f)
				}
			}
		}
		if err != nil {
			break
		}
	}
	return frames
}

// TestStreamChSubset: a multi-channel ?ch= list delivers exactly the
// subscribed channels and books a subset subscription.
func TestStreamChSubset(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestStation(t, reg)

	resp, err := http.Get(hs.URL + "/v1/stream?ch=0,2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	frames := readFrames(t, resp.Body, 200)
	if len(frames) < 200 {
		t.Fatalf("stream delivered only %d data frames", len(frames))
	}
	seen := map[uint16]int{}
	for _, f := range frames {
		seen[f.Ch]++
	}
	if seen[1] != 0 {
		t.Fatalf("unsubscribed channel 1 leaked %d frames", seen[1])
	}
	if seen[0] == 0 || seen[2] == 0 {
		t.Fatalf("subscribed channels missing: %v", seen)
	}

	rec := httptest.NewRecorder()
	obs.NewMux(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `station_net_subset_subscriptions_total{transport="http"} 1`) {
		t.Fatal("subset subscription not booked in station_net_* metrics")
	}
}

// TestStreamChFullList: listing every channel is the full fan-out, not
// a subset.
func TestStreamChFullList(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestStation(t, reg)
	resp, err := http.Get(hs.URL + "/v1/stream?ch=0,1,2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, resp.Body, 200)
	seen := map[uint16]int{}
	for _, f := range frames {
		seen[f.Ch]++
	}
	for ch := uint16(0); ch < 3; ch++ {
		if seen[ch] == 0 {
			t.Fatalf("channel %d missing from the full list subscription: %v", ch, seen)
		}
	}
	rec := httptest.NewRecorder()
	obs.NewMux(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), `station_net_subset_subscriptions_total{transport="http"} 1`) {
		t.Fatal("full channel list booked as a subset subscription")
	}
}
