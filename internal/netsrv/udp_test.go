// The subscribe protocol: a join names the verb and at most one channel
// the broadcast has, and anything else subscribes nothing.

package netsrv

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"dsi/internal/obs"
)

func TestParseJoin(t *testing.T) {
	for _, tc := range []struct {
		msg string
		ch  int
		ok  bool
	}{
		{"DSIJOIN", -1, true},
		{"DSIJOIN -1", -1, true},
		{"DSIJOIN 0", 0, true},
		{"DSIJOIN  2", 2, true},
		{"DSIJOINX", 0, false},
		{"DSIJOINX 1", 0, false},
		{"DSIJOIN 3", 0, false},
		{"DSIJOIN -2", 0, false},
		{"DSIJOIN one", 0, false},
		{"DSIJOIN 1 2", 0, false},
		{"DSIJOIN 1x", 0, false},
		{"dsijoin 1", 0, false},
		{"", 0, false},
	} {
		if ch, ok := parseJoin([]byte(tc.msg), 3); ch != tc.ch || ok != tc.ok {
			t.Errorf("parseJoin(%q) = %d, %v; want %d, %v", tc.msg, ch, ok, tc.ch, tc.ok)
		}
	}
}

// TestBadJoinSubscribesNothing sends a station requests that are no
// join, then a good one from the same socket: the control loop serves
// them in order, so once the good join is in the table every bad one
// has been refused — none subscribed, each counted.
func TestBadJoinSubscribesNothing(t *testing.T) {
	const nch = 3
	reg := obs.NewRegistry()
	srv, err := New(Config{Source: newStampSource(nch, 64, false), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := srv.ServeUDP(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := []string{"DSIJOINX", "DSIJOINX 1", "DSIJOIN 3", "DSIJOIN -2", "DSIJOIN one", "DSIJOIN 1 2", "DSIPING now"}
	for _, msg := range append(bad, "DSIJOIN 1") {
		if _, err := fmt.Fprint(conn, msg); err != nil {
			t.Fatal(err)
		}
	}
	var subs []*udpSub
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		subs = subs[:0]
		for _, sub := range srv.udp.subs {
			subs = append(subs, sub)
		}
		srv.mu.Unlock()
		if len(subs) > 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(subs) != 1 || fmt.Sprint(subs[0].chans) != fmt.Sprint(only(nch, 1)) {
		t.Fatalf("subscriptions %v, want channel 1's alone", subs)
	}
	m := obs.NewNetStationMetrics(reg, "udp", nch)
	if n := m.BadRequests.Value(); n != int64(len(bad)) {
		t.Fatalf("station_net_bad_requests_total = %d, want %d", n, len(bad))
	}
	if n := m.Conns.Value(); n != 1 {
		t.Fatalf("station_net_conns = %v, want 1", n)
	}
}
