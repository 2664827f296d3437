// The datagram transports. Unicast subscribers speak a three-verb text
// protocol on the station's UDP port — "DSIJOIN <ch>" (ch -1 for every
// channel), "DSIPING" to refresh the lease, "DSILEAVE" — and then
// receive one slot per datagram, per subscription, until their lease
// expires: the frames of the subscribed channels at one absolute slot,
// control frames ahead of them (flush.datagram is the one rule). A
// single-channel subscription is therefore one data frame per datagram.
// Multicast needs no subscription at all: each broadcast channel
// streams to its own group (base address, port + channel), which is the
// closest a packet network gets to the paper's shared medium — any
// number of receivers, zero per-client state at the station. A group is
// a single-channel subscription that never expires.

package netsrv

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"time"

	"dsi/internal/obs"
)

// udpLeaseTTL is how long a unicast subscription lives without a PING.
const udpLeaseTTL = 30 * time.Second

// udpSub is one datagram destination: a unicast subscriber or a
// multicast group.
type udpSub struct {
	write func(p []byte) // sends one datagram; made once per subscription
	chans chanSet
	exp   time.Time // lease end; zero for a multicast group
	met   *obs.NetStationMetrics
}

// send emits the subscription's share of the flush, one slot per
// datagram, and books it. scratch is the caller's gather buffer.
func (sub *udpSub) send(fl *flush, scratch []byte) []byte {
	var p []byte
	dgrams := 0
	for i := 0; ; dgrams++ {
		if p, i, scratch = fl.datagram(sub.chans, i, scratch); p == nil {
			break
		}
		sub.write(p)
	}
	fl.book(sub.met, sub.chans, dgrams)
	return scratch
}

// udpEmitter owns the unicast socket, the subscriber table, and the
// optional per-channel multicast sockets.
type udpEmitter struct {
	srv  *Server
	pc   net.PacketConn
	addr string
	q    chan *flush

	// Guarded by srv.mu.
	subs   map[string]*udpSub // unicast, keyed by remote addr string
	groups []*udpSub          // per-channel multicast groups, nil when disabled

	// Owned by the send loop, reused every flush.
	live    []*udpSub
	scratch []byte
}

// ServeUDP opens the station's datagram port and starts the subscriber
// and emission loops; they stop when ctx is cancelled. The bound
// address (useful with ":0") is returned.
func (s *Server) ServeUDP(ctx context.Context, addr string) (string, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return "", err
	}
	u := &udpEmitter{
		srv:  s,
		pc:   pc,
		addr: pc.LocalAddr().String(),
		q:    make(chan *flush, s.depth),
		subs: make(map[string]*udpSub),
	}
	if s.udpMet == nil {
		s.udpMet = obs.NewNetStationMetrics(s.cfg.Registry, "udp", s.nch)
	}
	s.mu.Lock()
	s.udp = u
	s.mu.Unlock()
	go u.controlLoop()
	go u.sendLoop(ctx)
	go func() {
		<-ctx.Done()
		_ = pc.Close()
	}()
	return u.addr, nil
}

// EnableMulticast opens one emission socket per channel on the group
// base address: channel c streams to host:port+c. Works with any
// multicast group address (e.g. 239.0.0.0/8 for loopback-scope tests).
func (s *Server) EnableMulticast(base string) error {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return fmt.Errorf("netsrv: multicast base %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("netsrv: multicast base %q: %w", base, err)
	}
	if s.udp == nil {
		return fmt.Errorf("netsrv: multicast emission needs ServeUDP first")
	}
	if s.mcastMet == nil {
		s.mcastMet = obs.NewNetStationMetrics(s.cfg.Registry, "mcast", s.nch)
	}
	conns := make([]net.Conn, s.nch)
	groups := make([]*udpSub, s.nch)
	for ch := range groups {
		c, err := net.Dial("udp", net.JoinHostPort(host, strconv.Itoa(port+ch)))
		if err != nil {
			for _, done := range conns[:ch] {
				_ = done.Close()
			}
			return fmt.Errorf("netsrv: multicast channel %d: %w", ch, err)
		}
		conns[ch] = c
		groups[ch] = &udpSub{write: func(p []byte) { _, _ = c.Write(p) }, chans: only(s.nch, ch), met: s.mcastMet}
	}
	s.mu.Lock()
	s.udp.groups = groups
	s.mu.Unlock()
	s.mcastAddrs = append(s.mcastAddrs, base)
	return nil
}

// publish enqueues a flush for datagram emission, dropping it if the
// send loop is behind (UDP promises nothing anyway).
func (u *udpEmitter) publish(fl *flush) {
	fl.refs.Add(1)
	select {
	case u.q <- fl:
	default:
		if m := u.srv.udpMet; m != nil {
			m.Drops.Inc()
		}
		u.srv.release(fl)
	}
}

// controlLoop serves the JOIN/PING/LEAVE verbs until the socket closes.
func (u *udpEmitter) controlLoop() {
	buf := make([]byte, 256)
	for {
		n, from, err := u.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		msg := bytes.TrimSpace(buf[:n])
		switch {
		case bytes.HasPrefix(msg, []byte("DSIJOIN")):
			ch := -1
			if f := bytes.Fields(msg); len(f) == 2 {
				if v, err := strconv.Atoi(string(f[1])); err == nil && v >= -1 && v < u.srv.nch {
					ch = v
				}
			}
			u.join(from, ch)
		case bytes.Equal(msg, []byte("DSIPING")):
			u.refresh(from)
		case bytes.Equal(msg, []byte("DSILEAVE")):
			u.leave(from)
		}
	}
}

func (u *udpEmitter) join(from net.Addr, ch int) {
	s := u.srv
	sub := &udpSub{
		write: func(p []byte) { _, _ = u.pc.WriteTo(p, from) },
		exp:   time.Now().Add(udpLeaseTTL),
		met:   s.udpMet,
	}
	if ch >= 0 {
		sub.chans = only(s.nch, ch)
	}
	s.mu.Lock()
	_, known := u.subs[from.String()]
	u.subs[from.String()] = sub
	s.mu.Unlock()
	if !known {
		if m := s.udpMet; m != nil {
			m.ConnOpened()
		}
	}
	// Greet the subscriber with the live control frames so it can
	// bootstrap without waiting out a control cadence period. They are
	// adjacent in the flush, so no gather buffer is needed.
	snap := s.ctrlSnapshot()
	sub.send(snap, nil)
	s.release(snap)
}

func (u *udpEmitter) refresh(from net.Addr) {
	u.srv.mu.Lock()
	if sub, ok := u.subs[from.String()]; ok {
		sub.exp = time.Now().Add(udpLeaseTTL)
	}
	u.srv.mu.Unlock()
}

func (u *udpEmitter) leave(from net.Addr) {
	u.srv.mu.Lock()
	_, known := u.subs[from.String()]
	delete(u.subs, from.String())
	u.srv.mu.Unlock()
	if known {
		if m := u.srv.udpMet; m != nil {
			m.ConnClosed()
		}
	}
}

// sendLoop drains published flushes to every live subscriber and every
// multicast group, each hearing the flush in air order.
//
// It holds one OS thread for its lifetime. The loop is one system call
// per datagram, and each one wakes the subscriber's reader; left to the
// runtime, the goroutine resumes on whichever thread picked it up this
// flush, so the kernel sees the waker change identity and CPU from one
// flush to the next and a paced station's cost — and its subscribers' —
// differs from run to run. The price is one thread hand-off per flush.
func (u *udpEmitter) sendLoop(ctx context.Context) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		select {
		case <-ctx.Done():
			return
		case fl := <-u.q:
			u.emit(fl)
		}
	}
}

// emit sends one flush to everyone listening and releases it.
func (u *udpEmitter) emit(fl *flush) {
	s := u.srv
	now := time.Now()
	expired := 0
	s.mu.Lock()
	u.live = append(u.live[:0], u.groups...)
	for k, sub := range u.subs {
		if now.After(sub.exp) {
			delete(u.subs, k)
			expired++
			continue
		}
		u.live = append(u.live, sub)
	}
	s.mu.Unlock()
	if m := s.udpMet; m != nil {
		for i := 0; i < expired; i++ {
			m.ConnClosed()
		}
	}
	for _, sub := range u.live {
		u.scratch = sub.send(fl, u.scratch)
	}
	s.release(fl)
}
