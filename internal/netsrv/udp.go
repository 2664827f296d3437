// The datagram transports. Unicast subscribers speak a three-verb text
// protocol on the station's UDP port — "DSIJOIN <ch>" (ch -1 for every
// channel), "DSIPING" to refresh the lease, "DSILEAVE" — and then
// receive one net frame per datagram until their lease expires.
// Multicast needs no subscription at all: each broadcast channel
// streams to its own group (base address, port + channel), which is the
// closest a packet network gets to the paper's shared medium — any
// number of receivers, zero per-client state at the station.

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

type udpSub struct {
	to  net.Addr
	ch  int // -1 = every channel
	exp time.Time
}

// udpEmitter owns the unicast socket, the subscriber table, and the
// optional per-channel multicast sockets.
type udpEmitter struct {
	srv  *Server
	pc   net.PacketConn
	addr string
	q    chan flushSet

	subs map[string]*udpSub // keyed by remote addr string

	mcast []net.Conn // per-channel group sockets, nil when disabled
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
		q:    make(chan flushSet, streamQueueDepth),
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
	conns := make([]net.Conn, s.nch)
	for ch := 0; ch < s.nch; ch++ {
		c, err := net.Dial("udp", net.JoinHostPort(host, strconv.Itoa(port+ch)))
		if err != nil {
			for _, done := range conns[:ch] {
				_ = done.Close()
			}
			return fmt.Errorf("netsrv: multicast channel %d: %w", ch, err)
		}
		conns[ch] = c
	}
	if s.udp == nil {
		return fmt.Errorf("netsrv: multicast emission needs ServeUDP first")
	}
	if s.mcastMet == nil {
		s.mcastMet = obs.NewNetStationMetrics(s.cfg.Registry, "mcast", s.nch)
	}
	s.udp.mcast = conns
	s.mcastAddrs = append(s.mcastAddrs, base)
	return nil
}

// publish enqueues a flush for datagram emission, dropping it if the
// send loop is behind (UDP promises nothing anyway).
func (u *udpEmitter) publish(fs flushSet) {
	select {
	case u.q <- fs:
	default:
		if m := u.srv.udpMet; m != nil {
			m.Drops.Inc()
		}
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
	s.mu.Lock()
	_, known := u.subs[from.String()]
	u.subs[from.String()] = &udpSub{to: from, ch: ch, exp: time.Now().Add(udpLeaseTTL)}
	s.mu.Unlock()
	if !known {
		if m := s.udpMet; m != nil {
			m.ConnOpened()
		}
	}
	// Greet the subscriber with the live control frames so it can
	// bootstrap without waiting out a control cadence period.
	snap := s.ctrlSnapshot()
	u.sendBounded(func(b []byte) { _, _ = u.pc.WriteTo(b, from) }, snap)
	if m := s.udpMet; m != nil {
		s.bookEmit(m, snap)
	}
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

// sendBounded emits each frame of the batch as its own datagram.
func (u *udpEmitter) sendBounded(send func([]byte), b slotBatch) {
	at := 0
	for _, end := range b.bounds {
		send(b.buf[at:end])
		at = end
	}
}

// sendLoop drains published flushes to every live subscriber and every
// multicast group.
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
		var fs flushSet
		select {
		case <-ctx.Done():
			return
		case fs = <-u.q:
		}
		s := u.srv
		now := time.Now()
		s.mu.Lock()
		subs := make([]*udpSub, 0, len(u.subs))
		expired := 0
		for k, sub := range u.subs {
			if now.After(sub.exp) {
				delete(u.subs, k)
				expired++
				continue
			}
			subs = append(subs, sub)
		}
		s.mu.Unlock()
		if m := s.udpMet; m != nil {
			for i := 0; i < expired; i++ {
				m.ConnClosed()
			}
		}
		for _, b := range fs.batches {
			for _, sub := range subs {
				if sub.ch >= 0 && b.ch >= 0 && b.ch != sub.ch {
					continue
				}
				u.sendBounded(func(p []byte) { _, _ = u.pc.WriteTo(p, sub.to) }, b)
				if m := s.udpMet; m != nil {
					s.bookEmit(m, b)
				}
			}
			if u.mcast != nil && b.ch >= 0 && b.ch < len(u.mcast) {
				u.sendBounded(func(p []byte) { _, _ = u.mcast[b.ch].Write(p) }, b)
				if m := s.mcastMet; m != nil {
					s.bookEmit(m, b)
				}
			}
		}
	}
}
