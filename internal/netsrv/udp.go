// The datagram transports. Unicast subscribers speak a three-verb text
// protocol on the station's UDP port — "DSIJOIN <ch>" (ch -1 for every
// channel), "DSIPING" to refresh the lease, "DSILEAVE" — and then
// receive one slot per datagram, per subscription, until their lease
// expires: the frames of the subscribed channels at one absolute slot,
// control frames ahead of them (flush.datagram is the one rule). A
// single-channel subscription is therefore one data frame per datagram.
// A request that is none of the three — an unknown verb, or a join
// with a bad channel or extra tokens — subscribes nothing and is
// counted.
// Multicast needs no subscription at all: each broadcast channel
// streams to its own group (base address, port + channel), which is the
// closest a packet network gets to the paper's shared medium — any
// number of receivers, zero per-client state at the station. A group is
// a single-channel subscription that never expires.
//
// A flush's datagrams leave in runs, one write each: where the kernel
// offers UDP segmentation (Linux), a run of equal-size datagrams — the
// last may be shorter — is gathered and sent with a UDP_SEGMENT control
// message, and the kernel cuts it back into those datagrams. Nothing
// changes on the wire: each segment is still one slot of one
// subscription, and a receiver without GRO reads them one by one.

package netsrv

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"time"

	"dsi/internal/obs"
)

// udpLeaseTTL is how long a unicast subscription lives without a PING.
const udpLeaseTTL = 30 * time.Second

// The kernel's bounds on one segmented write: at most maxSegments
// datagrams and maxRunBytes bytes of them.
const (
	maxSegments = 64
	maxRunBytes = 65000
)

// udpSub is one datagram destination: a unicast subscriber or a
// multicast group.
type udpSub struct {
	// write sends b as one datagram or, with a segmentation control
	// message in oob, as the run of datagrams the kernel cuts it into;
	// made once per subscription.
	write func(b, oob []byte) error
	// segment is whether runs of datagrams go out in one write; a
	// segmented write the kernel refuses clears it. Whoever sends to the
	// subscription owns it: the subscribe path until the subscription is
	// in the table, the send loop after.
	segment bool
	chans   chanSet
	exp     time.Time // lease end; zero for a multicast group
	met     *obs.NetStationMetrics
}

// segRun is a run of datagrams gathered for one write: seg is its
// segment size (its first datagram's), n its datagrams.
type segRun struct {
	buf    []byte
	seg, n int
}

// takes reports whether datagram p may join the run: the run's
// datagrams are all seg bytes but for a shorter last one, and one write
// carries at most maxSegments of them and maxRunBytes in all.
func (r *segRun) takes(p []byte) bool {
	return r.n == 0 ||
		len(p) <= r.seg && len(r.buf) == r.n*r.seg && r.n < maxSegments && len(r.buf)+len(p) <= maxRunBytes
}

func (r *segRun) add(p []byte) {
	if r.n == 0 {
		r.seg = len(p)
	}
	r.buf = append(r.buf, p...)
	r.n++
}

// sendScratch is a sender's reusable storage: a datagram gathered from
// frames that lie apart, the run of datagrams gathered for one write,
// and the write's control message.
type sendScratch struct {
	dgram []byte
	run   segRun
	oob   []byte
}

func newSendScratch() *sendScratch {
	return &sendScratch{oob: make([]byte, 0, segmentOOBSize)}
}

// send emits the subscription's share of the flush, one slot per
// datagram, and books it. A subscription that segments sends a run of
// datagrams (segRun.takes) in one write; a datagram past dgramBudget,
// which would not fit an Ethernet MTU as a segment, goes out alone.
func (sub *udpSub) send(fl *flush, sc *sendScratch) {
	r := &sc.run
	dgrams, writes := 0, 0
	for i := 0; ; dgrams++ {
		var p []byte
		if p, i, sc.dgram = fl.datagram(sub.chans, i, sc.dgram); p == nil {
			break
		}
		runs := sub.segment && len(p) <= dgramBudget
		if r.n > 0 && !(runs && r.takes(p)) {
			writes += sub.writeRun(r, sc.oob)
		}
		if runs {
			r.add(p)
		} else {
			_ = sub.write(p, nil) // UDP promises nothing
			writes++
		}
	}
	if r.n > 0 {
		writes += sub.writeRun(r, sc.oob)
	}
	fl.book(sub.met, sub.chans, dgrams, writes)
}

// writeRun sends the run and empties it: one datagram as it is, several
// in one segmented write. A segmented write that fails is sent again
// datagram by datagram; if the first of those goes out, the kernel
// refused the segmentation and the subscription segments no more. It
// returns the writes the run went out in.
func (sub *udpSub) writeRun(r *segRun, oob []byte) int {
	b, seg, n := r.buf, r.seg, r.n
	r.buf, r.n = r.buf[:0], 0
	if n == 1 {
		_ = sub.write(b, nil)
		return 1
	}
	if sub.write(b, segmentMsg(oob, seg)) == nil {
		return 1
	}
	for k := 0; len(b) > 0; k++ {
		d := b[:min(seg, len(b))]
		if err := sub.write(d, nil); k == 0 {
			sub.segment = err != nil
		}
		b = b[len(d):]
	}
	return n
}

// udpEmitter owns the unicast socket, the subscriber table, and the
// optional per-channel multicast sockets.
type udpEmitter struct {
	srv     *Server
	pc      *net.UDPConn
	addr    string
	q       chan *flush
	segment bool // whether the kernel under pc cuts segmented writes

	// Guarded by srv.mu.
	subs   map[netip.AddrPort]*udpSub // unicast, keyed by remote address
	groups []*udpSub                  // per-channel multicast groups, nil when disabled

	// Owned by the send loop, reused every flush.
	live []*udpSub
	sc   *sendScratch
}

func newUDPEmitter(s *Server, pc *net.UDPConn) *udpEmitter {
	return &udpEmitter{
		srv:     s,
		pc:      pc,
		addr:    pc.LocalAddr().String(),
		q:       make(chan *flush, s.depth),
		segment: canSegment(pc),
		subs:    make(map[netip.AddrPort]*udpSub),
		sc:      newSendScratch(),
	}
}

// ServeUDP opens the station's datagram port and starts the subscriber
// and emission loops; they stop when ctx is cancelled. The bound
// address (useful with ":0") is returned.
func (s *Server) ServeUDP(ctx context.Context, addr string) (string, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return "", err
	}
	u := newUDPEmitter(s, pc.(*net.UDPConn))
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
		conn, err := net.Dial("udp", net.JoinHostPort(host, strconv.Itoa(port+ch)))
		if err != nil {
			for _, done := range conns[:ch] {
				_ = done.Close()
			}
			return fmt.Errorf("netsrv: multicast channel %d: %w", ch, err)
		}
		c := conn.(*net.UDPConn)
		conns[ch] = c
		groups[ch] = &udpSub{
			write: func(b, oob []byte) error {
				_, _, err := c.WriteMsgUDP(b, oob, nil)
				return err
			},
			segment: canSegment(c),
			chans:   only(s.nch, ch),
			met:     s.mcastMet,
		}
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

// controlLoop serves the JOIN/PING/LEAVE verbs until the socket closes,
// counting every other request.
func (u *udpEmitter) controlLoop() {
	buf := make([]byte, 256)
	for {
		n, from, err := u.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		msg := bytes.TrimSpace(buf[:n])
		switch {
		case bytes.Equal(msg, []byte("DSIPING")):
			u.refresh(from)
		case bytes.Equal(msg, []byte("DSILEAVE")):
			u.leave(from)
		default:
			if ch, ok := parseJoin(msg, u.srv.nch); ok {
				u.join(from, ch)
			} else if m := u.srv.udpMet; m != nil {
				m.BadRequests.Inc()
			}
		}
	}
}

// parseJoin reads a subscribe request of a broadcast of nch channels:
// the verb DSIJOIN alone (every channel) or with one channel, -1 for
// every channel. Anything else is no join: another verb, a channel that
// does not parse or that the broadcast does not have, an extra token.
func parseJoin(msg []byte, nch int) (int, bool) {
	f := bytes.Fields(msg)
	if len(f) == 0 || len(f) > 2 || !bytes.Equal(f[0], []byte("DSIJOIN")) {
		return 0, false
	}
	if len(f) == 1 {
		return -1, true
	}
	ch, err := strconv.Atoi(string(f[1]))
	if err != nil || ch < -1 || ch >= nch {
		return 0, false
	}
	return ch, true
}

// unicast returns a subscription for the subscriber at to, to channel
// ch or (ch -1) every channel, whose lease starts now.
func (u *udpEmitter) unicast(to netip.AddrPort, ch int) *udpSub {
	sub := &udpSub{
		write: func(b, oob []byte) error {
			_, _, err := u.pc.WriteMsgUDPAddrPort(b, oob, to)
			return err
		},
		segment: u.segment,
		exp:     time.Now().Add(udpLeaseTTL),
		met:     u.srv.udpMet,
	}
	if ch >= 0 {
		sub.chans = only(u.srv.nch, ch)
	}
	return sub
}

func (u *udpEmitter) join(from netip.AddrPort, ch int) {
	s := u.srv
	sub := u.unicast(from, ch)
	// Greet the subscriber with the live control frames so it can
	// bootstrap without waiting out a control cadence period. Until the
	// subscription is in the table no other goroutine sends to it.
	snap := s.ctrlSnapshot()
	sub.send(snap, newSendScratch())
	s.release(snap)
	s.mu.Lock()
	_, known := u.subs[from]
	u.subs[from] = sub
	s.mu.Unlock()
	if !known {
		if m := s.udpMet; m != nil {
			m.ConnOpened()
		}
	}
}

func (u *udpEmitter) refresh(from netip.AddrPort) {
	u.srv.mu.Lock()
	if sub, ok := u.subs[from]; ok {
		sub.exp = time.Now().Add(udpLeaseTTL)
	}
	u.srv.mu.Unlock()
}

func (u *udpEmitter) leave(from netip.AddrPort) {
	u.srv.mu.Lock()
	_, known := u.subs[from]
	delete(u.subs, from)
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
// per run of datagrams, and each one wakes the subscriber's reader; left
// to the runtime, the goroutine resumes on whichever thread picked it up
// this flush, so the kernel sees the waker change identity and CPU from
// one flush to the next and a paced station's cost — and its
// subscribers' — differs from run to run. The price is one thread
// hand-off per flush.
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
		sub.send(fl, u.sc)
	}
	s.release(fl)
}
