//go:build linux

package netrecv

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// The UDP receive offload option (linux/udp.h): a socket with it set
// may read a run of datagrams at once, their size in a control message.
const (
	solUDP = 17  // SOL_UDP
	udpGRO = 104 // UDP_GRO
)

// groOOBSize is the control-message space of one read: the one UDP_GRO
// message, an int.
var groOOBSize = syscall.CmsgSpace(4)

// enableGRO asks the kernel to hand c's datagrams over in runs. A
// kernel without UDP_GRO (before Linux 5.0) refuses, and every read is
// one datagram, as it is off Linux.
func enableGRO(c *net.UDPConn) {
	rc, err := c.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) // refused: one datagram a read
	})
}

// readDatagrams reads a run of datagrams into buf: n bytes of
// seg-byte datagrams, the last of which may be shorter, or (seg 0) one
// datagram. oob has groOOBSize bytes.
func readDatagrams(c *net.UDPConn, buf, oob []byte) (n, seg int, err error) {
	n, oobn, _, _, err := c.ReadMsgUDPAddrPort(buf, oob)
	if err != nil {
		return 0, 0, err
	}
	return n, groSegment(oob[:oobn]), nil
}

// groSegment returns the segment size a read's control messages carry,
// 0 when they carry none. It parses them in place:
// syscall.ParseSocketControlMessage allocates.
func groSegment(oob []byte) int {
	hdr := syscall.CmsgLen(0)
	for len(oob) >= hdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		n := int(h.Len)
		if n < hdr || n > len(oob) {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO && n >= hdr+4 {
			return int(int32(binary.NativeEndian.Uint32(oob[hdr:])))
		}
		oob = oob[min(syscall.CmsgSpace(n-hdr), len(oob)):]
	}
	return 0
}
