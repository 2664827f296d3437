//go:build linux

package netsrv

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// The UDP segmentation offload option (linux/udp.h): a send carrying it
// is cut by the kernel into datagrams of the given size.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT
)

// segmentOOBSize is the control-message space of one segmented send.
var segmentOOBSize = syscall.CmsgSpace(2)

// canSegment reports whether the kernel under c cuts a segmented send
// (Linux 4.18 and later). Such a kernel reads the option back; an older
// one refuses it, and would ignore the control message and send a run
// as one datagram.
func canSegment(c *net.UDPConn) bool {
	rc, err := c.SyscallConn()
	if err != nil {
		return false
	}
	ok := false
	if err := rc.Control(func(fd uintptr) {
		_, gerr := syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
		ok = gerr == nil
	}); err != nil {
		return false
	}
	return ok
}

// segmentMsg writes into oob's capacity (segmentOOBSize bytes) the
// control message that has the kernel cut a send into seg-byte
// datagrams, and returns it.
func segmentMsg(oob []byte, seg int) []byte {
	oob = oob[:segmentOOBSize]
	clear(oob)
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = solUDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(seg))
	return oob
}
