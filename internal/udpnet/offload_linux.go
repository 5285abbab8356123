package udpnet

import (
	"net"
	"syscall"
)

// offload: Linux kernels take UDP_SEGMENT sends and UDP_GRO reads.
const (
	offload  = true
	msgTrunc = syscall.MSG_TRUNC
)

// enableGRO turns UDP receive coalescing on for conn.
func enableGRO(conn *net.UDPConn) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) }); cerr != nil {
		return cerr
	}
	return err
}
