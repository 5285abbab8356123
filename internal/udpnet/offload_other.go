//go:build !linux

package udpnet

import (
	"errors"
	"net"
)

// offload: elsewhere every datagram is its own send and its own read,
// which a 64 KiB buffer never truncates.
const (
	offload  = false
	msgTrunc = 0
)

func enableGRO(*net.UDPConn) error { return errors.ErrUnsupported }
