package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/pool"
)

// SOCKS5 (RFC 1928) server-side handshake and a minimal client dialer.
// Only what a CONNECT proxy needs: no-auth negotiation, CONNECT with
// IPv4, IPv6 or domain addressing. BIND and UDP-ASSOCIATE are answered
// with ReplyCmdNotSupported, unknown address types with
// ReplyAddrNotSupported, per the RFC.

const (
	socksVersion    = 5
	methodNoAuth    = 0x00
	methodNoneOK    = 0xFF
	cmdConnect      = 1
	atypIPv4        = 1
	atypDomain      = 3
	atypIPv6        = 4
	maxDomainLength = 255
)

// SocksError is a handshake failure for which the server already wrote
// the RFC-mandated reply (or none is defined); the connection must
// simply be closed.
type SocksError struct {
	Code uint8 // reply code sent, or ReplyGeneralFailure if none applies
	Why  string
}

func (e *SocksError) Error() string {
	return fmt.Sprintf("socks: %s (reply %d)", e.Why, e.Code)
}

// Fixed SOCKS5 messages. They are written as slices of these
// package-level arrays, which cost no allocation; a literal would be
// one per write, since a net.Conn's Write keeps its argument.
var (
	methodAccepted = [2]byte{socksVersion, methodNoAuth}
	methodRefused  = [2]byte{socksVersion, methodNoneOK}
	greeting       = [3]byte{socksVersion, 1, methodNoAuth}
	// replies[code] is the final reply with code and a zero IPv4 bind
	// address.
	replies = func() (r [256][10]byte) {
		for code := range r {
			r[code] = [10]byte{socksVersion, byte(code), 0, atypIPv4}
		}
		return r
	}()
)

// scratchLen holds the longest message either side of the handshake
// reads: a CONNECT request naming a 255-byte domain (the 257-byte
// greeting is shorter).
const scratchLen = 4 + 1 + maxDomainLength + 2

// scratch returns a pool buffer for one handshake's reads. An array on
// the stack would not stay there: passing it to a net.Conn's Read moves
// it to the heap, one allocation per read.
func scratch() []byte { return pool.Get(scratchLen)[:scratchLen] }

// ReadRequest runs the server side of the SOCKS5 negotiation up to the
// point of decision: it returns the CONNECT target as "host:port"
// WITHOUT writing the final reply — the caller answers with WriteReply
// once it knows the outcome. For unsupported commands and address
// types the proper failure reply has already been written and a
// *SocksError is returned.
func ReadRequest(c net.Conn) (string, error) {
	buf := scratch()
	defer pool.Put(buf)
	hdr := buf[:2]
	if _, err := io.ReadFull(c, hdr); err != nil {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "short greeting"}
	}
	if hdr[0] != socksVersion {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: fmt.Sprintf("bad version %d", hdr[0])}
	}
	nMethods := int(hdr[1])
	if nMethods == 0 {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "no auth methods offered"}
	}
	methods := buf[:nMethods]
	if _, err := io.ReadFull(c, methods); err != nil {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "short method list"}
	}
	ok := false
	for _, m := range methods {
		if m == methodNoAuth {
			ok = true
			break
		}
	}
	if !ok {
		c.Write(methodRefused[:])
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "no acceptable auth method"}
	}
	if _, err := c.Write(methodAccepted[:]); err != nil {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "method reply write"}
	}

	req := buf[:4]
	if _, err := io.ReadFull(c, req); err != nil {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "short request"}
	}
	if req[0] != socksVersion {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "bad request version"}
	}
	cmd, atyp := req[1], req[3]
	// Parse the address and port for ANY command before judging the
	// command: a rejected BIND or UDP ASSOCIATE must still have its
	// request fully drained, or closing a socket with unread bytes can
	// reset the connection and discard the ReplyCmdNotSupported reply
	// before the client reads it.
	var host string
	switch atyp {
	case atypIPv4:
		a := buf[:4]
		if _, err := io.ReadFull(c, a); err != nil {
			return "", &SocksError{Code: ReplyGeneralFailure, Why: "short IPv4 address"}
		}
		host = net.IP(a).String()
	case atypIPv6:
		a := buf[:16]
		if _, err := io.ReadFull(c, a); err != nil {
			return "", &SocksError{Code: ReplyGeneralFailure, Why: "short IPv6 address"}
		}
		host = net.IP(a).String()
	case atypDomain:
		if _, err := io.ReadFull(c, buf[:1]); err != nil {
			return "", &SocksError{Code: ReplyGeneralFailure, Why: "short domain length"}
		}
		d := buf[:buf[0]]
		if _, err := io.ReadFull(c, d); err != nil {
			return "", &SocksError{Code: ReplyGeneralFailure, Why: "short domain"}
		}
		host = string(d)
	default:
		WriteReply(c, ReplyAddrNotSupported)
		return "", &SocksError{Code: ReplyAddrNotSupported, Why: fmt.Sprintf("unsupported address type %d", atyp)}
	}
	port := buf[:2]
	if _, err := io.ReadFull(c, port); err != nil {
		return "", &SocksError{Code: ReplyGeneralFailure, Why: "short port"}
	}
	if cmd != cmdConnect {
		WriteReply(c, ReplyCmdNotSupported)
		return "", &SocksError{Code: ReplyCmdNotSupported, Why: fmt.Sprintf("unsupported command %d", cmd)}
	}
	p := int(port[0])<<8 | int(port[1])
	return net.JoinHostPort(host, strconv.Itoa(p)), nil
}

// WriteReply sends the final SOCKS5 reply with a zero bind address
// (this proxy never supports BIND, so the bind address carries no
// information).
func WriteReply(c net.Conn, code uint8) error {
	_, err := c.Write(replies[code][:])
	return err
}

// DialErrorReply maps an egress dial error onto the closest SOCKS5
// reply code (RFC 1928 §6).
func DialErrorReply(err error) uint8 {
	if err == nil {
		return ReplySuccess
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		if opErr.Timeout() {
			return ReplyHostUnreachable
		}
	}
	var dnsErr *net.DNSError
	if errors.As(err, &dnsErr) {
		return ReplyHostUnreachable
	}
	s := err.Error()
	switch {
	case strings.Contains(s, "connection refused"):
		return ReplyConnRefused
	case strings.Contains(s, "network is unreachable"):
		return ReplyNetUnreachable
	case strings.Contains(s, "no route to host"), strings.Contains(s, "host is down"):
		return ReplyHostUnreachable
	}
	return ReplyGeneralFailure
}

// DialSocks connects through a SOCKS5 proxy to target ("host:port"),
// performing the client side of the handshake. It is the counterpart
// used by the cluster launcher, the bench harness and tests; curl or
// any RFC 1928 client works identically against the same ingress.
func DialSocks(proxy, target string) (net.Conn, error) {
	host, portStr, err := net.SplitHostPort(target)
	if err != nil {
		return nil, fmt.Errorf("socks dial: bad target %q: %w", target, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return nil, fmt.Errorf("socks dial: bad port %q", portStr)
	}
	c, err := net.Dial("tcp", proxy)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (net.Conn, error) {
		c.Close()
		return nil, err
	}
	buf := scratch()
	defer pool.Put(buf)
	if _, err := c.Write(greeting[:]); err != nil {
		return fail(err)
	}
	mr := buf[:2]
	if _, err := io.ReadFull(c, mr); err != nil {
		return fail(fmt.Errorf("socks dial: method reply: %w", err))
	}
	if mr[0] != socksVersion || mr[1] != methodNoAuth {
		return fail(fmt.Errorf("socks dial: proxy rejected auth method (%d,%d)", mr[0], mr[1]))
	}
	req := append(buf[:0], socksVersion, cmdConnect, 0)
	if ip, err := netip.ParseAddr(host); err == nil && ip.Zone() == "" {
		if ip = ip.Unmap(); ip.Is4() {
			a := ip.As4()
			req = append(req, atypIPv4)
			req = append(req, a[:]...)
		} else {
			a := ip.As16()
			req = append(req, atypIPv6)
			req = append(req, a[:]...)
		}
	} else {
		if len(host) > maxDomainLength {
			return fail(fmt.Errorf("socks dial: domain too long"))
		}
		req = append(req, atypDomain, byte(len(host)))
		req = append(req, host...)
	}
	req = append(req, byte(port>>8), byte(port))
	if _, err := c.Write(req); err != nil {
		return fail(err)
	}
	rep := buf[:4]
	if _, err := io.ReadFull(c, rep); err != nil {
		return fail(fmt.Errorf("socks dial: reply: %w", err))
	}
	if rep[1] != ReplySuccess {
		return fail(fmt.Errorf("socks dial: proxy reply code %d", rep[1]))
	}
	var skip int
	switch rep[3] {
	case atypIPv4:
		skip = 4 + 2
	case atypIPv6:
		skip = 16 + 2
	case atypDomain:
		if _, err := io.ReadFull(c, buf[:1]); err != nil {
			return fail(err)
		}
		skip = int(buf[0]) + 2
	default:
		return fail(fmt.Errorf("socks dial: bad bind address type %d", rep[3]))
	}
	if _, err := io.ReadFull(c, buf[:skip]); err != nil {
		return fail(err)
	}
	return c, nil
}
