package livenet

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/token"
	"repro/internal/viper"
)

// The host edges of a live packet: what Host.Send costs to originate
// one, and what a host's receive step costs to deliver one to a
// handler. Each runs on the two packet shapes the benchmark workloads
// send (bench/README.md): fwd_min's 16-byte payload over four tokenless
// hops, and tunnel_mtu's 1024-byte payload over two tokened hops.

// hostShape is one workload's packet: its route as the sending host
// gives it, and its hops as the receiving host's trailer records them.
type hostShape struct {
	name    string
	route   []viper.Segment
	payload []byte
	hops    []viper.Segment // return segments, first hop first
}

func hostShapes() []hostShape {
	fwd := hostShape{name: "fwd_min", route: []viper.Segment{{Port: 1}}, payload: make([]byte, 16)}
	for i := 0; i < 4; i++ {
		fwd.route = append(fwd.route, viper.Segment{Port: 2, Flags: viper.FlagVNT})
		fwd.hops = append(fwd.hops, viper.Segment{Port: 1})
	}
	fwd.route = append(fwd.route, viper.Segment{Port: viper.PortLocal})

	auth := token.NewAuthority([]byte("host-bench-key"))
	trunk := auth.Issue(token.Spec{Account: 1, Port: 2, ReverseOK: true})
	out := auth.Issue(token.Spec{Account: 1, Port: 3, ReverseOK: true})
	tun := hostShape{
		name: "tunnel_mtu",
		route: []viper.Segment{
			{Port: 1},
			{Port: 2, Flags: viper.FlagVNT, PortToken: trunk},
			{Port: 3, Flags: viper.FlagVNT, PortToken: out},
			{Port: viper.PortLocal},
		},
		payload: make([]byte, 1024),
		hops:    []viper.Segment{{Port: 1, PortToken: trunk}, {Port: 2, PortToken: out}},
	}
	return []hostShape{fwd, tun}
}

// delivered encodes the shape's packet as its last hop hands it to the
// receiving host: the local segment left, and a trailer of the origin
// and one return segment per hop.
func (s hostShape) delivered(b *testing.B) []byte {
	p := viper.NewPacket([]viper.Segment{{Port: viper.PortLocal}}, s.payload)
	p.Trailer = append([]viper.Segment{{Port: viper.PortLocal}}, s.hops...)
	pkt, err := p.Encode()
	if err != nil {
		b.Fatal(err)
	}
	return pkt
}

// BenchmarkHostSend measures Host.Send from the caller's side: seal the
// route header and encode the tail into a pooled buffer, push the
// frame. A host linked straight to a counting sink drains the frames on
// its own goroutine. The parallel_two_routes case sends from
// GOMAXPROCS goroutines on one host, each alternating the two shapes'
// routes, as a gateway host interleaves requests and acks.
func BenchmarkHostSend(b *testing.B) {
	// sendRig returns a host linked to a sink, and a wait for the sink
	// to have drained n frames.
	sendRig := func(b *testing.B) (*Host, func(n int)) {
		n := NewNetwork()
		b.Cleanup(n.Stop)
		src := n.NewHost("src")
		dst := n.NewHost("dst")
		n.Connect(src, 1, dst, 1)
		var got atomic.Int64
		dst.SetRawHandler(func([]byte) { got.Add(1) })
		return src, func(n int) {
			for got.Load() < int64(n) {
				runtime.Gosched()
			}
		}
	}
	shapes := hostShapes()
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			src, drained := sendRig(b)
			b.ReportAllocs()
			b.SetBytes(int64(len(s.payload)))
			for i := 0; i < b.N; i++ {
				if err := src.Send(s.route, s.payload); err != nil {
					b.Fatal(err)
				}
			}
			drained(b.N)
		})
	}
	b.Run("parallel_two_routes", func(b *testing.B) {
		src, drained := sendRig(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				s := &shapes[i%2]
				if err := src.Send(s.route, s.payload); err != nil {
					b.Error(err)
					return
				}
			}
		})
		if !b.Failed() {
			drained(b.N)
		}
	})
}

// BenchmarkHostReceive measures one delivery: a pooled copy of the
// packet through the host's receive step — decode, return route,
// handler call, frame recycle — on the host's own state, with no
// goroutine hand-off.
func BenchmarkHostReceive(b *testing.B) {
	for _, s := range hostShapes() {
		b.Run(s.name, func(b *testing.B) {
			n := NewNetwork()
			defer n.Stop()
			h := n.NewHost("dst")
			var got Delivery
			h.Handle(viper.PortLocal, func(d Delivery) { got = d })
			pkt := s.delivered(b)
			receiveCopy(h, pkt)
			if n := got.ReturnRoute.Len(); n != len(s.hops)+2 {
				b.Fatalf("return route has %d segments, want %d", n, len(s.hops)+2)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(s.payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				receiveCopy(h, pkt)
			}
		})
	}
}
