package network

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// BenchmarkBroadcastFanout measures the full broadcast hot path —
// neighbor query, loss draws, the transmission record's scheduling and
// per-receiver re-scheduling, and delivery — at the neighborhood
// degrees a dense MANET produces. Receivers sit on a ring well inside
// radio range so the degree is exact; the pooled-packet path is used so
// the steady state is allocation-free.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, degree := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			sim, net := testNet()
			src := addStatic(net, 500, 500)
			for i := 0; i < degree; i++ {
				// Distinct distances inside range (all within ~160 m)
				// so per-receiver delivery times differ like real
				// neighborhoods.
				n := addStatic(net, 500+40+float64(i)*120/float64(degree), 500)
				n.SetHandler(func(*Node, NodeID, *Packet) {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt := net.AcquirePacket()
				pkt.Kind = "bench"
				pkt.Src = src.ID
				pkt.Size = 64
				if got := net.Broadcast(src.ID, pkt); got != degree {
					b.Fatalf("broadcast reached %d want %d", got, degree)
				}
				net.ReleasePacket(pkt)
				for sim.Step() {
				}
			}
			b.StopTimer()
			if net.PooledInFlight() != 0 {
				b.Fatalf("pooled packets leaked: %d", net.PooledInFlight())
			}
		})
	}
}

// greedySink keeps BenchmarkGreedyNext's results live.
var greedySink NodeID

// BenchmarkGreedyNext compares the pruned greedy next-hop query with
// the linear pass it replaced (NeighborsPos plus a strict-< loop) on a
// 5k-node, 10 km world shaped like the ctrl-5k benchmark: 1600 static
// anchors at 250 m grid centres and 3400 waypoint movers. Each query
// steers a random mover toward an anchor up to two grid steps away in
// each axis, with the anchor as the hint (a geo-routed packet's final
// destination, in range on a route's last hop); the clock advances 1 ms
// every 64 queries so mobility is evaluated as in a run.
func BenchmarkGreedyNext(b *testing.B) {
	type query struct {
		from, hint NodeID
		target     geom.Point
	}
	setup := func() (*des.Simulator, *Network, []query) {
		sim := des.New()
		arena := geom.RectWH(0, 0, 10000, 10000)
		net := New(sim, arena, xrand.New(1))
		for i := 0; i < 40; i++ {
			for j := 0; j < 40; j++ {
				net.AddNode(&mobility.Static{P: geom.Pt(125+250*float64(i), 125+250*float64(j))}, radio.DefaultCH, nil, true)
			}
		}
		rng := xrand.New(2)
		for i := 0; i < 3400; i++ {
			net.AddNode(mobility.NewWaypoint(arena, 1, 20, 2, rng.Split()), radio.DefaultMN, nil, false)
		}
		qs := make([]query, 4096)
		for k := range qs {
			from := NodeID(1600 + rng.Intn(3400))
			p := net.Node(from).TruePos()
			i := min(max(int(p.X/250)+rng.Intn(5)-2, 0), 39)
			j := min(max(int(p.Y/250)+rng.Intn(5)-2, 0), 39)
			hint := NodeID(i*40 + j)
			qs[k] = query{from, hint, net.Node(hint).TruePos()}
		}
		return sim, net, qs
	}
	run := func(b *testing.B, next func(*Network, query) NodeID) {
		sim, net, qs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				sim.Schedule(sim.Now()+0.001, func() {})
				sim.Step()
			}
			greedySink = next(net, qs[i%len(qs)])
		}
	}
	b.Run("pruned", func(b *testing.B) {
		run(b, func(net *Network, q query) NodeID { return net.GreedyNext(q.from, q.target, q.hint) })
	})
	b.Run("linear", func(b *testing.B) {
		run(b, func(net *Network, q query) NodeID { return linearGreedy(net, q.from, q.target) })
	})
}
