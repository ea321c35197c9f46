package network

import (
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// perReceiverBroadcast is the reference Broadcast: after the same loss
// draws, it schedules one delivery event per surviving receiver at send
// time, in neighbor order.
func perReceiverBroadcast(w *Network, from NodeID, pkt *Packet) int {
	src := w.Node(from)
	if src == nil || !w.hot[from].up {
		return 0
	}
	now := w.sim.Now()
	ids, pos := w.NeighborsPos(from, nil, nil)
	w.account(src, pkt)
	sp := w.truePos(src)
	for i, to := range ids {
		if src.Radio.Lost(&src.rng) {
			w.lost++
			continue
		}
		if pkt.pooled {
			pkt.refs++
		}
		at := now + des.Duration(src.pre.HopDelay2(pkt.Size, sp.Dist2(pos[i])))
		w.sim.ScheduleCallU(at, w.deliverFn, pkt, packHop(from, to))
	}
	return len(ids)
}

// deliveryRec is one observed delivery (or same-instant follow-up
// event, to == NoNode) of the broadcast-order scenario.
type deliveryRec struct {
	at       des.Time
	from, to NodeID
	uid      uint64
}

// broadcastScenario plays a fixed broadcast storm with the given
// broadcast implementation and returns every delivery in execution
// order plus the executed-event count. The storm covers stacks of
// receivers at identical positions (equal delivery times, more than a
// dozen per transmission), lossy radios, a receiver failing while a
// transmission to it is in flight, handlers that broadcast again (so a
// just-recycled record is reused), same-instant follow-up events that
// interleave with pending deliveries, and a single-receiver broadcast.
func broadcastScenario(t *testing.T, bcast func(*Network, NodeID, *Packet) int) ([]deliveryRec, uint64) {
	sim := des.New()
	net := New(sim, geom.RectWH(0, 0, 1000, 1000), xrand.New(11))
	lossy := radio.Model{Range: 250, Bandwidth: 2e6, ProcDelay: 1e-3, LossProb: 0.3}
	add := func(x, y float64, rm radio.Model) *Node {
		return net.AddNode(&mobility.Static{P: geom.Pt(x, y)}, rm, nil, false)
	}
	src := add(500, 500, radio.DefaultMN)
	lsrc := add(520, 480, lossy)
	// Four stacks of six co-located receivers, IDs interleaved.
	stacks := []geom.Point{geom.Pt(560, 500), geom.Pt(500, 620), geom.Pt(430, 450), geom.Pt(600, 560)}
	for k := 0; k < 6; k++ {
		for _, p := range stacks {
			add(p.X, p.Y, radio.DefaultMN)
		}
	}
	rng := xrand.New(5)
	for i := 0; i < 12; i++ {
		add(rng.Range(300, 700), rng.Range(300, 700), lossy)
	}
	lone := add(50, 950, radio.DefaultMN)
	mate := add(80, 950, radio.DefaultMN)
	victim := NodeID(5) // first member of the (600, 560) stack, the farthest
	var log []deliveryRec
	uid := uint64(0)
	send := func(from NodeID, pooled bool) {
		var p *Packet
		if pooled {
			p = net.AcquirePacket()
		} else {
			p = &Packet{}
		}
		uid++
		p.Kind, p.Src, p.Size, p.UID = "storm", from, 64+int(uid%5)*100, uid
		bcast(net, from, p)
		net.ReleasePacket(p)
	}
	for _, n := range net.Nodes() {
		n.SetHandler(func(n *Node, from NodeID, pkt *Packet) {
			now := sim.Now()
			log = append(log, deliveryRec{now, from, n.ID, pkt.UID})
			if pkt.UID == 1 && n.ID == 2 {
				// The first stack member fails a farther receiver of the
				// same transmission; it recovers a little later.
				net.Node(victim).Fail()
				sim.Schedule(now+0.01, func() { net.Node(victim).Recover() })
			}
			uid := pkt.UID // the packet may recycle before the follow-up runs
			sim.Schedule(now, func() { log = append(log, deliveryRec{now, n.ID, NoNode, uid}) })
			if pkt.Hops == 1 && pkt.UID < 40 && n.ID%3 == 0 {
				send(n.ID, n.ID%2 == 0)
			}
		})
	}
	sim.Schedule(0, func() {
		send(src.ID, true)
		send(lsrc.ID, false)
		send(lone.ID, true) // exactly one receiver
	})
	sim.Schedule(0.0005, func() { send(lsrc.ID, true) })
	sim.Run()
	if net.PooledInFlight() != 0 {
		t.Fatalf("pooled packets leaked: %d", net.PooledInFlight())
	}
	for _, r := range log {
		if r.from == lone.ID && r.to != mate.ID && r.to != NoNode {
			t.Fatalf("lone broadcast reached %d", r.to)
		}
	}
	return log, sim.Executed()
}

func TestBroadcastOrderMatchesPerReceiver(t *testing.T) {
	got, gotEv := broadcastScenario(t, (*Network).Broadcast)
	want, wantEv := broadcastScenario(t, perReceiverBroadcast)
	if len(want) < 200 {
		t.Fatalf("scenario too small to mean much: %d records", len(want))
	}
	if gotEv != wantEv {
		t.Errorf("executed events %d, per-receiver scheduling %d", gotEv, wantEv)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, per-receiver scheduling %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, per-receiver scheduling %d", len(got), len(want))
	}
}

func TestBroadcastAllocsZero(t *testing.T) {
	sim, net := testNet()
	src := addStatic(net, 500, 500)
	for i := 0; i < 16; i++ {
		n := addStatic(net, 540+float64(i)*7, 500)
		n.SetHandler(func(*Node, NodeID, *Packet) {})
	}
	bcast := func() {
		pkt := net.AcquirePacket()
		pkt.Kind, pkt.Src, pkt.Size = "x", src.ID, 64
		net.Broadcast(src.ID, pkt)
		net.ReleasePacket(pkt)
		for sim.Step() {
		}
	}
	bcast() // warm the pools
	if allocs := testing.AllocsPerRun(100, bcast); allocs != 0 {
		t.Fatalf("Broadcast allocates %.1f per transmission", allocs)
	}
}
