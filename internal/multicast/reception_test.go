package multicast

import (
	"testing"

	"repro/internal/des"
	"repro/internal/network"
	"repro/internal/xrand"
)

// receptionBed is a testbed with one group-5 member beside VC 0's CH
// and a LocalKind packet as that CH's cluster broadcast delivers it.
func receptionBed(t *testing.T) (tb *testbed, member, ch network.NodeID, pkt *network.Packet) {
	t.Helper()
	tb = newTestbed(t, DefaultConfig())
	member = tb.addMember(0, 30, 0).ID
	tb.ms.Join(member, 5)
	ch = tb.cm.CHOf(tb.grid.FromIndex(0))
	const uid = 77
	hdr := &header{Group: 5, PayloadSize: 64, dedup: &dedupRec{uid: uid}}
	pkt = &network.Packet{Kind: LocalKind, Src: ch, Dst: network.NoNode, Group: 5, UID: uid, Payload: hdr}
	return tb, member, ch, pkt
}

// TestLocalReceptionAllocsZero pins the cluster-local reception path to
// zero allocations: at a non-member (almost every reception), at a
// member receiving the packet for the first time, and at a member
// hearing a duplicate from another CH.
func TestLocalReceptionAllocsZero(t *testing.T) {
	tb, member, ch, pkt := receptionBed(t)
	nonMember := tb.net.Node(ch + 1)
	m := tb.net.Node(member)
	observed := 0
	tb.mc.OnDeliver(func(network.NodeID, uint64, des.Time, int) { observed++ })

	if a := testing.AllocsPerRun(1000, func() { tb.mc.onLocal(nonMember, ch, pkt) }); a != 0 {
		t.Errorf("reception at a non-member allocates %.1f times", a)
	}
	if tb.mc.Delivered != 0 {
		t.Fatalf("non-member reception delivered %d copies", tb.mc.Delivered)
	}

	// First delivery of a fresh packet to a member. ForgetPacket empties
	// the record between runs, so every run is a first delivery into a
	// record that already has room.
	runs := 0
	if a := testing.AllocsPerRun(1000, func() {
		tb.mc.ForgetPacket(pkt.UID)
		tb.mc.onLocal(m, ch, pkt)
		runs++
	}); a != 0 {
		t.Errorf("first reception at a member allocates %.1f times", a)
	}
	if tb.mc.Delivered != uint64(runs) || observed != runs {
		t.Fatalf("%d first receptions delivered %d copies (%d observed)", runs, tb.mc.Delivered, observed)
	}

	if a := testing.AllocsPerRun(1000, func() { tb.mc.onLocal(m, ch, pkt) }); a != 0 {
		t.Errorf("duplicate reception at a member allocates %.1f times", a)
	}
	if tb.mc.Delivered != uint64(runs) {
		t.Fatalf("duplicates were delivered: %d copies after %d first receptions", tb.mc.Delivered, runs)
	}
	if !tb.mc.DeliveredTo(pkt.UID, member) || tb.mc.DeliveryCount(pkt.UID) != 1 {
		t.Fatal("delivery not recorded")
	}
}

// dedupModel is the per-UID map-of-maps dedup state the compact records
// replaced: one set per tag, created on first touch.
type dedupModel map[uint64]map[uint32]map[int]bool

func (m dedupModel) mark(uid uint64, tag uint32, id int) bool {
	if m[uid] == nil {
		m[uid] = make(map[uint32]map[int]bool)
	}
	if m[uid][tag] == nil {
		m[uid][tag] = make(map[int]bool)
	}
	if m[uid][tag][id] {
		return false
	}
	m[uid][tag][id] = true
	return true
}

// TestDedupMatchesMapModel drives random cube, slot and member marks
// and ForgetPacket calls over a few packets — including copies still in
// flight after their UID was forgotten — and checks every dedup
// decision, DeliveredTo and DeliveryCount against the map model.
func TestDedupMatchesMapModel(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	s := tb.mc
	const packets = 6
	recs := make([]*dedupRec, packets)
	for i := range recs {
		recs[i] = &dedupRec{uid: uint64(1000 + i)}
	}
	model := dedupModel{}
	tags := []uint32{tagCube, tagSlot, tagMember}
	rng := xrand.New(3)
	// IDs from a small range so duplicates are common, with a few large
	// node IDs to cover the whole 30-bit ID space.
	id := func() int {
		if rng.Intn(10) == 0 {
			return int(idMask) - rng.Intn(4)
		}
		return rng.Intn(40)
	}
	forgets := 0
	for step := 0; step < 50000; step++ {
		r := recs[rng.Intn(packets)]
		if rng.Intn(200) == 0 {
			s.ForgetPacket(r.uid)
			delete(model, r.uid)
			forgets++
		} else {
			tag, v := tags[rng.Intn(len(tags))], id()
			if got, want := s.mark(r, tag, v), model.mark(r.uid, tag, v); got != want {
				t.Fatalf("step %d: mark(uid %d, tag %x, id %d) = %v, model %v", step, r.uid, tag, v, got, want)
			}
		}
		for _, q := range recs {
			if got, want := s.DeliveryCount(q.uid), len(model[q.uid][tagMember]); got != want {
				t.Fatalf("step %d: DeliveryCount(%d) = %d, model %d", step, q.uid, got, want)
			}
			v := id()
			if got, want := s.DeliveredTo(q.uid, network.NodeID(v)), model[q.uid][tagMember][v]; got != want {
				t.Fatalf("step %d: DeliveredTo(%d, %d) = %v, model %v", step, q.uid, v, got, want)
			}
		}
	}
	if forgets < 100 {
		t.Fatalf("only %d ForgetPacket calls", forgets)
	}
	if s.DeliveryCount(999) != 0 || s.DeliveredTo(999, 1) {
		t.Fatal("unknown UID reports deliveries")
	}
}
