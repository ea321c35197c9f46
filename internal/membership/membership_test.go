package membership

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/logicalid"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/vcgrid"
	"repro/internal/xrand"
)

// testbed: 8x8 VC grid, four 4-D hypercubes, a CH-capable node at every
// VCC, plus ordinary member nodes added by addMember.
type testbed struct {
	sim    *des.Simulator
	net    *network.Network
	cm     *cluster.Manager
	scheme *logicalid.Scheme
	bb     *core.Backbone
	ms     *Service
	grid   *vcgrid.Grid
}

func newTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	tb := &testbed{}
	tb.sim = des.New()
	arena := geom.RectWH(0, 0, 2000, 2000)
	tb.net = network.New(tb.sim, arena, xrand.New(11))
	tb.grid = vcgrid.New(arena, 250)
	for i := 0; i < tb.grid.Count(); i++ {
		tb.net.AddNode(&mobility.Static{P: tb.grid.Center(tb.grid.FromIndex(i))}, radio.DefaultCH, nil, true)
	}
	mux := network.Bind(tb.net)
	tb.cm = cluster.NewManager(tb.net, tb.grid, cluster.DefaultConfig())
	var err error
	tb.scheme, err = logicalid.New(tb.grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := core.DefaultConfig()
	bcfg.RouteTTL = 1000
	tb.bb = core.New(tb.net, mux, tb.cm, tb.scheme, bcfg)
	tb.ms = New(tb.bb, cfg)
	tb.cm.Elect()
	// Re-bind late so member nodes added after Bind still get handlers:
	// tests call rebind after adding members.
	return tb
}

// addMember drops an ordinary (non-CH-capable) node into the given VC,
// offset slightly from the VCC.
func (tb *testbed) addMember(vcIdx int, dx, dy float64) *network.Node {
	c := tb.grid.Center(tb.grid.FromIndex(vcIdx))
	n := tb.net.AddNode(&mobility.Static{P: geom.Pt(c.X+dx, c.Y+dy)}, radio.DefaultMN, nil, false)
	return n
}

func (tb *testbed) rebind() {
	mux := network.Bind(tb.net)
	// Re-attach protocol layers to the fresh mux.
	bcfg := core.DefaultConfig()
	bcfg.RouteTTL = 1000
	tb.bb = core.New(tb.net, mux, tb.cm, tb.scheme, bcfg)
	cfg := tb.ms.cfg
	tb.ms = New(tb.bb, cfg)
	tb.cm.Elect()
}

// drain runs the simulator until pending deliveries settle.
func (tb *testbed) drain() {
	tb.sim.RunUntil(tb.sim.Now() + 2)
}

func slotIdx(tb *testbed, cx, cy int) logicalid.CHID {
	return logicalid.CHID(tb.grid.Index(vcgrid.VC{CX: cx, CY: cy}))
}

func TestJoinLeaveGroupsOf(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.ms.Join(3, 7)
	tb.ms.Join(3, 9)
	tb.ms.Join(3, 7) // idempotent
	gs := tb.ms.GroupsOf(3)
	if len(gs) != 2 || gs[0] != 7 || gs[1] != 9 {
		t.Fatalf("groups %v", gs)
	}
	tb.ms.Leave(3, 7)
	if gs := tb.ms.GroupsOf(3); len(gs) != 1 || gs[0] != 9 {
		t.Fatalf("after leave %v", gs)
	}
}

func TestLocalRoundBuildsMNTSummary(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m1 := tb.addMember(0, 30, 0)
	m2 := tb.addMember(0, -30, 10)
	tb.rebind()
	tb.ms.Join(m1.ID, 5)
	tb.ms.Join(m2.ID, 5)
	tb.ms.Join(m2.ID, 6)
	tb.ms.LocalRound()
	tb.drain()
	sum := tb.ms.MNTSummary(slotIdx(tb, 0, 0))
	if sum[5] != 2 || sum[6] != 1 {
		t.Fatalf("MNT summary %v want {5:2, 6:1}", sum)
	}
	members := tb.ms.LocalMembers(nil, slotIdx(tb, 0, 0), 5)
	if len(members) != 2 {
		t.Fatalf("local members %v", members)
	}
}

func TestCHSelfMembershipNeedsNoRadio(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	ch := tb.cm.CHOf(vcgrid.VC{CX: 2, CY: 2})
	tb.ms.Join(ch, 4)
	tb.net.ResetTraffic()
	tb.ms.LocalRound()
	tb.drain()
	if got := tb.net.Stats().KindTx[LocalKind]; got != 0 {
		t.Fatalf("CH self-report transmitted %d packets", got)
	}
	if sum := tb.ms.MNTSummary(slotIdx(tb, 2, 2)); sum[4] != 1 {
		t.Fatalf("self membership missing: %v", sum)
	}
}

func TestLeavePropagatesOnNextRound(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	if tb.ms.MNTSummary(slotIdx(tb, 0, 0))[5] != 1 {
		t.Fatal("join not recorded")
	}
	tb.ms.Leave(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	if got := tb.ms.MNTSummary(slotIdx(tb, 0, 0))[5]; got != 0 {
		t.Fatalf("leave not propagated: count %d", got)
	}
}

func TestMNTFloodStaysInsideHypercube(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0) // VC (0,0), hypercube 0
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	// Every CH of hypercube 0 sees the group in its HT summary.
	for _, vc := range tb.scheme.BlockVCs(0) {
		slot := logicalid.CHID(tb.grid.Index(vc))
		if tb.ms.HTSummary(slot)[5] != 1 {
			t.Fatalf("slot %d (cube 0) missing group in HT summary", slot)
		}
	}
	// A CH of hypercube 3 must not have absorbed the MNT flood.
	farSlot := slotIdx(tb, 7, 7)
	if got := tb.ms.HTSummary(farSlot)[5]; got != 0 {
		t.Fatalf("MNT flood leaked to another hypercube: count %d", got)
	}
}

func TestExactlyOneDesignatedBroadcasterPerCube(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	m2 := tb.addMember(9, 20, 0) // VC (1,1), same cube
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.Join(m2.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	designated := 0
	for _, vc := range tb.scheme.BlockVCs(0) {
		if tb.ms.Designated(logicalid.CHID(tb.grid.Index(vc))) {
			designated++
		}
	}
	if designated != 1 {
		t.Fatalf("%d designated broadcasters in cube 0 want exactly 1", designated)
	}
}

func TestHTBroadcastReachesWholeNetwork(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0) // group member in hypercube 0
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	// Every CH in the network should now attribute group 5 to cube 0.
	for i := 0; i < tb.grid.Count(); i++ {
		hids := tb.ms.MTSummary(logicalid.CHID(i), 5)
		if !hids[0] {
			t.Fatalf("slot %d MT view missing group 5 in cube 0: %v", i, hids)
		}
		if len(hids) != 1 {
			t.Fatalf("slot %d sees group 5 in %d cubes want 1", i, len(hids))
		}
	}
	if tb.ms.HTBroadcasts == 0 {
		t.Fatal("no HT broadcast counted")
	}
}

func TestCubeMembers(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	mA := tb.addMember(0, 30, 0) // VC (0,0) cube 0
	mB := tb.addMember(9, 20, 0) // VC (1,1) cube 0
	mC := tb.addMember(4, 20, 0) // VC (4,0) cube 1
	tb.rebind()
	for _, m := range []*network.Node{mA, mB, mC} {
		tb.ms.Join(m.ID, 5)
	}
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	got := tb.ms.CubeMembers(slotIdx(tb, 0, 0), 5)
	if len(got) != 2 {
		t.Fatalf("cube members %v want 2 slots", got)
	}
	for _, s := range got {
		if tb.scheme.CHIDToPlace(s).HID != 0 {
			t.Fatalf("cube member %d outside cube 0", s)
		}
	}
}

func TestMTViewClearsStaleHypercubes(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	if !tb.ms.MTSummary(slotIdx(tb, 7, 7), 5)[0] {
		t.Fatal("setup: group should be visible network-wide")
	}
	// The member leaves; after fresh Local/MNT/HT rounds the MT views
	// must drop the group.
	tb.ms.Leave(m.ID, 5)
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	tb.ms.HTRound()
	tb.sim.RunUntil(tb.sim.Now() + 10)
	if hids := tb.ms.MTSummary(slotIdx(tb, 7, 7), 5); len(hids) != 0 {
		t.Fatalf("stale MT view: %v", hids)
	}
}

func TestMembershipTrafficIsControl(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.net.ResetTraffic()
	tb.ms.LocalRound()
	tb.drain()
	tb.ms.MNTRound()
	tb.sim.RunUntil(tb.sim.Now() + 5)
	st := tb.net.Stats()
	if st.DataBytes != 0 {
		t.Fatalf("membership counted as data: %d", st.DataBytes)
	}
	if st.KindTx[core.BeaconKind] != 0 {
		t.Fatal("unexpected beacon traffic in this test")
	}
	if st.ControlBytes == 0 {
		t.Fatal("no control traffic accounted")
	}
}

func TestStartStopTickers(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	m := tb.addMember(0, 30, 0)
	tb.rebind()
	tb.ms.Join(m.ID, 5)
	tb.ms.Start()
	tb.sim.SetHorizon(20)
	tb.sim.Run()
	tb.ms.Stop()
	// The periodic machinery alone should have propagated membership
	// network-wide: HT period 8 fires at t=8 and t=16.
	if got := tb.ms.HTGroupsKnown(slotIdx(tb, 7, 7), 5); got != 1 {
		t.Fatalf("MT coverage %d want 1", got)
	}
}

func TestEmptyMembershipSendsNothing(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.net.ResetTraffic()
	tb.ms.LocalRound()
	tb.drain()
	if got := tb.net.Stats().KindTx[LocalKind]; got != 0 {
		t.Fatalf("nodes with no groups sent %d local reports", got)
	}
}
