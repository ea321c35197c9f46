package membership

import (
	"slices"
	"testing"

	"repro/internal/logicalid"
	"repro/internal/network"
	"repro/internal/xrand"
)

// modelGroups bounds the groups the property test draws.
const modelGroups = 70

// memberModel is the map-of-maps member store the dense bitsets
// replaced, kept as the reference for the property test.
type memberModel struct {
	joined   map[network.NodeID]map[Group]bool
	reported map[network.NodeID]bool
	// report is each node's last Local-Membership report contents.
	report map[network.NodeID][]Group
	// retired counts member records dropped after a final report.
	retired int
}

func (m *memberModel) groupsOf(id network.NodeID) []Group {
	out := []Group{}
	for g := range m.joined[id] {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}

// localRound applies LocalRound's report/retire rules to the model:
// tracked nodes in ascending ID order, down nodes skipped, one final
// empty report after the last Leave, then retirement.
func (m *memberModel) localRound(up func(network.NodeID) bool) {
	ids := make([]network.NodeID, 0, len(m.joined))
	for id := range m.joined {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if !up(id) {
			continue
		}
		groups := m.groupsOf(id)
		if len(groups) == 0 && !m.reported[id] {
			delete(m.joined, id)
			m.retired++
			continue
		}
		m.reported[id] = len(groups) > 0
		m.report[id] = groups
	}
}

// TestMemberStoreMatchesMapModel drives random Join/Leave churn — the
// churn-400 pattern of members leaving and others joining, including
// nodes that retire after their final empty report and later rejoin,
// with nodes failing and recovering — through the dense member store,
// and checks Joined, GroupsOf, the tracked set and every
// Local-Membership report against the map model after each step. Every
// node is the CH of its own VC, so a report lands synchronously in its
// own slot's view, where LocalMembers exposes its contents.
func TestMemberStoreMatchesMapModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalTTL = 0
	tb := newTestbed(t, cfg)
	ms := tb.ms
	nodes := tb.net.Len()
	for i := 0; i < nodes; i++ {
		if ch := tb.cm.CHOf(tb.grid.FromIndex(i)); ch != network.NodeID(i) {
			t.Fatalf("VC %d is headed by %d, want node %d", i, ch, i)
		}
	}
	model := &memberModel{
		joined:   make(map[network.NodeID]map[Group]bool),
		reported: make(map[network.NodeID]bool),
		report:   make(map[network.NodeID][]Group),
	}
	up := func(id network.NodeID) bool { return tb.net.Node(id).Up() }
	rng := xrand.New(7)
	rounds := 0
	for step := 0; step < 20000; step++ {
		id := network.NodeID(rng.Intn(nodes))
		// Most churn touches a few groups, so nodes empty out and retire.
		g := Group(rng.Intn(2))
		if rng.Intn(8) == 0 {
			g = Group(rng.Intn(modelGroups))
		}
		switch r := rng.Intn(20); {
		case r < 7:
			ms.Join(id, g)
			if model.joined[id] == nil {
				model.joined[id] = make(map[Group]bool)
			}
			model.joined[id][g] = true
		case r < 17:
			ms.Leave(id, g)
			if model.joined[id] != nil {
				delete(model.joined[id], g)
			}
		case r < 18:
			if n := tb.net.Node(id); n.Up() {
				n.Fail()
			} else {
				n.Recover()
			}
		default:
			ms.LocalRound()
			model.localRound(up)
			rounds++
			checkReports(t, step, tb, model)
		}
		if got, want := ms.GroupsOf(id), model.groupsOf(id); !slices.Equal(got, want) {
			t.Fatalf("step %d: GroupsOf(%d) = %v, model %v", step, id, got, want)
		}
		for g := Group(0); g < modelGroups; g++ {
			if got, want := ms.Joined(id, g), model.joined[id][g]; got != want {
				t.Fatalf("step %d: Joined(%d, %d) = %v, model %v", step, id, g, got, want)
			}
		}
		if len(ms.active) != len(model.joined) {
			t.Fatalf("step %d: %d tracked nodes, model %d", step, len(ms.active), len(model.joined))
		}
		for _, a := range ms.active {
			if model.joined[a] == nil {
				t.Fatalf("step %d: node %d tracked, model retired it", step, a)
			}
		}
		if !slices.IsSorted(ms.active) {
			t.Fatalf("step %d: active list not sorted: %v", step, ms.active)
		}
	}
	if rounds < 100 || model.retired < 50 {
		t.Fatalf("only %d LocalRounds ran and %d records retired", rounds, model.retired)
	}
	if ms.Joined(network.NoNode, 0) || ms.Joined(0, -1) || ms.Joined(1<<20, 0) {
		t.Fatal("Joined true for an out-of-range node or group")
	}
}

// checkReports compares every slot's view with the model's last report
// of the node heading it.
func checkReports(t *testing.T, step int, tb *testbed, model *memberModel) {
	t.Helper()
	for i := 0; i < tb.net.Len(); i++ {
		id := network.NodeID(i)
		for g := Group(0); g < modelGroups; g++ {
			got := tb.ms.LocalMembers(nil, logicalid.CHID(i), g)
			want := []network.NodeID{}
			if slices.Contains(model.report[id], g) {
				want = append(want, id)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: slot %d view of group %d is %v, model report of node %d is %v",
					step, i, g, got, id, model.report[id])
			}
		}
	}
}

// TestJoinedAllocsZero pins the member test of every multicast
// reception to zero allocations, for members and non-members alike.
func TestJoinedAllocsZero(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.ms.Join(3, 2)
	var hit bool
	allocs := testing.AllocsPerRun(1000, func() {
		hit = tb.ms.Joined(3, 2) && !tb.ms.Joined(4, 2) && !tb.ms.Joined(3, 9)
	})
	if !hit {
		t.Fatal("Joined answered wrong")
	}
	if allocs != 0 {
		t.Fatalf("Joined allocates %.1f times per call", allocs)
	}
}
