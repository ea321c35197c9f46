package network

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// linearGreedy is the reference greedy next hop: a strict-< pass over
// the sender's NeighborsPos list, so ties go to the neighbor the scan
// enumerates first. It borrows the network's neighbor scratch, so it
// allocates nothing (BenchmarkGreedyNext times it).
func linearGreedy(net *Network, id NodeID, target geom.Point) NodeID {
	n := net.Node(id)
	if n == nil || !n.Up() {
		return NoNode
	}
	net.nbrIDs, net.nbrPos = net.NeighborsPos(id, net.nbrIDs[:0], net.nbrPos[:0])
	best, bestD2 := NoNode, n.TruePos().Dist2(target)
	for i, nb := range net.nbrIDs {
		if d2 := net.nbrPos[i].Dist2(target); d2 < bestD2 {
			best, bestD2 = nb, d2
		}
	}
	return best
}

// greedyWorld is a random world for the GreedyNext oracle. It mixes
// static and waypoint nodes, nodes far outside the arena (their cells
// clamp to the grid border), stacks of static nodes exactly on the
// query targets (forced ties at distance zero), and "saturated" movers:
// a mover that approaches a target at exactly its drift bound, so at
// its refresh deadline its anchor lies a full slack behind its true
// position, paired with a static twin at that true position. The twin
// ties with the mover, and the mover precedes it in scan order.
type greedyWorld struct {
	sim     *des.Simulator
	net     *Network
	rng     *xrand.Rand
	targets []geom.Point
	times   []des.Time // query instants, including every saturated deadline
}

func newGreedyWorld(seed uint64) *greedyWorld {
	rng := xrand.New(seed)
	sim := des.New()
	arena := geom.RectWH(0, 0, 1000, 1000)
	net := New(sim, arena, xrand.New(seed^0x9e3779b97f4a7c15))
	g := &greedyWorld{sim: sim, net: net, rng: rng}
	radioOf := func() radio.Model {
		if rng.Bool(0.3) {
			return radio.DefaultCH
		}
		return radio.DefaultMN
	}
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		g.targets = append(g.targets, geom.Pt(rng.Range(-100, 1100), rng.Range(-100, 1100)))
	}
	add := func(m mobility.Model) *Node { return net.AddNode(m, radioOf(), nil, false) }
	for i, n := 0, 20+rng.Intn(40); i < n; i++ {
		add(&mobility.Static{P: geom.Pt(rng.Range(-300, 1300), rng.Range(-300, 1300))})
	}
	for i, n := 0, 10+rng.Intn(30); i < n; i++ {
		add(mobility.NewWaypoint(geom.RectWH(-400, -400, 1800, 1800), 1, 25, 2, rng.Split()))
	}
	for i := 0; i < 4; i++ { // beyond the padded grid: clamped cells
		add(&mobility.Static{P: geom.Pt(rng.Range(-3000, -800), rng.Range(-3000, 4000))})
	}
	for _, tg := range g.targets {
		for k := rng.Intn(3); k >= 0; k-- {
			add(&mobility.Static{P: tg})
		}
	}
	for _, tg := range g.targets {
		// Saturated mover: anchor at tg + u*(d+slack) down-left of tg,
		// moving toward tg at its drift bound.
		theta := rng.Range(0.05, math.Pi/2-0.05)
		u := geom.Vec(-math.Cos(theta), -math.Sin(theta))
		d := rng.Range(0, 150)
		speed := rng.Range(2, 20)
		p0 := geom.Pt(tg.X+u.DX*(d+net.slack), tg.Y+u.DY*(d+net.slack))
		m := newLinearMover(p0, geom.Vec(-u.DX*speed, -u.DY*speed))
		mn := add(m)
		at := net.sp[mn.ID].safeUntil
		add(&mobility.Static{P: m.TrueFix(float64(at)).Pos})
		g.times = append(g.times, at)
		g.targets = append(g.targets, m.TrueFix(float64(at)).Pos)
	}
	for i := 0; i < 4; i++ {
		g.times = append(g.times, des.Time(rng.Range(0, 20)))
	}
	return g
}

// checkGreedyWorld runs the oracle on one random world: at every query
// instant, for every sender, target, and hint class, GreedyNext must
// equal linearGreedy. It returns how many queries it compared.
func checkGreedyWorld(t testing.TB, seed uint64) int {
	g := newGreedyWorld(seed)
	net, rng := g.net, g.rng
	queries := 0
	for _, at := range g.times {
		at := at
		g.sim.Schedule(at, func() {
			// Churn: fail a few nodes, recover a few.
			for k := 0; k < 3; k++ {
				n := net.nodes[rng.Intn(net.Len())]
				if n.Up() {
					n.Fail()
				} else {
					n.Recover()
				}
			}
			var down NodeID = NoNode
			for _, n := range net.nodes {
				if !n.Up() {
					down = n.ID
				}
			}
			targets := append([]geom.Point{geom.Pt(rng.Range(-500, 1500), rng.Range(-500, 1500))}, g.targets...)
			for _, n := range net.nodes {
				nbrs := net.Neighbors(n.ID)
				inRange := make(map[NodeID]bool, len(nbrs))
				for _, v := range nbrs {
					inRange[v] = true
				}
				for _, tg := range targets {
					want := linearGreedy(net, n.ID, tg)
					selfD2 := n.TruePos().Dist2(tg)
					hints := []NodeID{NoNode, n.ID, down, want, NodeID(rng.Intn(net.Len()))}
					var far, notCloser NodeID = NoNode, NoNode
					for _, v := range net.nodes {
						switch {
						case v.ID != n.ID && v.Up() && !inRange[v.ID]:
							far = v.ID
						case inRange[v.ID] && v.TruePos().Dist2(tg) >= selfD2:
							notCloser = v.ID
						}
						if v.TruePos() == tg {
							hints = append(hints, v.ID)
						}
					}
					hints = append(hints, far, notCloser)
					for _, h := range hints {
						queries++
						if got := net.GreedyNext(n.ID, tg, h); got != want {
							t.Fatalf("seed %d t=%v sender %d target %v hint %d: GreedyNext=%d, linear pass=%d",
								seed, at, n.ID, tg, h, got, want)
						}
					}
				}
			}
		})
	}
	g.sim.Run()
	return queries
}

func TestGreedyNextMatchesLinearPass(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	queries := 0
	for s := 0; s < seeds; s++ {
		queries += checkGreedyWorld(t, uint64(s)+1)
	}
	t.Logf("%d queries compared", queries)
}

// FuzzGreedyNextMatchesLinearPass runs the GreedyNext oracle on the
// random world a fuzzed seed generates.
func FuzzGreedyNextMatchesLinearPass(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkGreedyWorld(t, seed)
	})
}

// TestGreedyNextEdgeCases pins the query's contract on hand-built
// worlds: down and unknown senders, the local maximum, a hint that is
// not a candidate, and a tie the hint must lose to an earlier node.
func TestGreedyNextEdgeCases(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 100, 100)
	addStatic(net, 200, 100) // closer than a, but not the closest
	c := addStatic(net, 300, 100)
	far := addStatic(net, 900, 900)
	target := geom.Pt(300, 100)
	if got := net.GreedyNext(a.ID, target, NoNode); got != c.ID {
		t.Fatalf("greedy from a = %d want c=%d", got, c.ID)
	}
	if got := net.GreedyNext(c.ID, target, NoNode); got != NoNode {
		t.Fatalf("node at the target is a local maximum, got %d", got)
	}
	if got := net.GreedyNext(a.ID, target, far.ID); got != c.ID {
		t.Fatalf("out-of-range hint won: %d", got)
	}
	if got := net.GreedyNext(NodeID(99), target, NoNode); got != NoNode {
		t.Fatalf("unknown sender returned %d", got)
	}
	// A twin of c with a higher ID ties at distance zero; as the hint
	// it must still lose to c, which the scan reaches first.
	twin := addStatic(net, 300, 100)
	if got := net.GreedyNext(a.ID, target, twin.ID); got != c.ID {
		t.Fatalf("tie went to the hint %d, want scan-first c=%d", got, c.ID)
	}
	c.Fail()
	if got := net.GreedyNext(a.ID, target, c.ID); got != twin.ID {
		t.Fatalf("down hint: got %d want twin %d", got, twin.ID)
	}
	a.Fail()
	if got := net.GreedyNext(a.ID, target, NoNode); got != NoNode {
		t.Fatalf("down sender returned %d", got)
	}
}

func TestGreedyNextAllocsZero(t *testing.T) {
	g := newGreedyWorld(3)
	net := g.net
	g.sim.RunUntil(5)
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range net.nodes {
			for _, tg := range g.targets {
				net.GreedyNext(n.ID, tg, NoNode)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("GreedyNext allocates %.1f per round", allocs)
	}
}
