package mobility

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

var arena = geom.RectWH(0, 0, 1000, 1000)

func inArena(p geom.Point) bool {
	return p.X >= 0 && p.X <= 1000 && p.Y >= 0 && p.Y <= 1000
}

func TestStatic(t *testing.T) {
	s := &Static{P: geom.Pt(5, 5)}
	for _, now := range []float64{0, 10, 1e6} {
		f := s.TrueFix(now)
		if f.Pos != geom.Pt(5, 5) || f.Vel != (geom.Vector{}) {
			t.Fatalf("static moved: %+v", f)
		}
	}
}

func TestWaypointStaysInArena(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 5; trial++ {
		w := NewWaypoint(arena, 1, 20, 5, rng.Split())
		for now := 0.0; now < 500; now += 0.7 {
			f := w.TrueFix(now)
			if !inArena(f.Pos) {
				t.Fatalf("waypoint left arena at t=%v: %v", now, f.Pos)
			}
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	w := NewWaypoint(arena, 5, 10, 0, xrand.New(2))
	prev := w.TrueFix(0).Pos
	for now := 1.0; now < 200; now++ {
		cur := w.TrueFix(now).Pos
		if d := cur.Dist(prev); d > 10+1e-6 {
			t.Fatalf("moved %v m in 1 s, exceeds max speed 10", d)
		}
		prev = cur
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	w := NewWaypoint(arena, 5, 10, 0, xrand.New(3))
	start := w.TrueFix(0).Pos
	end := w.TrueFix(100).Pos
	if start.Dist(end) == 0 {
		t.Fatal("waypoint node never moved")
	}
}

func TestWaypointPauseHasZeroVelocity(t *testing.T) {
	// With an enormous pause the node is almost surely paused after
	// reaching its first destination.
	w := NewWaypoint(arena, 1000, 1000, 1e6, xrand.New(4))
	f := w.TrueFix(100) // any leg is at most ~1.4s at speed 1000
	if f.Vel != (geom.Vector{}) {
		t.Fatalf("paused node has velocity %v", f.Vel)
	}
}

func TestWaypointMonotonicAdvanceConsistency(t *testing.T) {
	// Sampling densely vs sparsely must land at the same position,
	// since advance is deterministic in its PRNG consumption order.
	a := NewWaypoint(arena, 1, 20, 2, xrand.New(5))
	b := NewWaypoint(arena, 1, 20, 2, xrand.New(5))
	for now := 0.0; now <= 300; now += 0.25 {
		a.advance(now)
	}
	b.advance(300)
	pa, pb := a.TrueFix(300).Pos, b.TrueFix(300).Pos
	if pa.Dist(pb) > 1e-6 {
		t.Fatalf("dense %v vs sparse %v sampling diverged", pa, pb)
	}
}

func TestWalkStaysInArenaAndMoves(t *testing.T) {
	w := NewWalk(arena, 10, 3, xrand.New(6))
	start := w.TrueFix(0).Pos
	moved := false
	for now := 0.0; now < 400; now += 0.9 {
		f := w.TrueFix(now)
		if !inArena(f.Pos) {
			t.Fatalf("walk left arena at t=%v: %v", now, f.Pos)
		}
		if f.Pos.Dist(start) > 1 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("walk never moved")
	}
}

func TestWalkSpeedConstant(t *testing.T) {
	w := NewWalk(arena, 7, 5, xrand.New(7))
	for now := 0.0; now < 100; now += 1.3 {
		f := w.TrueFix(now)
		if v := f.Vel.Len(); v < 6.99 || v > 7.01 {
			t.Fatalf("walk speed %v want 7", v)
		}
	}
}

func TestGaussMarkovStaysInArena(t *testing.T) {
	g := NewGaussMarkov(arena, 10, 0.8, 1, xrand.New(8))
	for now := 0.0; now < 500; now += 0.5 {
		f := g.TrueFix(now)
		if !inArena(f.Pos) {
			t.Fatalf("gauss-markov left arena at t=%v: %v", now, f.Pos)
		}
		if f.Vel.Len() < 0 {
			t.Fatal("negative speed")
		}
	}
}

func TestGaussMarkovTemporalCorrelation(t *testing.T) {
	// With alpha near 1 the heading should change slowly: consecutive
	// one-second velocity samples should mostly point the same way.
	g := NewGaussMarkov(arena, 10, 0.95, 1, xrand.New(9))
	agree := 0
	total := 0
	prev := g.TrueFix(0).Vel
	for now := 1.0; now < 200; now++ {
		cur := g.TrueFix(now).Vel
		if prev.Len() > 0 && cur.Len() > 0 {
			total++
			if prev.Unit().Dot(cur.Unit()) > 0 {
				agree++
			}
		}
		prev = cur
	}
	if frac := float64(agree) / float64(total); frac < 0.8 {
		t.Fatalf("only %.0f%% of consecutive headings agree; expected high correlation", frac*100)
	}
}

func TestGroupMembersStayTogether(t *testing.T) {
	rng := xrand.New(10)
	g := NewGroup(arena, 5, 10, 0, rng.Split())
	members := []Model{
		g.Member(geom.Vec(10, 0), 5, rng.Split()),
		g.Member(geom.Vec(-10, 0), 5, rng.Split()),
		g.Member(geom.Vec(0, 15), 5, rng.Split()),
	}
	for now := 0.0; now < 300; now += 2.5 {
		var pts []geom.Point
		for _, m := range members {
			pts = append(pts, m.TrueFix(now).Pos)
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				if d := pts[i].Dist(pts[j]); d > 60 {
					t.Fatalf("group members %d and %d drifted %v m apart at t=%v", i, j, d, now)
				}
			}
		}
	}
}

func TestGroupFollowsCenter(t *testing.T) {
	rng := xrand.New(11)
	g := NewGroup(arena, 5, 10, 0, rng.Split())
	m := g.Member(geom.Vec(0, 0), 0, rng.Split())
	// Zero offset, zero jitter member must coincide with the center.
	for now := 0.0; now < 100; now += 3 {
		c := g.center.TrueFix(now).Pos
		p := m.TrueFix(now).Pos
		if c.Dist(p) > 1e-9 {
			t.Fatalf("zero-offset member at %v but center at %v", p, c)
		}
	}
}

func TestModelsAreDeterministic(t *testing.T) {
	build := func() []Model {
		rng := xrand.New(99)
		return []Model{
			NewWaypoint(arena, 1, 15, 3, rng.Split()),
			NewWalk(arena, 8, 4, rng.Split()),
			NewGaussMarkov(arena, 9, 0.7, 1, rng.Split()),
		}
	}
	a, b := build(), build()
	for now := 0.0; now < 120; now += 1.7 {
		for i := range a {
			pa, pb := a[i].TrueFix(now).Pos, b[i].TrueFix(now).Pos
			if pa != pb {
				t.Fatalf("model %d nondeterministic at t=%v: %v vs %v", i, now, pa, pb)
			}
		}
	}
}

func TestManhattanStaysOnStreets(t *testing.T) {
	m := NewManhattan(arena, 250, 15, xrand.New(21))
	for now := 0.0; now < 300; now += 0.8 {
		f := m.TrueFix(now)
		if !inArena(f.Pos) {
			t.Fatalf("manhattan left arena at t=%v: %v", now, f.Pos)
		}
		// At least one coordinate must lie on a street line (multiple
		// of the block size).
		onX := math.Mod(f.Pos.X, 250) < 1e-6 || 250-math.Mod(f.Pos.X, 250) < 1e-6
		onY := math.Mod(f.Pos.Y, 250) < 1e-6 || 250-math.Mod(f.Pos.Y, 250) < 1e-6
		if !onX && !onY {
			t.Fatalf("off-street position %v at t=%v", f.Pos, now)
		}
	}
}

func TestManhattanMovesAxisAligned(t *testing.T) {
	m := NewManhattan(arena, 250, 10, xrand.New(22))
	for now := 0.0; now < 100; now += 1.1 {
		v := m.TrueFix(now).Vel
		if v.DX != 0 && v.DY != 0 {
			t.Fatalf("diagonal velocity %v", v)
		}
		if l := v.Len(); math.Abs(l-10) > 1e-9 {
			t.Fatalf("speed %v want 10", l)
		}
	}
}

func TestManhattanTurnsEventually(t *testing.T) {
	m := NewManhattan(arena, 250, 10, xrand.New(23))
	dirs := map[geom.Vector]bool{}
	for now := 0.0; now < 600; now += 2 {
		v := m.TrueFix(now).Vel
		dirs[v.Unit()] = true
	}
	if len(dirs) < 2 {
		t.Fatalf("never turned: %v", dirs)
	}
}

func TestManhattanDeterministic(t *testing.T) {
	a := NewManhattan(arena, 250, 12, xrand.New(24))
	b := NewManhattan(arena, 250, 12, xrand.New(24))
	for now := 0.0; now < 120; now += 1.3 {
		if a.TrueFix(now).Pos != b.TrueFix(now).Pos {
			t.Fatalf("nondeterministic at t=%v", now)
		}
	}
}
