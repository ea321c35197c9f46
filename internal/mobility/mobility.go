// Package mobility implements the node movement models under which the
// HVDB model and its baselines are evaluated: random waypoint (the
// standard MANET benchmark model), random walk, Gauss-Markov, reference
// point group mobility (the paper's battlefield motivation: units moving
// as groups), and static placement.
//
// A Model is advanced by the simulation in discrete steps but exposes
// continuous kinematics between updates, which is what the clustering
// tier's mobility prediction consumes ([23] predicts residence time in a
// virtual circle from position and velocity).
//
// # Piecewise-pure evaluation
//
// Every model is a sequence of linear pieces: between two intrinsic
// breakpoints (a waypoint arrival, an epoch redraw, a wall bounce, an
// intersection turn) the position is an affine function of time. TrueFix
// queries inside the current piece are pure — they mutate nothing and
// their float result depends only on the piece state and the query time,
// never on which other instants were queried before. All randomness and
// state mutation happens at piece crossings (advance), and crossing
// times are trajectory-intrinsic: the same pieces are produced no matter
// when or how often the model is queried. This query-path independence
// is what lets the network layer evaluate positions lazily — only when
// a neighbor scan or an index refresh needs them — without the query
// pattern ever changing a result.
package mobility

import (
	"math"

	"repro/internal/geom"
	"repro/internal/gps"
	"repro/internal/xrand"
)

// Model is the per-node movement state machine. Implementations are
// deterministic given their PRNG stream.
type Model interface {
	gps.Source
	// DriftBound returns constants (speed, jump) bounding how far the
	// node can move: for any t and dt >= 0, the displacement between
	// TrueFix(t).Pos and TrueFix(t+dt).Pos is at most speed*dt + jump.
	// jump covers instantaneous discontinuities (e.g. group-motion
	// jitter); it is 0 for continuous movers. The network layer's
	// incremental spatial index derives cell-refresh deadlines from this
	// bound, so it must hold unconditionally.
	DriftBound() (speed, jump float64)
}

// Static is a Model that never moves.
type Static struct{ P geom.Point }

// DriftBound implements Model: a static node never drifts.
func (s *Static) DriftBound() (speed, jump float64) { return 0, 0 }

// TrueFix implements gps.Source.
func (s *Static) TrueFix(float64) gps.Fix { return gps.Fix{Pos: s.P} }

// Waypoint is the random waypoint model: pick a uniform destination in
// the arena, travel at a uniform speed in [MinSpeed, MaxSpeed], pause,
// repeat. Speeds are in meters per simulated second.
//
// One leg (pause + travel) is one piece: the node holds at legPos until
// moveT, then moves linearly, arriving at endT where the next leg is
// drawn.
type Waypoint struct {
	Arena              geom.Rect
	MinSpeed, MaxSpeed float64
	MaxPause           float64

	rng *xrand.Rand

	legPos geom.Point  // position held from the leg's start until moveT
	dest   geom.Point  // waypoint the leg travels to
	vel    geom.Vector // travel velocity (zero while pausing)
	speed  float64
	moveT  float64 // pause end: travel starts here
	endT   float64 // arrival at dest: the piece boundary
}

// NewWaypoint returns a waypoint mover starting at a uniform position.
func NewWaypoint(arena geom.Rect, minSpeed, maxSpeed, maxPause float64, rng *xrand.Rand) *Waypoint {
	w := &Waypoint{
		Arena:    arena,
		MinSpeed: minSpeed,
		MaxSpeed: maxSpeed,
		MaxPause: maxPause,
		rng:      rng,
	}
	w.legPos = uniformPoint(arena, rng)
	w.pickLeg(0)
	return w
}

func uniformPoint(r geom.Rect, rng *xrand.Rand) geom.Point {
	return geom.Pt(rng.Range(r.Min.X, r.Max.X), rng.Range(r.Min.Y, r.Max.Y))
}

// pickLeg draws the next destination, speed, and pause, starting from
// legPos at time now. All randomness of the leg is consumed here, so the
// trajectory does not depend on when the leg is later evaluated.
func (w *Waypoint) pickLeg(now float64) {
	w.dest = uniformPoint(w.Arena, w.rng)
	if w.MaxSpeed <= w.MinSpeed {
		w.speed = w.MaxSpeed
	} else {
		w.speed = w.rng.Range(w.MinSpeed, w.MaxSpeed)
	}
	if w.speed <= 0 {
		w.speed = 0.1 // avoid the RWP zero-speed freeze pathology
	}
	if w.MaxPause > 0 {
		w.moveT = now + w.rng.Range(0, w.MaxPause)
	} else {
		w.moveT = now
	}
	travel := w.legPos.Dist(w.dest) / w.speed
	if travel < 1e-9 {
		travel = 1e-9 // degenerate zero-length leg: still make progress
	}
	w.endT = w.moveT + travel
	w.vel = w.dest.Sub(w.legPos).Unit().Scale(w.speed)
}

// DriftBound implements Model: waypoint speed never exceeds the larger
// of the configured bounds (or the 0.1 m/s anti-freeze floor).
func (w *Waypoint) DriftBound() (speed, jump float64) {
	s := math.Max(w.MaxSpeed, w.MinSpeed)
	return math.Max(s, 0.1), 0
}

// advance crosses piece boundaries up to and including time now.
func (w *Waypoint) advance(now float64) {
	for now >= w.endT {
		w.legPos = w.dest
		w.pickLeg(w.endT)
	}
}

// TrueFix implements gps.Source.
func (w *Waypoint) TrueFix(now float64) gps.Fix {
	w.advance(now)
	if now <= w.moveT {
		return gps.Fix{Pos: w.legPos}
	}
	return gps.Fix{
		Pos: w.legPos.Add(w.vel.Scale(now - w.moveT)),
		Vel: w.vel,
	}
}

// wallHit returns the time (relative to the piece start) at which a
// point moving from pos with velocity vel first reaches a wall of the
// arena, and the velocity after reflecting there. It returns +Inf when
// the motion never hits a wall (zero or inward velocity).
func wallHit(arena geom.Rect, pos geom.Point, vel geom.Vector) (dt float64, hitPos geom.Point, refl geom.Vector) {
	dt = math.Inf(1)
	hitX, hitY := false, false
	if vel.DX > 0 {
		if d := (arena.Max.X - pos.X) / vel.DX; d < dt {
			dt, hitX, hitY = d, true, false
		}
	} else if vel.DX < 0 {
		if d := (arena.Min.X - pos.X) / vel.DX; d < dt {
			dt, hitX, hitY = d, true, false
		}
	}
	if vel.DY > 0 {
		if d := (arena.Max.Y - pos.Y) / vel.DY; d < dt {
			dt, hitX, hitY = d, false, true
		} else if d == dt {
			hitY = true
		}
	} else if vel.DY < 0 {
		if d := (arena.Min.Y - pos.Y) / vel.DY; d < dt {
			dt, hitX, hitY = d, false, true
		} else if d == dt {
			hitY = true
		}
	}
	if math.IsInf(dt, 1) {
		return dt, pos, vel
	}
	if dt < 0 {
		dt = 0 // float residue: already at (or a hair past) the wall
	}
	hitPos = pos.Add(vel.Scale(dt))
	refl = vel
	if hitX {
		// Snap the hit coordinate exactly onto the wall so the next piece
		// starts inside the arena and its own wall-hit time is positive.
		if vel.DX > 0 {
			hitPos.X = arena.Max.X
		} else {
			hitPos.X = arena.Min.X
		}
		refl.DX = -refl.DX
	}
	if hitY {
		if vel.DY > 0 {
			hitPos.Y = arena.Max.Y
		} else {
			hitPos.Y = arena.Min.Y
		}
		refl.DY = -refl.DY
	}
	return dt, hitPos, refl
}

// Walk is a random walk (a.k.a. random direction with reflection): move
// with a constant speed in a direction re-drawn every Epoch seconds,
// bouncing off arena walls. Pieces end at the earlier of the next epoch
// redraw and the next wall bounce.
type Walk struct {
	Arena geom.Rect
	Speed float64
	Epoch float64

	rng   *xrand.Rand
	pos   geom.Point // position at the piece start t0
	vel   geom.Vector
	t0    float64
	nextT float64 // next direction redraw
	endT  float64 // piece end: min(nextT, wall hit)
}

// NewWalk returns a random-walk mover starting at a uniform position.
func NewWalk(arena geom.Rect, speed, epoch float64, rng *xrand.Rand) *Walk {
	w := &Walk{Arena: arena, Speed: speed, Epoch: epoch, rng: rng}
	w.pos = uniformPoint(arena, rng)
	w.redirect()
	return w
}

// redirect draws a fresh heading at the piece start t0.
func (w *Walk) redirect() {
	angle := w.rng.Range(-math.Pi, math.Pi)
	w.vel = geom.FromPolar(w.Speed, angle)
	w.nextT = w.t0 + w.Epoch
	w.seal()
}

// seal recomputes the piece end for the current (pos, vel, t0, nextT).
func (w *Walk) seal() {
	w.endT = w.nextT
	if dt, _, _ := wallHit(w.Arena, w.pos, w.vel); w.t0+dt < w.endT {
		w.endT = w.t0 + dt
	}
}

// DriftBound implements Model.
func (w *Walk) DriftBound() (speed, jump float64) { return w.Speed, 0 }

// advance crosses piece boundaries up to and including time now.
func (w *Walk) advance(now float64) {
	for now >= w.endT {
		if w.endT >= w.nextT { // epoch boundary: redraw the heading
			w.pos = w.pos.Add(w.vel.Scale(w.nextT - w.t0))
			w.t0 = w.nextT
			w.redirect()
			continue
		}
		// Wall bounce: reflect at the exact hit point.
		_, hitPos, refl := wallHit(w.Arena, w.pos, w.vel)
		w.pos, w.vel = hitPos, refl
		w.t0 = w.endT
		w.seal()
	}
}

// TrueFix implements gps.Source.
func (w *Walk) TrueFix(now float64) gps.Fix {
	w.advance(now)
	return gps.Fix{Pos: w.pos.Add(w.vel.Scale(now - w.t0)), Vel: w.vel}
}

// GaussMarkov produces temporally correlated motion: speed and direction
// follow first-order autoregressive processes with memory Alpha in
// [0, 1] (1 = straight-line, 0 = memoryless), updated every Epoch
// seconds. It avoids the sharp-turn artifacts of random waypoint.
// Between epoch updates the motion is linear, bouncing off walls, so a
// piece ends at the earlier of the next epoch and the next wall hit.
type GaussMarkov struct {
	Arena     geom.Rect
	MeanSpeed float64
	Alpha     float64
	Epoch     float64
	SigmaS    float64 // speed innovation std dev
	SigmaD    float64 // direction innovation std dev (radians)
	// SpeedCap hard-limits the speed process (the AR(1) recursion is
	// clamped to [0, SpeedCap] at every epoch). The cap makes the
	// model's drift bounded, which the network's incremental spatial
	// index requires; NewGaussMarkov sets 3x the mean speed, far beyond
	// the ~2.4-sigma stationary spread of the default parameters.
	SpeedCap float64

	rng   *xrand.Rand
	pos   geom.Point // position at the piece start t0
	speed float64
	dir   float64
	vel   geom.Vector
	t0    float64
	nextT float64 // next AR(1) epoch update
	endT  float64 // piece end: min(nextT, wall hit)
}

// NewGaussMarkov returns a Gauss-Markov mover starting at a uniform
// position heading in a uniform direction at the mean speed.
func NewGaussMarkov(arena geom.Rect, meanSpeed, alpha, epoch float64, rng *xrand.Rand) *GaussMarkov {
	g := &GaussMarkov{
		Arena: arena, MeanSpeed: meanSpeed, Alpha: alpha, Epoch: epoch,
		SigmaS: meanSpeed / 4, SigmaD: 0.4, SpeedCap: 3 * meanSpeed, rng: rng,
	}
	g.pos = uniformPoint(arena, rng)
	g.speed = meanSpeed
	g.dir = rng.Range(-math.Pi, math.Pi)
	g.nextT = epoch
	g.seal()
	return g
}

// speedCap returns the effective clamp: SpeedCap when set, else a
// generous default of the mean speed plus six innovation sigmas.
func (g *GaussMarkov) speedCap() float64 {
	if g.SpeedCap > 0 {
		return g.SpeedCap
	}
	return g.MeanSpeed + 6*g.SigmaS
}

// seal recomputes the cached velocity and piece end.
func (g *GaussMarkov) seal() {
	g.vel = geom.FromPolar(g.speed, g.dir)
	g.endT = g.nextT
	if dt, _, _ := wallHit(g.Arena, g.pos, g.vel); g.t0+dt < g.endT {
		g.endT = g.t0 + dt
	}
}

// DriftBound implements Model: advance clamps the speed process to
// speedCap, so it is a hard bound on instantaneous speed.
func (g *GaussMarkov) DriftBound() (speed, jump float64) { return g.speedCap(), 0 }

// advance crosses piece boundaries up to and including time now.
func (g *GaussMarkov) advance(now float64) {
	for now >= g.endT {
		if g.endT >= g.nextT { // epoch boundary: AR(1) update
			g.pos = g.pos.Add(g.vel.Scale(g.nextT - g.t0))
			g.t0 = g.nextT
			a := g.Alpha
			g.speed = a*g.speed + (1-a)*g.MeanSpeed +
				math.Sqrt(1-a*a)*g.SigmaS*g.rng.NormFloat64()
			if g.speed < 0 {
				g.speed = 0
			}
			if cap := g.speedCap(); g.speed > cap {
				g.speed = cap // keep DriftBound a hard guarantee
			}
			g.dir = a*g.dir + (1-a)*g.dir + // mean direction = current
				math.Sqrt(1-a*a)*g.SigmaD*g.rng.NormFloat64()
			g.nextT += g.Epoch
			g.seal()
			continue
		}
		// Wall bounce: adopt the reflected heading at the exact hit point.
		_, hitPos, refl := wallHit(g.Arena, g.pos, g.vel)
		g.pos = hitPos
		g.t0 = g.endT
		if refl != g.vel {
			g.dir = refl.Angle()
		}
		g.seal()
	}
}

// TrueFix implements gps.Source.
func (g *GaussMarkov) TrueFix(now float64) gps.Fix {
	g.advance(now)
	return gps.Fix{Pos: g.pos.Add(g.vel.Scale(now - g.t0)), Vel: g.vel}
}

// Group implements reference point group mobility (RPGM): a logical
// group center moves by random waypoint and each member jitters around a
// fixed offset from the center. This is the paper's battlefield and
// disaster-relief motivation, where units move together and CH-capable
// vehicles anchor clusters.
type Group struct {
	center *Waypoint
}

// NewGroup returns the shared group center mover.
func NewGroup(arena geom.Rect, minSpeed, maxSpeed, maxPause float64, rng *xrand.Rand) *Group {
	return &Group{center: NewWaypoint(arena, minSpeed, maxSpeed, maxPause, rng)}
}

// Member returns a Model for one group member with the given offset from
// the center and jitter radius.
func (g *Group) Member(offset geom.Vector, jitter float64, rng *xrand.Rand) Model {
	m := &groupMember{group: g, offset: offset, jitter: jitter, rng: rng}
	m.redraw()
	return m
}

type groupMember struct {
	group  *Group
	offset geom.Vector
	jitter float64
	rng    *xrand.Rand

	// jitterVec is redrawn once per whole simulated second: epoch k
	// covers [k, k+1). The redraw grid is trajectory-intrinsic (one draw
	// per elapsed second, queried or not), so member trajectories do not
	// depend on when they are sampled.
	epoch     int
	jitterVec geom.Vector
}

func (m *groupMember) redraw() {
	angle := m.rng.Range(-math.Pi, math.Pi)
	m.jitterVec = geom.FromPolar(m.rng.Range(0, m.jitter), angle)
}

// advance crosses piece boundaries up to and including time now.
func (m *groupMember) advance(now float64) {
	m.group.center.advance(now)
	for e := int(math.Floor(now)); m.epoch < e; {
		m.epoch++
		m.redraw()
	}
}

// DriftBound implements Model: a member drifts with the group center
// plus the jitter discontinuity (the jitter vector is redrawn once per
// simulated second, displacing the member by at most twice the jitter
// radius in one instant).
func (m *groupMember) DriftBound() (speed, jump float64) {
	speed, _ = m.group.center.DriftBound()
	return speed, 2 * m.jitter
}

// TrueFix implements gps.Source.
func (m *groupMember) TrueFix(now float64) gps.Fix {
	m.advance(now)
	f := m.group.center.TrueFix(now)
	f.Pos = f.Pos.Add(m.offset).Add(m.jitterVec)
	return f
}

// Manhattan is the Manhattan-grid mobility model used for vehicular
// scenarios: nodes move only along the lines of a street grid with the
// given block size, choosing straight/left/right at intersections with
// probabilities 0.5/0.25/0.25 (the standard parameterization). One
// street segment (run to the next intersection) is one piece.
type Manhattan struct {
	Arena geom.Rect
	Block float64
	Speed float64

	rng  *xrand.Rand
	pos  geom.Point  // position at the piece start t0
	dir  geom.Vector // unit axis direction
	t0   float64
	endT float64 // arrival at the next intersection
}

// NewManhattan returns a mover starting at a random intersection heading
// in a random axis direction. Block must divide the arena reasonably;
// positions snap to the street grid.
func NewManhattan(arena geom.Rect, block, speed float64, rng *xrand.Rand) *Manhattan {
	m := &Manhattan{Arena: arena, Block: block, Speed: speed, rng: rng}
	cols := int(arena.W() / block)
	rows := int(arena.H() / block)
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	m.pos = geom.Pt(
		arena.Min.X+float64(rng.Intn(cols+1))*block,
		arena.Min.Y+float64(rng.Intn(rows+1))*block,
	)
	m.pos = arena.Clamp(m.pos)
	m.dir = m.randomAxis()
	// The initial draw may point off the grid at an edge intersection;
	// redraw until the first block stays inside (a valid axis always
	// exists because the arena is at least one block wide).
	for tries := 0; tries < 16; tries++ {
		next := m.pos.Add(m.dir.Scale(m.Block))
		if next.X >= arena.Min.X && next.X <= arena.Max.X &&
			next.Y >= arena.Min.Y && next.Y <= arena.Max.Y {
			break
		}
		m.dir = m.randomAxis()
	}
	m.seal()
	return m
}

func (m *Manhattan) randomAxis() geom.Vector {
	switch m.rng.Intn(4) {
	case 0:
		return geom.Vec(1, 0)
	case 1:
		return geom.Vec(-1, 0)
	case 2:
		return geom.Vec(0, 1)
	default:
		return geom.Vec(0, -1)
	}
}

// turn picks the next direction at an intersection: straight 0.5, left
// 0.25, right 0.25; directions leading out of the arena are re-drawn.
func (m *Manhattan) turn() {
	for tries := 0; tries < 8; tries++ {
		d := m.dir
		r := m.rng.Float64()
		switch {
		case r < 0.5:
			// straight: keep d
		case r < 0.75:
			d = geom.Vec(-d.DY, d.DX) // left
		default:
			d = geom.Vec(d.DY, -d.DX) // right
		}
		next := m.pos.Add(d.Scale(m.Block))
		if next.X >= m.Arena.Min.X && next.X <= m.Arena.Max.X &&
			next.Y >= m.Arena.Min.Y && next.Y <= m.Arena.Max.Y {
			m.dir = d
			return
		}
		// Heading off the grid: force a new random axis and retry.
		m.dir = m.randomAxis()
	}
	m.dir = m.dir.Scale(-1) // dead end: U-turn
}

// along returns the distance to the next intersection along the current
// street from the piece-start position.
func (m *Manhattan) along() float64 {
	var along float64
	if m.dir.DX != 0 {
		offset := math.Mod(m.pos.X-m.Arena.Min.X, m.Block)
		if m.dir.DX > 0 {
			along = m.Block - offset
		} else {
			along = offset
		}
	} else {
		offset := math.Mod(m.pos.Y-m.Arena.Min.Y, m.Block)
		if m.dir.DY > 0 {
			along = m.Block - offset
		} else {
			along = offset
		}
	}
	if along < 1e-9 {
		along = m.Block
	}
	return along
}

// seal recomputes the piece end for the current (pos, dir, t0).
func (m *Manhattan) seal() { m.endT = m.t0 + m.along()/m.Speed }

// DriftBound implements Model.
func (m *Manhattan) DriftBound() (speed, jump float64) { return m.Speed, 0 }

// advance crosses piece boundaries up to and including time now.
func (m *Manhattan) advance(now float64) {
	for now >= m.endT {
		m.pos = m.pos.Add(m.dir.Scale(m.along()))
		m.t0 = m.endT
		m.turn()
		m.seal()
	}
}

// TrueFix implements gps.Source.
func (m *Manhattan) TrueFix(now float64) gps.Fix {
	m.advance(now)
	return gps.Fix{
		Pos: m.pos.Add(m.dir.Scale(m.Speed * (now - m.t0))),
		Vel: m.dir.Scale(m.Speed),
	}
}
