// Package georoute implements the location-based unicast routing the
// paper delegates to ("we assume to use some location-based unicast
// routing algorithm to send a packet from one logical hypercube to its
// next hop logical hypercube", §4.3): greedy geographic forwarding with
// a right-hand-rule perimeter recovery on a Gabriel-planarized neighbor
// graph, following GPSR [11], which the paper itself cites for the
// recovery strategy.
//
// The router is hop-by-hop: each forwarding decision uses only the
// current node's neighbor positions and the packet's target coordinates,
// exactly the locality property that makes location-based routing scale.
package georoute

import (
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/trace"
)

// KindPrefix prefixes the packet kind of geo-routed envelopes; the full
// kind is KindPrefix + inner.Kind, so traffic accounting attributes the
// envelope to the protocol plane it carries.
const KindPrefix = "geo:"

// Kind is the bare envelope kind used when the inner kind is empty.
const Kind = "geo"

// HeaderSize is the on-air overhead of the geo envelope in bytes:
// target position (16), final destination (4), mode+entry distance (12),
// TTL and flags (4).
const HeaderSize = 36

// DefaultTTL bounds the physical hop count of one geo-routed packet.
const DefaultTTL = 128

// Header is the geo-routing envelope around an inner packet. Field
// order is part of the hot path: every per-hop decision touches
// FinalDst, Inner, Target, TTL, Hops, and Recovering, so they lead the
// struct and share its first cache line; the perimeter-recovery state
// (rare) trails.
type Header struct {
	// FinalDst, when not NoNode, names the node that should consume the
	// inner packet; the packet completes at FinalDst, or at the node
	// closest to Target when FinalDst is NoNode (anycast-to-location).
	FinalDst network.NodeID
	// Inner is the encapsulated upper-layer packet.
	Inner *network.Packet
	// Target is the geographic destination the greedy mode steers to.
	Target geom.Point
	// TTL is the remaining physical hop budget.
	TTL int
	// Hops counts physical transmissions of this envelope; it is copied
	// to the inner packet on delivery so end-to-end hop metrics survive
	// per-hop re-encapsulation.
	Hops int
	// Perimeter mode state: whether we are in recovery, the distance to
	// target at which recovery was entered, and the previous hop (for
	// the right-hand rule).
	Recovering bool
	EntryDist  float64
	PrevHop    network.NodeID
	// Visited marks nodes traversed while in recovery. Real GPSR's face
	// routing is loop-free by construction; this simplified right-hand
	// traversal uses the visited set for the same guarantee, preferring
	// unvisited perimeter neighbors and dropping only when the whole
	// reachable perimeter has been walked.
	Visited map[network.NodeID]bool
}

// DeliverFunc consumes an inner packet that reached its destination.
type DeliverFunc func(n *network.Node, inner *network.Packet)

// Router performs geographic unicast over one network. One router is
// shared by all protocol planes of a mux (see Attach); each plane
// registers consumers for its own inner packet kinds.
type Router struct {
	net *network.Network
	tr  trace.Tracer
	// trOn gates the per-packet trace calls: formatting arguments box
	// into interfaces even for the no-op tracer, which is measurable at
	// millions of forwarding decisions.
	trOn bool

	consumers       map[string]DeliverFunc
	fallbackDeliver DeliverFunc
	// One-entry cache over consumer dispatch.
	lastConsKind string
	lastCons     DeliverFunc
	// Delivered counts inner packets consumed, for experiments.
	Delivered uint64
	// dropped counts inner packets abandoned; read via Dropped.
	dropped uint64

	// envKinds interns the "geo:"+inner.Kind envelope kinds so the
	// per-hop envelope needs no string concatenation; the one-entry
	// cache rides same-kind bursts.
	envKinds   map[string]string
	lastEnvIn  string
	lastEnvOut string

	// nbrBuf/nbrPos and gabBuf/gabPos are gabrielNeighbors' reused
	// neighbor scratch (IDs and parallel exact positions); forwarding
	// decisions are not re-entrant, so one set suffices.
	nbrBuf []network.NodeID
	nbrPos []geom.Point
	gabBuf []network.NodeID
	gabPos []geom.Point

	// freeHdr pools Headers: one is live per geo-routed packet from
	// Send to consume/drop, so steady-state forwarding allocates none.
	freeHdr []*Header
}

// auxKey identifies the shared router on a mux.
const auxKey = "georoute"

// Attach returns the mux's shared router, creating and registering it on
// first use. Envelopes are dispatched through the mux fallback by their
// KindPrefix, so protocol planes can register exact kinds freely.
func Attach(net *network.Network, mux *network.Mux) *Router {
	if r, ok := mux.Aux(auxKey).(*Router); ok {
		return r
	}
	r := &Router{
		net:       net,
		tr:        trace.Nop,
		consumers: make(map[string]DeliverFunc),
		envKinds:  make(map[string]string),
		nbrPos:    make([]geom.Point, 0, 32),
		gabPos:    make([]geom.Point, 0, 32),
	}
	mux.SetAux(auxKey, r)
	mux.Handle(Kind, r.onPacket)
	mux.HandleFallback(func(n *network.Node, from network.NodeID, pkt *network.Packet) {
		if strings.HasPrefix(pkt.Kind, KindPrefix) {
			r.onPacket(n, from, pkt)
		}
	})
	return r
}

// Dropped returns how many inner packets were abandoned (TTL expiry,
// perimeter dead ends, failed transmissions).
func (r *Router) Dropped() uint64 { return r.dropped }

// Deliver registers the consumer for inner packets of the given kind,
// replacing any previous registration.
func (r *Router) Deliver(kind string, fn DeliverFunc) {
	r.consumers[kind] = fn
	r.lastConsKind, r.lastCons = "", nil
}

// DeliverFallback registers the consumer for inner kinds with no exact
// registration.
func (r *Router) DeliverFallback(fn DeliverFunc) { r.fallbackDeliver = fn }

// SetTracer installs a tracer; nil resets to no-op.
func (r *Router) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop
	}
	r.tr = t
	r.trOn = t != trace.Nop
}

// Send geo-routes inner from the node `from` toward the target
// position, to be consumed by final (or by the node nearest the target
// if final is NoNode). It reports whether a first transmission was made
// (or the packet was consumed locally).
//
// A pooled inner packet is kept alive by the per-hop envelopes that
// carry it (AdoptPacket): whichever way a hop ends — delivered,
// dropped, or lost in flight — recycling the envelope releases its
// reference, so callers may release theirs as soon as Send returns.
func (r *Router) Send(from network.NodeID, target geom.Point, final network.NodeID, inner *network.Packet) bool {
	n := r.net.Node(from)
	if n == nil || !n.Up() {
		return false
	}
	h := r.acquireHeader()
	h.Target, h.FinalDst = target, final
	h.TTL = DefaultTTL
	h.PrevHop = network.NoNode
	h.Inner = inner
	return r.forward(n, h)
}

// acquireHeader takes a zeroed Header from the pool.
func (r *Router) acquireHeader() *Header {
	if n := len(r.freeHdr); n > 0 {
		h := r.freeHdr[n-1]
		r.freeHdr = r.freeHdr[:n-1]
		return h
	}
	return &Header{}
}

// releaseHeader recycles a Header whose packet reached its end of life
// (consumed or dropped); headers on envelopes lost in flight are simply
// garbage collected.
func (r *Router) releaseHeader(h *Header) {
	*h = Header{}
	r.freeHdr = append(r.freeHdr, h)
}

// envKind returns the interned envelope kind for an inner kind.
func (r *Router) envKind(inner string) string {
	if inner == "" {
		return Kind
	}
	if inner == r.lastEnvIn {
		return r.lastEnvOut
	}
	k, ok := r.envKinds[inner]
	if !ok {
		k = KindPrefix + inner
		r.envKinds[inner] = k
	}
	r.lastEnvIn, r.lastEnvOut = inner, k
	return k
}

// envelope wraps the header in a pooled per-hop packet; transmit
// releases it once the network has taken its in-flight references.
func (r *Router) envelope(h *Header) *network.Packet {
	p := r.net.AcquirePacket()
	p.Kind = r.envKind(h.Inner.Kind)
	p.Src = h.Inner.Src
	p.Dst = h.FinalDst
	p.Group = h.Inner.Group
	p.Size = h.Inner.Size + HeaderSize
	p.Control = h.Inner.Control
	p.Born = h.Inner.Born
	p.UID = h.Inner.UID
	p.Payload = h
	r.net.AdoptPacket(p, h.Inner) // inner lives as long as its envelope
	return p
}

func (r *Router) onPacket(n *network.Node, from network.NodeID, pkt *network.Packet) {
	h, ok := pkt.Payload.(*Header)
	if !ok {
		r.dropped++
		return
	}
	h.PrevHop = from
	r.forward(n, h)
}

// forward makes one forwarding decision at node n.
func (r *Router) forward(n *network.Node, h *Header) bool {
	// Arrived at the named destination? (Checked before computing the
	// node's position — consumption doesn't need it, and logical-hop
	// traffic terminates here once per hop.)
	if h.FinalDst == n.ID {
		r.consume(n, h)
		return true
	}
	pos := n.TruePos()
	// Anycast completion: nobody closer to the target. The final
	// destination seeds the greedy query: a CH addressed at its own VC
	// centre, once in range, narrows the search to a few cells.
	next := r.net.GreedyNext(n.ID, h.Target, h.FinalDst)
	if h.FinalDst == network.NoNode && next == network.NoNode && !h.Recovering {
		r.consume(n, h)
		return true
	}
	if h.TTL <= 0 {
		r.drop(n, h, "ttl")
		return false
	}
	h.TTL--

	if h.Recovering {
		// Exit recovery as soon as greedy progress is again possible
		// relative to the entry point (GPSR's rule).
		if pos.Dist(h.Target) < h.EntryDist && next != network.NoNode {
			h.Recovering = false
			h.Visited = nil
		} else {
			h.Visited[n.ID] = true
			peri := r.perimeterNext(n, pos, h)
			if peri == network.NoNode {
				r.drop(n, h, "perimeter dead end")
				return false
			}
			return r.transmit(n, peri, h)
		}
	}
	if next == network.NoNode {
		// Local maximum: enter perimeter mode.
		h.Recovering = true
		h.EntryDist = pos.Dist(h.Target)
		h.Visited = map[network.NodeID]bool{n.ID: true}
		peri := r.perimeterNext(n, pos, h)
		if peri == network.NoNode {
			r.drop(n, h, "void with no perimeter")
			return false
		}
		return r.transmit(n, peri, h)
	}
	return r.transmit(n, next, h)
}

func (r *Router) transmit(n *network.Node, to network.NodeID, h *Header) bool {
	env := r.envelope(h)
	ok := r.net.Unicast(n.ID, to, env)
	r.net.ReleasePacket(env) // in-flight references keep it alive
	if !ok {
		r.drop(n, h, "tx failed")
		return false
	}
	h.Hops++
	return true
}

// consume hands the inner packet to its registered consumer.
func (r *Router) consume(n *network.Node, h *Header) {
	r.Delivered++
	h.Inner.Hops += h.Hops
	if r.trOn {
		r.tr.Eventf(trace.Routes, float64(r.net.Sim().Now()), "geo delivered %s uid=%d at %d", h.Inner.Kind, h.Inner.UID, n.ID)
	}
	var fn DeliverFunc
	if h.Inner.Kind == r.lastConsKind && r.lastCons != nil {
		fn = r.lastCons
	} else if cfn, ok := r.consumers[h.Inner.Kind]; ok {
		r.lastConsKind, r.lastCons = h.Inner.Kind, cfn
		fn = cfn
	} else {
		fn = r.fallbackDeliver
	}
	if fn != nil {
		fn(n, h.Inner)
	}
	r.releaseHeader(h)
}

func (r *Router) drop(n *network.Node, h *Header, why string) {
	r.dropped++
	if r.trOn {
		r.tr.Eventf(trace.Routes, float64(r.net.Sim().Now()), "geo drop %s uid=%d at %d: %s", h.Inner.Kind, h.Inner.UID, n.ID, why)
	}
	r.releaseHeader(h)
}

// perimeterNext applies the right-hand rule on the Gabriel-planarized
// neighbor subgraph: take the first edge counterclockwise from the edge
// back to the previous hop (or from the direction toward the target when
// entering recovery).
func (r *Router) perimeterNext(n *network.Node, pos geom.Point, h *Header) network.NodeID {
	nbrs := r.gabrielNeighbors(n, pos)
	if len(nbrs) == 0 {
		return network.NoNode
	}
	var refAngle float64
	if prev := r.net.Node(h.PrevHop); prev != nil {
		refAngle = prev.TruePos().Sub(pos).Angle()
	} else {
		refAngle = h.Target.Sub(pos).Angle()
	}
	best := network.NoNode
	bestDelta := math.Inf(1)
	// First pass prefers unvisited neighbors (loop-free traversal);
	// second pass allows visited ones only when nothing new remains,
	// which lets the walk back out of a dead-end spur exactly once per
	// node before the visited set exhausts and the packet drops.
	for pass := 0; pass < 2 && best == network.NoNode; pass++ {
		for i, id := range nbrs {
			if id == h.PrevHop && len(nbrs) > 1 {
				continue // only return to sender as a last resort
			}
			if pass == 0 && h.Visited[id] {
				continue
			}
			if pass == 1 && !h.Visited[id] {
				continue // covered in pass 0
			}
			a := r.gabPos[i].Sub(pos).Angle()
			delta := math.Mod(a-refAngle+4*math.Pi, 2*math.Pi)
			if delta == 0 {
				delta = 2 * math.Pi
			}
			if delta < bestDelta {
				best, bestDelta = id, delta
			}
		}
		if pass == 1 {
			break
		}
	}
	if best == network.NoNode && h.PrevHop != network.NoNode {
		return h.PrevHop
	}
	return best
}

// gabrielNeighbors filters n's physical neighbors to the Gabriel graph:
// edge (u, v) survives iff no common neighbor lies inside the disc with
// diameter uv. The Gabriel graph is planar and connectivity-preserving,
// the standard GPSR planarization.
// gabrielNeighbors returns the surviving neighbor IDs with their
// positions in r.gabPos (parallel), for the caller's angle computations.
func (r *Router) gabrielNeighbors(n *network.Node, pos geom.Point) []network.NodeID {
	r.nbrBuf, r.nbrPos = r.net.NeighborsPos(n.ID, r.nbrBuf[:0], r.nbrPos[:0])
	nbrs, poss := r.nbrBuf, r.nbrPos
	out, outPos := r.gabBuf[:0], r.gabPos[:0]
	for i, v := range nbrs {
		vp := poss[i]
		mid := geom.Pt((pos.X+vp.X)/2, (pos.Y+vp.Y)/2)
		radius2 := pos.Dist2(vp) / 4
		keep := true
		for j, w := range nbrs {
			if w == v {
				continue
			}
			if poss[j].Dist2(mid) < radius2 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, v)
			outPos = append(outPos, vp)
		}
	}
	r.gabBuf, r.gabPos = out, outPos // keep capacity for the next decision
	return out
}
