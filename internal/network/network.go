// Package network is the MANET substrate: mobile nodes with radios and
// mobility models, single-hop unicast/broadcast delivery with realistic
// delay and loss, a spatial index for neighbor queries, failure
// injection, and the traffic accounting every experiment reports
// (control vs. data overhead, per-node forwarding load).
//
// Protocols are written as packet handlers on nodes; the network
// schedules deliveries on the shared discrete-event simulator. A single
// Network is owned by a single simulation run and is not safe for
// concurrent use; runs are parallelized at the harness level by
// internal/runner, which gives every run its own Network, Simulator,
// and PRNG stream (no state in this package is shared between runs).
//
// # Hot-path design
//
// Five structures keep the substrate fast at 10k-node scale (DESIGN.md
// has the full story):
//
//   - The spatial index is incremental. Instead of rebuilding the cell
//     grid at every distinct simulation time (O(N) mobility advances per
//     event), each node carries a cell assignment plus a safe-until
//     deadline derived from its mobility model's DriftBound: until the
//     deadline, the node's true position provably stays within half a
//     cell of the position its cell was computed from. A query refreshes
//     only the nodes whose deadlines have passed (a small index heap),
//     widens the scan radius by that half-cell slack, and re-checks
//     candidates exactly. Static nodes — the anchor CH population —
//     never refresh at all. Cell buckets carry each member's anchor
//     position inline, so the prefilter is a sequential scan. The
//     greedy next-hop query (GreedyNext) scans only the cells that can
//     still hold a node closer to the target than the best so far, and
//     skips candidates on their anchors before any mobility model runs.
//   - The delivery path runs on dense per-node arrays (liveness,
//     receive counters, handlers, plus the spatial SoA slice), never
//     loading *Node structs, and per-node positions at the current
//     instant are memoized, so a broadcast storm touching the same
//     nodes at one timestamp advances each mobility model once.
//   - A Broadcast keeps one pending event per transmission: a pooled
//     record holding its receivers sorted by their original delivery
//     keys (time, reserved sequence number). Each execution delivers
//     one receiver and re-schedules the record at the next receiver's
//     key, so the pending-event set scales with transmissions, not
//     transmissions x degree, while every delivery stays one executed
//     event at exactly the key per-neighbor scheduling would give it.
//   - Traffic accounting interns the packet kind: one map lookup per
//     transmission into a counter struct (tx, bytes, sender bitset)
//     behind a one-entry cache riding same-kind bursts. The Mux keeps
//     the same cache over handler dispatch.
//   - Packet hops schedule pooled delivery records through
//     des.ScheduleCall, and packets themselves can be pooled
//     (AcquirePacket/ReleasePacket) with network-managed reference
//     counts, so the steady-state per-hop allocation count is zero.
package network

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/gps"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// NodeID identifies a node within one Network.
type NodeID int

// NoNode is the invalid node ID.
const NoNode NodeID = -1

// Packet is a single transmission unit. Protocols attach their own
// payload; Size is what occupies the channel and is what the overhead
// accounting integrates.
type Packet struct {
	// Kind names the protocol message type, e.g. "beacon",
	// "mnt-summary", "mcast-data". It keys the per-kind traffic counters.
	Kind string
	// Src is the originating node; Dst the final destination (protocols
	// performing multi-hop routing re-send at each hop).
	Src, Dst NodeID
	// Group carries a multicast group ID where relevant.
	Group int
	// Size is the on-air size in bytes, headers included.
	Size int
	// Control marks protocol overhead as opposed to application data.
	Control bool
	// LogicalHops counts overlay-level forwards (HVDB's CH-to-CH hops);
	// the network never touches it. Carrying it per copy lets a
	// protocol share one immutable routing header across a fan-out.
	// (An int32 beside Control fills padding: Packet stays 112 bytes.)
	LogicalHops int32
	// Hops counts physical transmissions so far; the network increments
	// it on every delivery.
	Hops int
	// Born is the simulated time the packet's application payload was
	// created, for end-to-end delay measurement across re-encapsulation.
	Born des.Time
	// UID is unique per originated packet and survives forwarding, so
	// duplicate suppression and delivery accounting can key on it.
	UID uint64
	// Payload is protocol-defined.
	Payload any

	// Pool management (see AcquirePacket): refs counts the holders of a
	// pooled packet — the sending caller plus every in-flight delivery —
	// and child is a pooled packet this one keeps alive (see
	// AdoptPacket), released when this packet recycles.
	refs   int32
	pooled bool
	child  *Packet
}

// Clone returns a copy of the packet for duplication at branch points;
// payloads are shared (protocol payloads are immutable by convention).
// The copy is always heap-owned, never pooled, so cloning is also the
// way a handler retains a pooled packet past its delivery.
func (p *Packet) Clone() *Packet {
	q := *p
	q.refs, q.pooled, q.child = 0, false, nil
	return &q
}

// Handler receives packets delivered to a node. from is the physical
// (one-hop) sender.
type Handler func(n *Node, from NodeID, pkt *Packet)

// Node is one mobile node.
type Node struct {
	ID  NodeID
	net *Network

	Mob   mobility.Model
	Radio radio.Model
	GPS   gps.Receiver
	// CHCapable marks nodes with the stronger capability class that the
	// paper requires of cluster heads.
	CHCapable bool
	// cap meters residual bandwidth for QoS admission. It is lazily
	// materialized by Capacity(): only nodes an admission plane actually
	// touches pay for the meter, so the millions of idle nodes in a
	// mega-world carry none.
	cap *radio.Capacity

	rng xrand.Rand    // private stream, split off the network's at AddNode
	pre radio.Precomp // cached link budget of Radio

	// Traffic counters (transmissions this node performed). Receive
	// counters live in the network's dense per-node arrays — the
	// delivery hot path updates them without loading the Node — and are
	// read through RxPackets/RxBytes.
	TxPackets, TxBytes uint64
	// ForwardLoad counts transmissions done on behalf of others (the
	// load-balancing experiments read it).
	ForwardLoad uint64
}

// RxPackets returns how many packets the node has received.
func (n *Node) RxPackets() uint64 { return n.net.hot[n.ID].rxPkts }

// RxBytes returns how many bytes the node has received.
func (n *Node) RxBytes() uint64 { return n.net.hot[n.ID].rxBytes }

// Up reports whether the node is alive.
func (n *Node) Up() bool { return n.net.hot[n.ID].up }

// SetHandler installs the packet receive callback.
func (n *Node) SetHandler(h Handler) { n.net.hot[n.ID].handler = h }

// Rand returns the node's private PRNG stream.
func (n *Node) Rand() *xrand.Rand { return &n.rng }

// Capacity returns the node's residual-bandwidth meter for QoS
// admission, materializing it on first touch. A fresh meter is fully
// free, so lazy allocation is observationally identical to the eager
// per-node meters it replaces.
func (n *Node) Capacity() *radio.Capacity {
	if n.cap == nil {
		n.cap = radio.NewCapacity(n.Radio.Bandwidth)
	}
	return n.cap
}

// Net returns the owning network.
func (n *Node) Net() *Network { return n.net }

// Fix samples the node's positioning receiver at the current simulated
// time.
func (n *Node) Fix() gps.Fix {
	return n.GPS.Fix(n.Mob, float64(n.net.sim.Now()))
}

// TruePos returns the node's ground-truth position (the network layer
// itself always uses truth for propagation; GPS error only affects what
// protocols believe). The position is memoized per simulation instant.
func (n *Node) TruePos() geom.Point {
	return n.net.truePos(n)
}

// Fail takes the node down: it stops receiving and transmitting until
// Recover. The node leaves the spatial index immediately, so neighbor
// queries at the same instant already exclude it.
func (n *Node) Fail() {
	if !n.net.hot[n.ID].up {
		return
	}
	n.net.hot[n.ID].up = false
	n.net.indexRemove(n.ID)
}

// Recover brings a failed node back and re-enters it into the spatial
// index at its current true position.
func (n *Node) Recover() {
	if n.net.hot[n.ID].up {
		return
	}
	n.net.hot[n.ID].up = true
	n.net.indexInsert(n.ID)
}

// spatialState is the per-node bookkeeping of the incremental index.
// It deliberately duplicates the mobility model in one parallel
// struct-of-arrays slice: refreshTo and NeighborsPos iterate thousands
// of candidates per query, and walking w.sp[id] stays within a few
// contiguous cache lines where chasing *Node pointers would miss on
// every candidate. (Liveness, receive counters, and handlers live in
// their own denser arrays; see Network.)
type spatialState struct {
	// cell is the node's current bucket; anchorPos the position the
	// bucket and deadline were computed from.
	cell      cellKey
	anchorPos geom.Point
	// safeUntil is the last instant the drift bound guarantees the true
	// position within half a cell of anchorPos.
	safeUntil des.Time
	// heapIdx is the node's slot in the refresh heap; -1 when absent
	// (down nodes, and static nodes whose deadline is infinite).
	heapIdx int32
	// mob aliases Node.Mob so position refreshes never touch the Node.
	mob mobility.Model
	// driftSpeed/driftJump cache Mob.DriftBound().
	driftSpeed, driftJump float64
}

// Network owns the nodes of one simulated MANET.
type Network struct {
	sim    *des.Simulator
	arena  geom.Rect
	nodes  []*Node
	rng    *xrand.Rand
	tracer trace.Tracer
	trOn   bool // gates per-loss trace calls (arg boxing allocates)

	// Incremental spatial index over node positions. Cells form a
	// two-level sparse grid over the arena (padded by gridPad cells per
	// side for movers that exceed the arena, e.g. group-motion offsets);
	// out-of-range positions clamp to the border cells, which preserves
	// query correctness because clamping never increases cell distance.
	// The coarse level is a page directory of tile pointers (tileW x
	// tileW cells each, nil until a node lands there), so an arena's
	// index memory is proportional to its occupied area, not its total
	// cell count — the property that lets sparse mega-arenas scale.
	// Buckets carry each member's anchor position inline (cellEntry),
	// so the query prefilter is one sequential scan per bucket and only
	// surviving candidates touch the per-node spatial state. Tiles are
	// materialized by index maintenance only; scans never allocate.
	cellSize float64
	slack    float64 // staleness tolerance of cached cell positions
	gridMinX float64
	gridMinY float64
	gridCols int
	gridRows int
	tileCols int
	tileRows int
	tiles    []*gridTile // page directory, indexed ty*tileCols+tx
	sp       []spatialState
	refresh  []NodeID // index min-heap keyed by sp[id].safeUntil

	// exact memoizes each node's true position per simulation instant.
	// It lives apart from sp because the memo *hit* is the hot case —
	// every candidate surviving a neighbor scan's prefilter checks it —
	// and the 24-byte records pack ~3 nodes per cache line where the
	// full spatialState spans two lines on its own.
	exact []posMemo

	// nbrIDs/nbrPos are the neighbor scratch of Broadcast and
	// NeighborsAppend (IDs and parallel exact positions); neither calls
	// out while it reads them, so one set suffices.
	nbrIDs []NodeID
	nbrPos []geom.Point

	// Aggregate accounting, interned by packet kind, with a one-entry
	// cache riding the same-kind burstiness of protocol traffic.
	kinds     map[string]*kindCounter
	lastKind  string
	lastKC    *kindCounter
	ctrlBytes uint64
	dataBytes uint64
	lost      uint64

	// Free list for pooled packets; pktCheckedOut balances
	// AcquirePacket against pool recycling and must return to zero once
	// the simulator drains (the leak check scenario integration tests
	// assert at world teardown).
	freePkts      []*Packet
	pktCheckedOut int

	// hot packs the delivery hot path's per-node state — liveness,
	// receive counters, handler, and the node pointer — into one record
	// so a delivery touches a single cache line where four parallel
	// arrays cost four misses at 10k-node scale. hot[id].up is the
	// authoritative liveness flag (Node.Up reads it).
	hot []nodeHot

	nextUID uint64

	// grain is the smallest radio delay quantum admitted so far; it
	// feeds the event scheduler's bucket sizing (des.Simulator.SetGrain).
	grain float64

	// deliverFn is the one method value every delivery event shares as
	// its ScheduleCallU target.
	deliverFn func(any, uint64)

	// freeTx pools broadcast transmission records.
	freeTx []*transmission
}

// posMemo is one node's true-position memo: pos is valid at instant at
// (-1 = never computed).
type posMemo struct {
	at  des.Time
	pos geom.Point
}

// nodeHot is the per-node record of the delivery hot path. Field order
// keeps the three words deliver always touches (counters and handler)
// adjacent.
type nodeHot struct {
	rxPkts  uint64
	rxBytes uint64
	handler Handler
	node    *Node
	up      bool
}

// cellKey addresses one cell of the dense grid.
type cellKey struct{ cx, cy int }

// cellEntry is one bucket member of the spatial index: the node plus a
// copy of the anchor position its bucket assignment was computed from,
// and whether the node is static (anchor CHs). Keeping the scan data
// inline makes the query prefilter a walk over contiguous 32-byte
// records; for static nodes the anchor *is* the exact position, so the
// whole range check completes without loading any per-node state.
type cellEntry struct {
	id     NodeID
	x, y   float64
	static bool
}

// gridPad is how many cells the grid extends beyond the arena on
// each side, absorbing movers that wander slightly outside it.
const gridPad = 2

// Tile geometry of the sparse index: tileW x tileW cells per page.
// 8x8 keeps a page at 64 slice headers (~1.5 KB) — fine-grained enough
// that a clustered population in a mega-arena allocates only the pages
// it stands on, coarse enough that the directory is 1/64th of the cell
// count in pointers.
const (
	tileShift = 3
	tileW     = 1 << tileShift
	tileMask  = tileW - 1
	tileCells = tileW * tileW
)

// gridTile is one materialized page of the spatial index: a dense
// tileW x tileW block of ID-ordered buckets, indexed iy<<tileShift|ix
// with ix, iy the cell coordinates within the tile.
type gridTile struct {
	buckets [tileCells][]cellEntry
}

// maxSlack caps the staleness slack of the incremental index (meters).
// Larger slack means rarer refreshes but more candidates per query to
// prefilter; at MANET node speeds, 60 m keeps refreshes far below one
// per node-second while adding only a thin shell to the query radius.
const maxSlack = 60.0

// kindCounter aggregates the traffic of one packet kind.
type kindCounter struct {
	tx      uint64
	bytes   uint64
	senders []uint64 // bitset over NodeID
}

func (k *kindCounter) setSender(id NodeID) {
	w := int(id) >> 6
	for len(k.senders) <= w {
		k.senders = append(k.senders, 0)
	}
	k.senders[w] |= 1 << (uint(id) & 63)
}

// New returns an empty network over the given arena on the given
// simulator.
func New(sim *des.Simulator, arena geom.Rect, rng *xrand.Rand) *Network {
	w := &Network{
		sim:      sim,
		arena:    arena,
		rng:      rng,
		tracer:   trace.Nop,
		cellSize: radio.DefaultCH.Range,
		kinds:    make(map[string]*kindCounter),
	}
	w.deliverFn = w.runDelivery
	w.sizeGrid()
	return w
}

// sizeGrid (re)computes the grid dimensions for the current cell size
// and allocates an empty page directory (tiles materialize on first
// insert).
func (w *Network) sizeGrid() {
	w.slack = math.Min(w.cellSize/2, maxSlack)
	w.gridMinX = w.arena.Min.X - gridPad*w.cellSize
	w.gridMinY = w.arena.Min.Y - gridPad*w.cellSize
	w.gridCols = int(math.Ceil(w.arena.W()/w.cellSize)) + 2*gridPad + 1
	w.gridRows = int(math.Ceil(w.arena.H()/w.cellSize)) + 2*gridPad + 1
	w.tileCols = (w.gridCols + tileMask) >> tileShift
	w.tileRows = (w.gridRows + tileMask) >> tileShift
	w.tiles = make([]*gridTile, w.tileCols*w.tileRows)
}

// SetTracer installs a tracer; nil resets to no-op.
func (w *Network) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop
	}
	w.tracer = t
	w.trOn = t != trace.Nop
}

// Sim returns the simulator the network schedules on.
func (w *Network) Sim() *des.Simulator { return w.sim }

// Arena returns the simulation area.
func (w *Network) Arena() geom.Rect { return w.arena }

// AddNode creates a node with the given mobility, radio, and positioning
// receiver. Nodes start up.
func (w *Network) AddNode(mob mobility.Model, rm radio.Model, receiver gps.Receiver, chCapable bool) *Node {
	if receiver == nil {
		receiver = gps.Oracle{}
	}
	n := &Node{
		ID:        NodeID(len(w.nodes)),
		net:       w,
		Mob:       mob,
		Radio:     rm,
		GPS:       receiver,
		CHCapable: chCapable,
		rng:       *xrand.New(w.rng.Uint64()), // = Split(), stream-identical
		pre:       rm.Precompute(),
	}
	w.nodes = append(w.nodes, n)
	w.sp = append(w.sp, spatialState{heapIdx: -1, mob: mob})
	w.exact = append(w.exact, posMemo{at: -1})
	w.hot = append(w.hot, nodeHot{up: true, node: n})
	sp := &w.sp[n.ID]
	sp.driftSpeed, sp.driftJump = mob.DriftBound()
	if q := n.pre.DelayQuantum(); q > 0 && (w.grain == 0 || q < w.grain) {
		// A finer radio class tightens the hop-delay quantum; let the
		// scheduler size its near-horizon buckets to it.
		w.grain = q
		w.sim.SetGrain(des.Duration(q))
	}
	if rm.Range > w.cellSize {
		// A longer-range radio widens the grid cells; re-bucket everyone
		// (the rebuild indexes the new node along with the rest).
		w.cellSize = rm.Range
		w.reindexAll()
	} else {
		w.indexInsert(n.ID)
	}
	return n
}

// reindexAll rebuilds every live node's bucket after a cell-size change
// (only possible while nodes are still being admitted).
func (w *Network) reindexAll() {
	w.sizeGrid()
	w.refresh = w.refresh[:0]
	for _, n := range w.nodes {
		w.sp[n.ID].heapIdx = -1
		if w.hot[n.ID].up {
			w.indexInsert(n.ID)
		}
	}
}

// Node returns the node with the given ID, or nil if out of range.
func (w *Network) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(w.nodes) {
		return nil
	}
	return w.nodes[id]
}

// Nodes returns all nodes (shared slice; callers must not modify).
func (w *Network) Nodes() []*Node { return w.nodes }

// Len returns the number of nodes.
func (w *Network) Len() int { return len(w.nodes) }

// NextUID mints a unique packet UID.
func (w *Network) NextUID() uint64 {
	w.nextUID++
	return w.nextUID
}

// cellOf maps a position to dense-grid cell coordinates, clamping
// positions outside the padded arena to the border cells.
func (w *Network) cellOf(p geom.Point) cellKey {
	cx := int((p.X - w.gridMinX) / w.cellSize)
	cy := int((p.Y - w.gridMinY) / w.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= w.gridCols {
		cx = w.gridCols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= w.gridRows {
		cy = w.gridRows - 1
	}
	return cellKey{cx, cy}
}

// tileAt returns the page holding a cell, nil if never materialized.
func (w *Network) tileAt(c cellKey) *gridTile {
	return w.tiles[(c.cy>>tileShift)*w.tileCols+c.cx>>tileShift]
}

// ensureTile returns the page holding a cell, materializing it on
// first touch (index maintenance only).
func (w *Network) ensureTile(c cellKey) *gridTile {
	ti := (c.cy>>tileShift)*w.tileCols + c.cx>>tileShift
	t := w.tiles[ti]
	if t == nil {
		t = &gridTile{}
		w.tiles[ti] = t
	}
	return t
}

// tileSlot is a cell's bucket index within its page.
func tileSlot(c cellKey) int { return (c.cy&tileMask)<<tileShift | (c.cx & tileMask) }

// truePos returns the node's exact position at the current instant,
// memoized so repeated queries within one event burst advance the
// mobility model once.
func (w *Network) truePos(n *Node) geom.Point {
	return w.truePosAt(n.ID, w.sim.Now())
}

// truePosAt works purely off the compact memo slice: the candidate
// loops of NeighborsPos and refreshTo call it per candidate, and the
// common case — the position was already computed this instant by an
// earlier scan — touches one 24-byte record. Only a miss evaluates the
// mobility model.
func (w *Network) truePosAt(id NodeID, now des.Time) geom.Point {
	e := &w.exact[id]
	if e.at != now {
		e.pos = w.sp[id].mob.TrueFix(float64(now)).Pos
		e.at = now
	}
	return e.pos
}

// safeSpan returns how long the node's bucket stays valid: the time for
// the drift bound to consume the staleness slack.
func (w *Network) safeSpan(sp *spatialState) des.Duration {
	slack := w.slack - sp.driftJump
	if slack <= 0 {
		return 0 // jump exceeds the slack: revalidate at every instant
	}
	if sp.driftSpeed <= 0 {
		return des.Infinity
	}
	return des.Duration(slack / sp.driftSpeed)
}

// indexInsert (re)computes the node's position, bucket, and deadline and
// enters it into the index. The node must currently be outside the index.
func (w *Network) indexInsert(id NodeID) {
	n := w.nodes[id]
	sp := &w.sp[id]
	now := w.sim.Now()
	pos := w.truePos(n)
	sp.anchorPos = pos
	sp.cell = w.cellOf(pos)
	span := w.safeSpan(sp)
	static := span >= des.Infinity
	w.bucketInsert(sp.cell, cellEntry{id: id, x: pos.X, y: pos.Y, static: static})
	if static {
		sp.safeUntil = des.Infinity
		return // never expires (static node): stay out of the heap
	}
	sp.safeUntil = now + span
	w.heapPush(id)
}

// indexRemove takes the node out of its bucket and the refresh heap.
func (w *Network) indexRemove(id NodeID) {
	sp := &w.sp[id]
	w.bucketRemove(sp.cell, id)
	if sp.heapIdx >= 0 {
		w.heapRemove(int(sp.heapIdx))
	}
}

// Buckets are kept in ascending node-ID order. The order is load-
// bearing: neighbor scans enumerate bucket members in storage order,
// and that enumeration order decides broadcast receiver numbering,
// per-receiver loss draws, and greedy-routing tie-breaks. Insertion-
// order buckets would make all of those depend on the history of lazy
// index refreshes; the canonical order makes them a function of the
// node positions alone.

// bucketInsert places an entry at its ID-ordered slot, materializing
// the cell's page on first touch.
func (w *Network) bucketInsert(c cellKey, e cellEntry) {
	t := w.ensureTile(c)
	slot := tileSlot(c)
	b := append(t.buckets[slot], e)
	i := len(b) - 1
	for i > 0 && b[i-1].id > e.id {
		b[i] = b[i-1]
		i--
	}
	b[i] = e
	t.buckets[slot] = b
}

func (w *Network) bucketRemove(c cellKey, id NodeID) {
	t := w.tileAt(c)
	if t == nil {
		return
	}
	slot := tileSlot(c)
	b := t.buckets[slot]
	for i := range b {
		if b[i].id == id {
			t.buckets[slot] = append(b[:i], b[i+1:]...)
			return
		}
	}
}

// bucketRefresh updates the anchor position stored inline for a node
// that revalidated without crossing a cell boundary.
func (w *Network) bucketRefresh(c cellKey, id NodeID, pos geom.Point) {
	t := w.tileAt(c)
	if t == nil {
		return
	}
	b := t.buckets[tileSlot(c)]
	for i := range b {
		if b[i].id == id {
			b[i].x, b[i].y = pos.X, pos.Y
			return
		}
	}
}

// refreshTo revalidates every node whose deadline precedes now, moving
// it between buckets when it crossed a cell boundary. Nodes are popped
// in (deadline, ID) order, so the mobility models advance in a
// deterministic sequence.
func (w *Network) refreshTo(now des.Time) {
	for len(w.refresh) > 0 {
		id := w.refresh[0]
		sp := &w.sp[id]
		if sp.safeUntil >= now {
			return
		}
		pos := w.truePosAt(id, now)
		sp.anchorPos = pos
		if c := w.cellOf(pos); c != sp.cell {
			w.bucketRemove(sp.cell, id)
			sp.cell = c
			w.bucketInsert(c, cellEntry{id: id, x: pos.X, y: pos.Y})
		} else {
			w.bucketRefresh(sp.cell, id, pos)
		}
		sp.safeUntil = now + w.safeSpan(sp)
		w.heapFix(0)
	}
}

// Refresh heap: an index min-heap of node IDs ordered by
// (safeUntil, ID); spatialState.heapIdx tracks positions.

func (w *Network) heapLess(i, j int) bool {
	a, b := w.refresh[i], w.refresh[j]
	sa, sb := w.sp[a].safeUntil, w.sp[b].safeUntil
	if sa != sb {
		return sa < sb
	}
	return a < b
}

func (w *Network) heapSwap(i, j int) {
	w.refresh[i], w.refresh[j] = w.refresh[j], w.refresh[i]
	w.sp[w.refresh[i]].heapIdx = int32(i)
	w.sp[w.refresh[j]].heapIdx = int32(j)
}

func (w *Network) heapPush(id NodeID) {
	w.sp[id].heapIdx = int32(len(w.refresh))
	w.refresh = append(w.refresh, id)
	w.heapUp(len(w.refresh) - 1)
}

func (w *Network) heapRemove(i int) {
	last := len(w.refresh) - 1
	w.sp[w.refresh[i]].heapIdx = -1
	if i != last {
		w.refresh[i] = w.refresh[last]
		w.sp[w.refresh[i]].heapIdx = int32(i)
	}
	w.refresh = w.refresh[:last]
	if i != last {
		w.heapFix(i)
	}
}

func (w *Network) heapFix(i int) {
	w.heapDown(i)
	w.heapUp(i)
}

func (w *Network) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.heapLess(i, parent) {
			return
		}
		w.heapSwap(i, parent)
		i = parent
	}
}

func (w *Network) heapDown(i int) {
	n := len(w.refresh)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && w.heapLess(r, l) {
			c = r
		}
		if !w.heapLess(c, i) {
			return
		}
		w.heapSwap(i, c)
		i = c
	}
}

// Neighbors returns the IDs of live nodes within the sender's radio
// range, excluding the sender itself. The result is freshly allocated;
// hot paths use NeighborsAppend with a reused buffer instead.
func (w *Network) Neighbors(id NodeID) []NodeID {
	return w.NeighborsAppend(id, nil)
}

// NeighborsAppend appends the IDs of live nodes within the sender's
// radio range to out and returns the extended slice. Candidates come
// from buckets within range plus the half-cell staleness slack; each is
// then checked against its exact current position, so results are exact
// despite the index being refreshed lazily.
func (w *Network) NeighborsAppend(id NodeID, out []NodeID) []NodeID {
	out, w.nbrPos = w.NeighborsPos(id, out, w.nbrPos[:0])
	return out
}

// NeighborsPos is NeighborsAppend that additionally appends each
// neighbor's exact current position to pos (parallel to ids). Routing
// hot paths use it to avoid recomputing positions the range check
// already produced.
func (w *Network) NeighborsPos(id NodeID, ids []NodeID, pos []geom.Point) ([]NodeID, []geom.Point) {
	n := w.Node(id)
	if n == nil || !w.hot[id].up {
		return ids, pos
	}
	return w.scanNeighbors(n, ids, pos)
}

// scanBox refreshes the index to the current instant and returns the
// sender's exact position and the cell box its reach covers. A node in
// range r has its anchor position within r+slack of the sender, so the
// box holds every candidate, and a candidate whose anchor lies farther
// than reach2 from the sender cannot be in range.
func (w *Network) scanBox(n *Node) (p geom.Point, reach2 float64, c0, c1 cellKey) {
	now := w.sim.Now()
	w.refreshTo(now)
	p = w.truePosAt(n.ID, now)
	reach := n.Radio.Range + w.slack
	c0 = w.cellOf(geom.Pt(p.X-reach, p.Y-reach))
	c1 = w.cellOf(geom.Pt(p.X+reach, p.Y+reach))
	return p, reach * reach, c0, c1
}

// scanNeighbors runs the grid scan for the sender at the current
// instant, appending the neighbors and their exact positions.
func (w *Network) scanNeighbors(n *Node, ids []NodeID, pos []geom.Point) ([]NodeID, []geom.Point) {
	id, now := n.ID, w.sim.Now()
	p, reach2, c0, c1 := w.scanBox(n)
	r2 := n.pre.Range2
	// Enumeration order is load-bearing (see the bucket-order comment):
	// cells are walked row-major — cy ascending, cx ascending — exactly
	// as the dense grid did, with each row visited tile page by tile
	// page. A nil page skips its whole tileW-cell span of the row.
	tx0, tx1 := c0.cx>>tileShift, c1.cx>>tileShift
	for cy := c0.cy; cy <= c1.cy; cy++ {
		base := (cy >> tileShift) * w.tileCols
		iy := (cy & tileMask) << tileShift
		for tx := tx0; tx <= tx1; tx++ {
			t := w.tiles[base+tx]
			if t == nil {
				continue
			}
			lo, hi := 0, tileMask
			if tx == tx0 {
				lo = c0.cx & tileMask
			}
			if tx == tx1 {
				hi = c1.cx & tileMask
			}
			row := t.buckets[iy+lo : iy+hi+1]
			for _, bucket := range row {
				for i := range bucket {
					e := &bucket[i]
					// The prefilter runs entirely on the bucket's inline
					// anchor copies — no per-node loads for rejected
					// candidates.
					dx, dy := p.X-e.x, p.Y-e.y
					d2 := dx*dx + dy*dy
					if d2 > reach2 || e.id == id {
						continue
					}
					if e.static {
						// Static nodes never drift: the anchor is the
						// exact position.
						if d2 <= r2 {
							ids = append(ids, e.id)
							pos = append(pos, geom.Pt(e.x, e.y))
						}
						continue
					}
					op := w.truePosAt(e.id, now)
					if p.Dist2(op) <= r2 {
						ids = append(ids, e.id)
						pos = append(pos, op)
					}
				}
			}
		}
	}
	return ids, pos
}

// GreedyNext returns the greedy geographic next hop from id toward
// target (GPSR's greedy mode): the live in-range neighbor strictly
// closer to target than the sender, with the smallest squared distance
// to it. Ties go to the neighbor a NeighborsPos scan enumerates first,
// so the result is exactly that of a strict-< pass over NeighborsPos;
// it is NoNode when the sender is down or no neighbor makes progress.
//
// The winner is the minimum of (distance², cell row, cell column, ID),
// so candidates may be visited in any order, and the query visits only
// the ones that can still win. hint (a packet's final destination)
// seeds the search when it passes the scan's own checks. Each row of
// the sender's reach box is then clipped to the cells whose anchors can
// lie within lim = best distance + slack of the target (cellOf is
// monotone and clamps, so the clip is exact at the grid borders too),
// and an entry whose anchor lies beyond lim is skipped before its
// mobility model is evaluated. The 1e-6 m margin absorbs the rounding
// of lim itself.
func (w *Network) GreedyNext(id NodeID, target geom.Point, hint NodeID) NodeID {
	n := w.Node(id)
	if n == nil || !w.hot[id].up {
		return NoNode
	}
	p, reach2, c0, c1 := w.scanBox(n)
	best, bestD2 := NoNode, p.Dist2(target)
	var bestCell cellKey
	if hint != id && w.Node(hint) != nil && w.hot[hint].up {
		// The hint's bucket entry, rebuilt from its spatial state (only
		// static nodes never expire).
		sp := &w.sp[hint]
		c := sp.cell
		e := cellEntry{id: hint, x: sp.anchorPos.X, y: sp.anchorPos.Y, static: sp.safeUntil == des.Infinity}
		if c.cx >= c0.cx && c.cx <= c1.cx && c.cy >= c0.cy && c.cy <= c1.cy {
			if op, ok := w.inReach(n, p, reach2, &e); ok {
				if td := op.Dist2(target); td < bestD2 {
					best, bestD2, bestCell = hint, td, c
				}
			}
		}
	}
	lim := math.Sqrt(bestD2) + w.slack + 1e-6
	lim2 := lim * lim
	t0 := w.cellOf(geom.Pt(target.X-lim, target.Y-lim))
	t1 := w.cellOf(geom.Pt(target.X+lim, target.Y+lim))
	for cy := c0.cy; cy <= min(c1.cy, t1.cy); cy++ {
		if cy < t0.cy {
			continue
		}
		base := (cy >> tileShift) * w.tileCols
		iy := (cy & tileMask) << tileShift
		for cx := max(c0.cx, t0.cx); cx <= min(c1.cx, t1.cx); cx++ {
			t := w.tiles[base+cx>>tileShift]
			if t == nil {
				continue
			}
			bucket := t.buckets[iy|cx&tileMask]
			for i := range bucket {
				e := &bucket[i]
				if dx, dy := target.X-e.x, target.Y-e.y; dx*dx+dy*dy > lim2 || e.id == id {
					continue
				}
				op, ok := w.inReach(n, p, reach2, e)
				if !ok {
					continue
				}
				td := op.Dist2(target)
				c := cellKey{cx, cy}
				if td < bestD2 || td == bestD2 && best != NoNode && scanBefore(c, e.id, bestCell, best) {
					best, bestD2, bestCell = e.id, td, c
					lim = math.Sqrt(bestD2) + w.slack + 1e-6
					lim2 = lim * lim
					t0 = w.cellOf(geom.Pt(target.X-lim, target.Y-lim))
					t1 = w.cellOf(geom.Pt(target.X+lim, target.Y+lim))
				}
			}
		}
	}
	return best
}

// inReach applies scanNeighbors' checks to one bucket entry: the anchor
// prefilter against the sender's reach, then the exact range check. It
// returns the entry's exact position and whether the sender reaches it.
func (w *Network) inReach(n *Node, p geom.Point, reach2 float64, e *cellEntry) (geom.Point, bool) {
	dx, dy := p.X-e.x, p.Y-e.y
	d2 := dx*dx + dy*dy
	if d2 > reach2 {
		return geom.Point{}, false
	}
	if e.static {
		return geom.Pt(e.x, e.y), d2 <= n.pre.Range2
	}
	op := w.truePosAt(e.id, w.sim.Now())
	return op, p.Dist2(op) <= n.pre.Range2
}

// scanBefore reports whether bucket member a of cell ca precedes member
// b of cell cb in a neighbor scan: row-major cells, then ascending IDs.
func scanBefore(ca cellKey, a NodeID, cb cellKey, b NodeID) bool {
	if ca.cy != cb.cy {
		return ca.cy < cb.cy
	}
	if ca.cx != cb.cx {
		return ca.cx < cb.cx
	}
	return a < b
}

// InRange reports whether a's radio currently reaches b and both are up.
func (w *Network) InRange(a, b NodeID) bool {
	na, nb := w.Node(a), w.Node(b)
	if na == nil || nb == nil || !w.hot[a].up || !w.hot[b].up {
		return false
	}
	return na.pre.InRange2(w.truePos(na).Dist2(w.truePos(nb)))
}

// account charges a transmission to the sender and the per-kind
// counters.
func (w *Network) account(n *Node, pkt *Packet) {
	n.TxPackets++
	n.TxBytes += uint64(pkt.Size)
	kc := w.lastKC
	if kc == nil || pkt.Kind != w.lastKind {
		kc = w.kinds[pkt.Kind]
		if kc == nil {
			kc = &kindCounter{}
			w.kinds[pkt.Kind] = kc
		}
		w.lastKind, w.lastKC = pkt.Kind, kc
	}
	kc.tx++
	kc.bytes += uint64(pkt.Size)
	kc.setSender(n.ID)
	if pkt.Control {
		w.ctrlBytes += uint64(pkt.Size)
	} else {
		w.dataBytes += uint64(pkt.Size)
	}
	if pkt.Src != n.ID {
		n.ForwardLoad++
	}
}

// packHop encodes a delivery's (from, to) pair into the scheduler's
// unboxed event word; the packet itself rides in the event's arg slot.
// Together they make a delivery event self-contained — no pooled
// per-hop record, so executing it costs one less dependent cold load.
func packHop(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// runDelivery is the shared ScheduleCallU target for all deliveries
// (installed once as w.deliverFn so events don't allocate closures).
func (w *Network) runDelivery(a any, u uint64) {
	w.deliver(NodeID(uint32(u>>32)), NodeID(uint32(u)), a.(*Packet))
}

// transmission is one pooled multi-receiver broadcast in flight: the
// receivers that survived the loss draw, sorted by delivery key once
// the first one fires, plus the block of schedule sequence numbers
// reserved for them. It is
// the broadcast's one pending event: each execution delivers one
// receiver and re-schedules the record at the next receiver's key.
type transmission struct {
	w    *Network
	from NodeID
	pkt  *Packet
	rx   []receiver // sorted by (at, off) from the first delivery on
	next int        // index of the next receiver to deliver
	seq  uint64     // first sequence number of the reserved block
}

// receiver is one pending delivery of a transmission: its exact
// delivery instant and its offset in the reserved sequence block (its
// rank among the surviving receivers in neighbor order), which
// together form its event key.
type receiver struct {
	at  des.Time
	to  NodeID
	off uint32
}

// runTransmission delivers the record's next receiver at that
// receiver's own (time, sequence) key, having first re-scheduled the
// record at the following receiver's key. Event for event, timestamps,
// sequence numbers, and the executed-event count are identical to
// scheduling every delivery at send time.
func runTransmission(a any) {
	t := a.(*transmission)
	if t.next == 0 {
		sortReceivers(t.rx)
	}
	w, from, pkt := t.w, t.from, t.pkt
	to := t.rx[t.next].to
	t.next++
	if t.next < len(t.rx) {
		r := t.rx[t.next]
		w.sim.ScheduleCallSeq(r.at, t.seq+uint64(r.off), runTransmission, t)
	} else {
		t.pkt = nil
		t.rx = t.rx[:0]
		w.freeTx = append(w.freeTx, t) // recycle before the handler runs
	}
	w.deliver(from, to, pkt)
}

// sortReceivers insertion-sorts a transmission's receivers by delivery
// time. They were appended in offset order and the sort is stable, so
// equal times keep ascending offsets: the result is in (at, off) key
// order. Degrees are small and the compare inlines, which beats a
// generic sort's indirect calls. Broadcast defers the sort to the first
// delivery, so a send costs one pass over its receivers.
func sortReceivers(rx []receiver) {
	for i := 1; i < len(rx); i++ {
		r, j := rx[i], i
		for j > 0 && rx[j-1].at > r.at {
			rx[j] = rx[j-1]
			j--
		}
		rx[j] = r
	}
}

func (w *Network) allocTransmission() *transmission {
	if n := len(w.freeTx); n > 0 {
		t := w.freeTx[n-1]
		w.freeTx = w.freeTx[:n-1]
		return t
	}
	return &transmission{}
}

// Unicast transmits pkt from one node to a one-hop neighbor. It reports
// whether the transmission was attempted (sender up, receiver up, in
// range); a true return still allows in-flight loss per the radio model.
// Delivery is scheduled on the simulator after the radio's hop delay.
func (w *Network) Unicast(from, to NodeID, pkt *Packet) bool {
	src := w.Node(from)
	dst := w.Node(to)
	if src == nil || dst == nil || !w.hot[from].up || !w.hot[to].up {
		return false
	}
	now := w.sim.Now()
	d2 := w.truePosAt(from, now).Dist2(w.truePosAt(to, now))
	if !src.pre.InRange2(d2) {
		return false
	}
	w.account(src, pkt)
	if src.Radio.Lost(&src.rng) {
		w.lost++
		if w.trOn {
			w.tracer.Eventf(trace.Radio, float64(now), "LOST %s %d->%d", pkt.Kind, from, to)
		}
		return true
	}
	if pkt.pooled {
		pkt.refs++
	}
	w.sim.AfterCallU(des.Duration(src.pre.HopDelay2(pkt.Size, d2)), w.deliverFn, pkt, packHop(from, to))
	return true
}

// Broadcast transmits pkt to every current one-hop neighbor of the
// sender with a single channel occupation (wireless broadcast
// advantage): the sender's counters are charged once, each receiver
// draws loss independently. It returns the number of neighbors the
// packet was put on air to.
//
// Loss draws and sequence reservation happen here, in neighbor order:
// the receivers that survive get the same sequence numbers immediate
// scheduling would have consumed. They then wait in one pooled
// transmission record, sorted by delivery key, behind a single pending
// event (runTransmission), so delivery timestamps, tie-break order, and
// the executed-event count are bit-identical to one event per receiver.
func (w *Network) Broadcast(from NodeID, pkt *Packet) int {
	src := w.Node(from)
	if src == nil || !w.hot[from].up {
		return 0
	}
	now := w.sim.Now()
	w.nbrIDs, w.nbrPos = w.scanNeighbors(src, w.nbrIDs[:0], w.nbrPos[:0])
	nbrs := w.nbrIDs
	w.account(src, pkt)
	sp := w.truePos(src)
	t := w.allocTransmission()
	// Size a fresh (or smaller) record once instead of growing it by
	// doubling: records recycle, so this settles at the peak degree.
	t.rx = slices.Grow(t.rx, len(nbrs))
	for i, to := range nbrs {
		if src.Radio.Lost(&src.rng) {
			w.lost++
			continue
		}
		d2 := sp.Dist2(w.nbrPos[i])
		at := now + des.Duration(src.pre.HopDelay2(pkt.Size, d2))
		t.rx = append(t.rx, receiver{at: at, to: to, off: uint32(len(t.rx))})
	}
	n := len(t.rx)
	if n == 0 {
		w.freeTx = append(w.freeTx, t)
		return len(nbrs)
	}
	t.w, t.from, t.pkt, t.next = w, from, pkt, 0
	if pkt.pooled {
		pkt.refs += int32(n) // one reference per eventual delivery
	}
	t.seq = w.sim.ReserveSeqs(n)
	// The first key is the earliest time's lowest offset; runTransmission
	// sorts the rest when it fires there.
	first := 0
	for i := 1; i < n; i++ {
		if t.rx[i].at < t.rx[first].at {
			first = i
		}
	}
	w.sim.ScheduleCallSeq(t.rx[first].at, t.seq+uint64(first), runTransmission, t)
	return len(nbrs)
}

// deliver completes one delivery: receive counters and the handler run,
// then the delivery drops its in-flight packet reference.
func (w *Network) deliver(from, to NodeID, pkt *Packet) {
	e := &w.hot[to]
	if e.up { // may have gone down while the packet was in flight
		pkt.Hops++
		e.rxPkts++
		e.rxBytes += uint64(pkt.Size)
		if e.handler != nil {
			e.handler(e.node, from, pkt)
		}
	}
	if pkt.pooled {
		w.unref(pkt)
	}
}

// AcquirePacket returns a zeroed packet from the network's pool. The
// caller owns one reference: after its last Unicast/Broadcast of the
// packet it must call ReleasePacket, and the network returns the packet
// to the pool once every in-flight delivery has also completed. Receive
// handlers must not retain a pooled packet past their return — Clone
// yields an unpooled copy for that. Best suited to high-volume packets
// whose handlers consume them immediately (beacons, geo envelopes).
func (w *Network) AcquirePacket() *Packet {
	var p *Packet
	if n := len(w.freePkts); n > 0 {
		p = w.freePkts[n-1]
		w.freePkts = w.freePkts[:n-1]
	} else {
		p = &Packet{}
	}
	p.pooled = true
	p.refs = 1
	w.pktCheckedOut++
	return p
}

// PooledInFlight returns how many pooled packets are currently checked
// out of the pool — acquired by a caller or still referenced by
// in-flight deliveries. Once every send has released its reference and
// the simulator has drained, the balance is zero; a positive residue
// after teardown is a leak (a handler retained a pooled packet, or a
// Release call is missing).
func (w *Network) PooledInFlight() int { return w.pktCheckedOut }

// ReleasePacket drops the caller's reference to a packet obtained from
// AcquirePacket. Calling it on nil or unpooled packets is a no-op, so
// call sites need not distinguish.
func (w *Network) ReleasePacket(p *Packet) {
	if p != nil && p.pooled {
		w.unref(p)
	}
}

// RetainPacket adds a reference to a pooled packet, for a holder that
// keeps it alive across scheduling boundaries the network cannot see
// (e.g. a routing envelope carrying it over several hops). Each Retain
// needs a matching ReleasePacket. No-op for nil or unpooled packets.
func (w *Network) RetainPacket(p *Packet) {
	if p != nil && p.pooled {
		p.refs++
	}
}

// AdoptPacket makes a pooled parent keep child alive: child gains a
// reference now and loses it when the parent recycles. An encapsulating
// protocol uses this to pin its payload packet to the envelope's
// lifetime, so every envelope outcome — delivered, dropped, or lost in
// flight — releases the payload without the protocol seeing the loss.
// No-op unless both packets are pooled.
func (w *Network) AdoptPacket(parent, child *Packet) {
	if parent == nil || child == nil || !parent.pooled || !child.pooled {
		return
	}
	child.refs++
	parent.child = child
}

func (w *Network) unref(p *Packet) {
	p.refs--
	if p.refs <= 0 {
		child := p.child
		*p = Packet{}
		w.freePkts = append(w.freePkts, p)
		w.pktCheckedOut--
		if child != nil {
			w.ReleasePacket(child)
		}
	}
}

// Stats is a snapshot of the network's aggregate traffic accounting.
type Stats struct {
	ControlBytes, DataBytes uint64
	Lost                    uint64
	KindTx                  map[string]uint64
	KindBytes               map[string]uint64
}

// Stats returns a copy of the aggregate counters.
func (w *Network) Stats() Stats {
	kt := make(map[string]uint64, len(w.kinds))
	kb := make(map[string]uint64, len(w.kinds))
	for k, c := range w.kinds {
		if c.tx == 0 && c.bytes == 0 {
			continue
		}
		kt[k] = c.tx
		kb[k] = c.bytes
	}
	return Stats{ControlBytes: w.ctrlBytes, DataBytes: w.dataBytes, Lost: w.lost, KindTx: kt, KindBytes: kb}
}

// BytesMatching sums transmitted bytes over packet kinds accepted by
// match; used to isolate one protocol plane's traffic (a geo-routed
// plane appears both under its own kind and under "geo:<kind>").
func (w *Network) BytesMatching(match func(kind string) bool) uint64 {
	var total uint64
	for k, c := range w.kinds {
		if match(k) {
			total += c.bytes
		}
	}
	return total
}

// SendersMatching counts distinct nodes that transmitted any packet of
// a kind accepted by match — the "how many nodes are involved"
// measure of the paper's membership argument.
func (w *Network) SendersMatching(match func(kind string) bool) int {
	var union []uint64
	//hvdb:unordered bitset union is commutative: the appends only zero-extend to the widest sender set and every bit lands via |=
	for k, c := range w.kinds {
		if !match(k) {
			continue
		}
		for len(union) < len(c.senders) {
			union = append(union, 0)
		}
		for i, b := range c.senders {
			union[i] |= b
		}
	}
	total := 0
	for _, b := range union {
		total += bits.OnesCount64(b)
	}
	return total
}

// ResetTraffic zeroes all traffic counters (network-wide and per-node);
// experiments call it at the end of the warm-up phase. Interned kind
// counters are kept and zeroed in place, so the measurement phase does
// not re-allocate them.
func (w *Network) ResetTraffic() {
	w.ctrlBytes, w.dataBytes, w.lost = 0, 0, 0
	for _, c := range w.kinds {
		c.tx, c.bytes = 0, 0
		for i := range c.senders {
			c.senders[i] = 0
		}
	}
	for _, n := range w.nodes {
		n.TxPackets, n.TxBytes, n.ForwardLoad = 0, 0, 0
	}
	for i := range w.hot {
		w.hot[i].rxPkts, w.hot[i].rxBytes = 0, 0
	}
}

// ForwardLoads returns the per-node forwarding load vector (for Jain
// index computation), restricted to live nodes.
func (w *Network) ForwardLoads() []float64 {
	out := make([]float64, 0, len(w.nodes))
	for _, n := range w.nodes {
		if w.hot[n.ID].up {
			out = append(out, float64(n.ForwardLoad))
		}
	}
	return out
}

// String summarizes the network.
func (w *Network) String() string {
	up := 0
	for _, n := range w.nodes {
		if w.hot[n.ID].up {
			up++
		}
	}
	return fmt.Sprintf("network{nodes=%d up=%d arena=%gx%g}", len(w.nodes), up, w.arena.W(), w.arena.H())
}
