// Package membership implements the paper's Figure 5 algorithm:
// summary-based membership update across the three tiers.
//
//	Local-Membership — which groups each mobile node has joined; sent
//	    periodically from each MN to its CH.
//	MNT-Summary — the CH's aggregation over its cluster members; sent
//	    periodically to all the CHs within its logical hypercube
//	    (realized as a scoped flood over intra-hypercube logical links).
//	HT-Summary — each CH's aggregation over the MNT-Summaries of its
//	    hypercube; one *designated* CH per hypercube broadcasts it to all
//	    CHs in the whole network. Designation needs no coordination: each
//	    CH applies the paper's criterion — the largest total number of
//	    group members held by itself and its 1-logical-hop neighbor CHs
//	    — to its own collected summaries and self-selects on a tie-break
//	    by lowest CHID.
//	MT-Summary — each CH's map from group to the set of hypercubes
//	    containing members, consumed by the multicast routing algorithm.
//
// Timeouts follow the paper's observation that "the timeout interval for
// broadcasting HT-Summary messages can be set much more larger than that
// for sending MNT-Summary or Local-Membership messages".
package membership

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/logicalid"
	"repro/internal/network"
	"repro/internal/trace"
	"repro/internal/vcgrid"
)

// Group identifies a multicast group.
type Group int

// Packet kinds of the membership plane.
const (
	LocalKind = "local-membership"
	MNTKind   = "mnt-summary"
	HTKind    = "ht-summary"
)

// Config parameterizes the membership plane.
type Config struct {
	// LocalPeriod is the MN -> CH Local-Membership interval.
	LocalPeriod des.Duration
	// MNTPeriod is the CH -> hypercube MNT-Summary interval.
	MNTPeriod des.Duration
	// HTPeriod is the designated-CH network-wide HT-Summary interval.
	HTPeriod des.Duration
	// LocalTTL expires a member's report at its CH when not refreshed —
	// covering members that move to another cluster or die silently.
	LocalTTL des.Duration
	// Header and GroupEntry size the messages in bytes.
	Header, GroupEntry int
	// Designation selects the HT-broadcaster criterion (§4.2 discusses
	// the alternatives); see the Designate* constants.
	Designation DesignationPolicy
	// MultiHome reports Local-Membership to *every* covering cluster
	// (the paper's §3 overlap: "an MN within the overlapped regions can
	// be a cluster member of two or multiple clusters at the same time
	// for more reliable communications"), at proportionally higher
	// report cost. Off, a node reports only to its home VC's CH.
	MultiHome bool
}

// DesignationPolicy selects which CH self-designates as its hypercube's
// HT-Summary broadcaster.
type DesignationPolicy int

const (
	// DesignateSelfPlusNeighbors is the paper's preferred criterion:
	// the CH whose own plus 1-logical-hop neighbors' total group
	// membership is largest.
	DesignateSelfPlusNeighbors DesignationPolicy = iota
	// DesignateSelf uses only the CH's own membership count (the
	// paper's simpler alternative).
	DesignateSelf
	// DesignateFixed always picks the lowest CHID with a CH — the
	// "always designate the same CH" strawman the paper rejects as a
	// bottleneck/reliability risk.
	DesignateFixed
)

// DefaultConfig uses a 1:2:8 cadence, HT slowest per the paper.
func DefaultConfig() Config {
	return Config{LocalPeriod: 1, MNTPeriod: 2, HTPeriod: 8, LocalTTL: 2.5, Header: 12, GroupEntry: 6}
}

// noOrigin marks an empty lane in the dense per-origin views.
const noOrigin logicalid.CHID = -1

// seqLane is one dense flood-dedup entry: the highest sequence seen
// from the origin occupying the lane. A different origin hashing to the
// same lane (a CH role that moved cube mid-flight, or a designation
// change) evicts the occupant to a spill map, so the pair reproduces
// exact per-origin map semantics at array-index cost on the hot path.
type seqLane struct {
	origin logicalid.CHID
	seq    uint64
}

// seenSeq returns the highest sequence recorded for origin (0 when
// never seen), checking the lane first and the spill map otherwise.
func seenSeq(lanes []seqLane, idx int, origin logicalid.CHID, spill map[logicalid.CHID]uint64) uint64 {
	if l := &lanes[idx]; l.origin == origin {
		return l.seq
	}
	return spill[origin]
}

// recordSeq stores seq for origin in its lane, moving a different
// occupant's entry to the spill map first so no origin's history is
// lost, and dropping origin's own stale spill entry so every origin
// lives in exactly one place across lanes and spill (the same
// invariant setMNT keeps for the MNT views).
func recordSeq(lanes []seqLane, idx int, origin logicalid.CHID, seq uint64, spill *map[logicalid.CHID]uint64) {
	l := &lanes[idx]
	if l.origin != origin {
		if l.origin != noOrigin {
			if *spill == nil {
				*spill = make(map[logicalid.CHID]uint64)
			}
			(*spill)[l.origin] = l.seq
		}
		if *spill != nil {
			delete(*spill, origin)
		}
	}
	l.origin, l.seq = origin, seq
}

// hidSet is a bitset over hypercube IDs — the MT view's "which cubes
// have members" set, stored densely so the per-reception HT merge is a
// couple of word operations instead of nested map traffic.
type hidSet struct {
	bits []uint64
	n    int
}

func newHidSet(numHID int) *hidSet {
	return &hidSet{bits: make([]uint64, (numHID+63)/64)}
}

func (s *hidSet) has(h logicalid.HID) bool {
	i := int(h)
	w := i >> 6
	return w >= 0 && w < len(s.bits) && s.bits[w]&(1<<uint(i&63)) != 0
}

func (s *hidSet) add(h logicalid.HID) {
	if s.has(h) {
		return
	}
	// HIDs are always within the numHID the set was sized for (they
	// come from internal summary payloads); an out-of-range index is a
	// mapping bug and panics.
	i := int(h)
	s.bits[i>>6] |= 1 << uint(i&63)
	s.n++
}

func (s *hidSet) remove(h logicalid.HID) {
	if !s.has(h) {
		return
	}
	i := int(h)
	s.bits[i>>6] &^= 1 << uint(i&63)
	s.n--
}

// hids returns the member HIDs in ascending order.
func (s *hidSet) hids() []logicalid.HID {
	out := make([]logicalid.HID, 0, s.n)
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			out = append(out, logicalid.HID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// slotState is the membership view accumulated at one CH slot. The MNT
// and dedup views are dense lanes indexed by the origin's in-cube label
// (MNT) or hypercube (HT) with spill maps for lane collisions; the MT
// view is a per-group hypercube bitset. All of it is behaviorally
// identical to the map-of-maps layout it replaced — the dense layout
// exists because onMNT/onHT run once per flood reception, which at 10k
// nodes is the simulator's hottest protocol-plane path.
type slotState struct {
	// hid is the slot's own hypercube, fixed by geometry.
	hid logicalid.HID

	// localView: group -> member nodes of this cluster with the time
	// their report was last refreshed (from Local-Membership messages).
	localView map[Group]map[network.NodeID]des.Time

	// mnt: origin label -> that origin's group counts, with mntOrigin
	// guarding each lane; cross-cube leftovers spill to mntSpill. The
	// invariant is that every origin appears exactly once across lanes
	// and spill, so iteration never double-counts.
	mnt       []map[Group]int
	mntOrigin []logicalid.CHID
	mntSpill  map[logicalid.CHID]map[Group]int

	// mtView: group -> hypercubes known to contain members (from
	// HT-Summary broadcasts plus own hypercube).
	mtView map[Group]*hidSet

	// Flood dedup: seenMNT lanes by origin label, seenHT lanes by the
	// origin's hypercube (one designated broadcaster per cube at a
	// time).
	seenMNT      []seqLane
	seenHT       []seqLane
	seenMNTSpill map[logicalid.CHID]uint64
	seenHTSpill  map[logicalid.CHID]uint64
}

func newSlotState(hid logicalid.HID, labels, numHID int) *slotState {
	st := &slotState{
		hid:       hid,
		localView: make(map[Group]map[network.NodeID]des.Time),
		mnt:       make([]map[Group]int, labels),
		mntOrigin: make([]logicalid.CHID, labels),
		mtView:    make(map[Group]*hidSet),
		seenMNT:   make([]seqLane, labels),
		seenHT:    make([]seqLane, numHID),
	}
	for i := range st.mntOrigin {
		st.mntOrigin[i] = noOrigin
	}
	for i := range st.seenMNT {
		st.seenMNT[i].origin = noOrigin
	}
	for i := range st.seenHT {
		st.seenHT[i].origin = noOrigin
	}
	return st
}

// summaryMsg is the wire form of MNT- and HT-Summary floods.
type summaryMsg struct {
	Origin logicalid.CHID
	HID    logicalid.HID
	Seq    uint64
	Groups map[Group]int
}

// localMsg is the wire form of Local-Membership reports.
type localMsg struct {
	Member network.NodeID
	Groups []Group
}

// Service runs the membership plane over a backbone.
type Service struct {
	bb  *core.Backbone
	cfg Config
	tr  trace.Tracer
	// trOn gates the per-merge trace calls: formatting arguments box
	// into an interface slice even when the tracer is Nop, and the MT
	// merge runs once per received summary.
	trOn bool

	// Member-side state is a set of node bitsets: joined[g] holds the
	// nodes that joined group g, so the per-reception member test
	// (Joined) is one word load. Only nodes that have joined a group (or
	// owe one final empty report after leaving their last one) are
	// tracked, and active keeps their IDs sorted ascending so LocalRound
	// visits them in exactly the order the old dense every-node scan
	// did. A bitset costs one bit per node up to the highest member ID,
	// so idle nodes in a mega-world cost next to nothing here.
	joined   []nodeSet        // by Group
	tracked  nodeSet          // the IDs in active
	reported nodeSet          // sent a non-empty report last round
	active   []network.NodeID // sorted tracked IDs
	slots    []*slotState     // by CH slot index (grid.Count() lanes)
	labels   int              // 2^dim, the in-cube label space
	numHID   int              // hypercube count of the mesh tier
	seq      uint64

	// version counts mutations of the summary views trees are computed
	// from (the MNT and MT views); see SummaryVersion.
	version uint64

	tickers []*des.Ticker

	// roundSlots is sortedHeadSlots' reusable scratch; roundVCs holds
	// LocalRound's single home VC per member.
	roundSlots []logicalid.CHID
	roundVCs   []vcgrid.VC

	// HTBroadcasts counts designated-CH broadcasts for overhead
	// experiments.
	HTBroadcasts uint64
}

// New wires a membership service onto the backbone's logical transport.
func New(bb *core.Backbone, cfg Config) *Service {
	if cfg.LocalPeriod <= 0 {
		cfg = DefaultConfig()
	}
	s := &Service{
		bb:     bb,
		cfg:    cfg,
		tr:     trace.Nop,
		slots:  make([]*slotState, bb.Scheme().Grid().Count()),
		labels: 1 << uint(bb.Scheme().Dim()),
		numHID: bb.Scheme().NumHypercubes(),
	}
	bb.HandleInner(LocalKind, s.onLocal)
	bb.HandleInner(MNTKind, s.onMNT)
	bb.HandleInner(HTKind, s.onHT)
	return s
}

// SetTracer installs a tracer; nil resets to no-op.
func (s *Service) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop
	}
	s.tr = t
	s.trOn = t != trace.Nop
}

// nodeSet is a bitset over node IDs, grown on demand.
type nodeSet []uint64

// has reports whether id is in the set; IDs beyond the set's length
// (and NoNode) are not.
func (b nodeSet) has(id network.NodeID) bool {
	w := uint(id) >> 6
	return w < uint(len(b)) && b[w]&(1<<(uint(id)&63)) != 0
}

func (b *nodeSet) add(id network.NodeID) {
	w := int(uint(id) >> 6)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(id) & 63)
}

func (b nodeSet) remove(id network.NodeID) {
	if w := uint(id) >> 6; w < uint(len(b)) {
		b[w] &^= 1 << (uint(id) & 63)
	}
}

// track marks the node as carrying member state, splicing its ID into
// the sorted active list on first touch.
func (s *Service) track(id network.NodeID) {
	if s.tracked.has(id) {
		return
	}
	s.tracked.add(id)
	i, _ := slices.BinarySearch(s.active, id)
	s.active = slices.Insert(s.active, i, id)
}

// Join records that the node joined the group (Figure 5 step 1); the
// change propagates on the next Local-Membership round. Groups are
// small non-negative integers (each one in use costs a bitset over the
// node IDs that joined it); a negative group is a caller bug and
// panics.
func (s *Service) Join(id network.NodeID, g Group) {
	if g < 0 {
		panic("membership: negative group")
	}
	s.track(id)
	for len(s.joined) <= int(g) {
		s.joined = append(s.joined, nil)
	}
	s.joined[g].add(id)
}

// Leave records that the node left the group.
func (s *Service) Leave(id network.NodeID, g Group) {
	if uint(g) < uint(len(s.joined)) {
		s.joined[g].remove(id)
	}
}

// Joined reports whether the node has joined the group. It is the
// member test of every multicast reception, so it neither allocates
// nor probes a map.
func (s *Service) Joined(id network.NodeID, g Group) bool {
	return uint(g) < uint(len(s.joined)) && s.joined[g].has(id)
}

// GroupsOf returns the groups the node has joined, sorted.
func (s *Service) GroupsOf(id network.NodeID) []Group {
	n := 0
	for g := range s.joined {
		if s.joined[g].has(id) {
			n++
		}
	}
	out := make([]Group, 0, n)
	for g := range s.joined {
		if s.joined[g].has(id) {
			out = append(out, Group(g))
		}
	}
	return out
}

// Start schedules the three periodic rounds.
func (s *Service) Start() {
	sim := s.bb.Net().Sim()
	s.tickers = append(s.tickers,
		sim.Every(s.cfg.LocalPeriod, s.cfg.LocalPeriod, s.LocalRound),
		sim.Every(s.cfg.MNTPeriod, s.cfg.MNTPeriod, s.MNTRound),
		sim.Every(s.cfg.HTPeriod, s.cfg.HTPeriod, s.HTRound),
	)
}

// Stop cancels the periodic rounds.
func (s *Service) Stop() {
	for _, t := range s.tickers {
		t.Stop()
	}
	s.tickers = nil
}

func (s *Service) slot(c logicalid.CHID) *slotState {
	st := s.slots[c]
	if st == nil {
		st = newSlotState(s.bb.Scheme().CHIDToPlace(c).HID, s.labels, s.numHID)
		s.slots[c] = st
	}
	return st
}

// SummaryVersion counts mutations of the views multicast trees are
// computed from — the per-cube MNT views (CubeMembers' input) and the
// MT views (MTSummary's input). A tree memoized at one version is
// guaranteed to equal a fresh computation while the version holds,
// which is the membership half of the internal/route cache key.
func (s *Service) SummaryVersion() uint64 { return s.version }

// labelOf returns the dense lane index of an origin slot: its in-cube
// label (unique among the origins of any one hypercube).
func (s *Service) labelOf(origin logicalid.CHID) int {
	return int(s.bb.Scheme().CHIDToPlace(origin).HNID)
}

// mntOf returns origin's group counts in st, or nil when unknown.
func (s *Service) mntOf(st *slotState, origin logicalid.CHID) map[Group]int {
	idx := s.labelOf(origin)
	if st.mntOrigin[idx] == origin {
		return st.mnt[idx]
	}
	return st.mntSpill[origin]
}

// setMNT stores origin's group counts, bumping the summary version when
// the stored view actually changes.
func (s *Service) setMNT(st *slotState, origin logicalid.CHID, groups map[Group]int) {
	idx := s.labelOf(origin)
	switch cur := st.mntOrigin[idx]; cur {
	case origin:
		if !equalGroupCounts(st.mnt[idx], groups) {
			s.version++
		}
		st.mnt[idx] = groups
		return
	case noOrigin:
	default:
		// A different origin occupies the lane: move it to the spill map
		// so its view survives.
		if st.mntSpill == nil {
			st.mntSpill = make(map[logicalid.CHID]map[Group]int)
		}
		st.mntSpill[cur] = st.mnt[idx]
	}
	// Installing origin into the lane; drop any stale spill entry so the
	// lanes+spill iteration sees each origin exactly once.
	delete(st.mntSpill, origin)
	st.mntOrigin[idx], st.mnt[idx] = origin, groups
	s.version++
}

// rangeMNT calls f for every known origin's view (lanes then spill).
// Consumers re-derive order-sensitive outputs by sorting, as before.
func (st *slotState) rangeMNT(f func(origin logicalid.CHID, groups map[Group]int)) {
	for i, origin := range st.mntOrigin {
		if origin != noOrigin {
			f(origin, st.mnt[i])
		}
	}
	for origin, groups := range st.mntSpill {
		f(origin, groups)
	}
}

// equalGroupCounts reports whether two group-count views are identical.
func equalGroupCounts(a, b map[Group]int) bool {
	if len(a) != len(b) {
		return false
	}
	for g, c := range a {
		if b[g] != c {
			return false
		}
	}
	return true
}

// LocalRound is Figure 5 step 2: every member MN reports its
// Local-Membership to its cluster head.
func (s *Service) LocalRound() {
	net := s.bb.Net()
	cm := s.bb.Clusters()
	grid := s.bb.Scheme().Grid()
	// Visit only nodes carrying member state, in ascending ID order —
	// the same nodes, in the same order, the old dense every-node scan
	// reported after its skip filter.
	kept := s.active[:0]
	for _, id := range s.active {
		n := net.Node(id)
		if n == nil || !n.Up() {
			kept = append(kept, id)
			continue
		}
		// A node reports when it has memberships, plus one final empty
		// report right after leaving its last group so the CH forgets it
		// immediately; after that final report its record retires.
		groups := s.GroupsOf(id)
		if len(groups) == 0 && !s.reported.has(id) {
			s.tracked.remove(id)
			continue
		}
		kept = append(kept, id)
		if len(groups) > 0 {
			s.reported.add(id)
		} else {
			s.reported.remove(id)
		}
		pos := n.Fix().Pos
		s.roundVCs = append(s.roundVCs[:0], grid.VCOf(pos))
		vcs := s.roundVCs
		if s.cfg.MultiHome {
			vcs = grid.Covering(pos)
		}
		msg := &localMsg{Member: n.ID, Groups: groups}
		for _, vc := range vcs {
			ch := cm.CHOf(vc)
			if ch == network.NoNode {
				continue
			}
			if ch == n.ID {
				// The CH reports to itself without radio traffic.
				s.absorbLocal(logicalid.CHID(grid.Index(vc)), msg)
				continue
			}
			pkt := net.AcquirePacket()
			pkt.Kind = LocalKind
			pkt.Src, pkt.Dst = n.ID, ch
			pkt.Size, pkt.Control = s.cfg.Header+len(groups)*s.cfg.GroupEntry, true
			pkt.Born, pkt.UID = net.Sim().Now(), net.NextUID()
			pkt.Payload = msg
			s.bb.Geo().Send(n.ID, grid.Center(vc), ch, pkt)
			net.ReleasePacket(pkt)
		}
	}
	s.active = kept
}

func (s *Service) onLocal(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	msg, ok := pkt.Payload.(*localMsg)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return
	}
	s.absorbLocal(slot, msg)
}

func (s *Service) absorbLocal(slot logicalid.CHID, msg *localMsg) {
	st := s.slot(slot)
	now := s.bb.Net().Sim().Now()
	// Replace this member's memberships.
	for g, members := range st.localView {
		delete(members, msg.Member)
		if len(members) == 0 {
			delete(st.localView, g)
		}
	}
	for _, g := range msg.Groups {
		m, ok := st.localView[g]
		if !ok {
			m = make(map[network.NodeID]des.Time)
			st.localView[g] = m
		}
		m[msg.Member] = now
	}
}

// fresh reports whether a member's report is still within LocalTTL.
func (s *Service) fresh(seen des.Time) bool {
	if s.cfg.LocalTTL <= 0 {
		return true
	}
	return s.bb.Net().Sim().Now()-seen <= s.cfg.LocalTTL
}

// MNTSummary returns the CH slot's aggregated cluster membership:
// group -> member count (Figure 5 step 3's message body).
func (s *Service) MNTSummary(slot logicalid.CHID) map[Group]int {
	st := s.slot(slot)
	out := make(map[Group]int, len(st.localView))
	for g, members := range st.localView {
		n := 0
		for _, seen := range members {
			if s.fresh(seen) {
				n++
			}
		}
		if n > 0 {
			out[g] = n
		}
	}
	return out
}

// LocalMembers appends to out the nodes of the slot's cluster known to
// have joined the group — the delivery set of Figure 6 step 6 — in
// ascending ID order, and returns the extended slice (pass nil, or a
// reused scratch truncated to length 0).
func (s *Service) LocalMembers(out []network.NodeID, slot logicalid.CHID, g Group) []network.NodeID {
	mark := len(out)
	for id, seen := range s.slot(slot).localView[g] {
		if s.fresh(seen) {
			out = append(out, id)
		}
	}
	network.SortedIDs(out[mark:])
	return out
}

// MNTRound is Figure 5 step 3: every CH floods its MNT-Summary to all
// CHs within its hypercube.
func (s *Service) MNTRound() {
	scheme := s.bb.Scheme()
	for _, slot := range s.sortedHeadSlots() {
		ch := s.bb.CHNodeOf(slot)
		vc := scheme.Grid().FromIndex(int(slot))
		place := scheme.PlaceOf(vc)
		s.seq++
		msg := &summaryMsg{Origin: slot, HID: place.HID, Seq: s.seq, Groups: s.MNTSummary(slot)}
		// Record our own summary in our own view first.
		st := s.slot(slot)
		s.setMNT(st, slot, msg.Groups)
		recordSeq(st.seenMNT, s.labelOf(slot), slot, msg.Seq, &st.seenMNTSpill)
		s.floodMNT(slot, msg, ch)
	}
}

// sortedHeadSlots returns the CH slots currently heading clusters in
// slot order. Rounds iterate it instead of the Heads map so the
// transmission sequence (and with it every sender's loss-stream draw
// order) is identical across reruns.
func (s *Service) sortedHeadSlots() []logicalid.CHID {
	grid := s.bb.Scheme().Grid()
	s.roundSlots = s.roundSlots[:0]
	for vc := range s.bb.Clusters().Heads() {
		s.roundSlots = append(s.roundSlots, logicalid.CHID(grid.Index(vc)))
	}
	s.roundSlots = network.SortedIDs(s.roundSlots)
	return s.roundSlots
}

// floodMNT forwards an MNT summary to intra-hypercube logical neighbors
// that have not seen it (the sender cannot know, so it sends to all and
// receivers dedup — standard scoped flooding).
func (s *Service) floodMNT(from logicalid.CHID, msg *summaryMsg, ch network.NodeID) {
	scheme := s.bb.Scheme()
	net := s.bb.Net()
	size := s.cfg.Header + len(msg.Groups)*s.cfg.GroupEntry
	for _, nb := range s.bb.LogicalNeighbors(from) {
		if scheme.CHIDToPlace(nb).HID != msg.HID {
			continue // MNT summaries stay within the hypercube
		}
		pkt := net.AcquirePacket()
		pkt.Kind = MNTKind
		pkt.Src, pkt.Dst = ch, s.bb.CHNodeOf(nb)
		pkt.Size, pkt.Control = size, true
		pkt.Born, pkt.UID = net.Sim().Now(), net.NextUID()
		pkt.Payload = msg
		s.bb.SendLogical(from, nb, pkt)
		net.ReleasePacket(pkt)
	}
}

func (s *Service) onMNT(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	msg, ok := pkt.Payload.(*summaryMsg)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return
	}
	st := s.slot(slot)
	idx := s.labelOf(msg.Origin)
	if seenSeq(st.seenMNT, idx, msg.Origin, st.seenMNTSpill) >= msg.Seq {
		return // duplicate
	}
	recordSeq(st.seenMNT, idx, msg.Origin, msg.Seq, &st.seenMNTSpill)
	s.setMNT(st, msg.Origin, msg.Groups)
	s.floodMNT(slot, msg, n.ID) // continue the scoped flood
}

// HTSummary returns the slot's aggregation over its hypercube (Figure 5
// step 4's message body): group -> total member count in the hypercube.
func (s *Service) HTSummary(slot logicalid.CHID) map[Group]int {
	st := s.slot(slot)
	out := make(map[Group]int)
	st.rangeMNT(func(_ logicalid.CHID, groups map[Group]int) {
		for g, c := range groups {
			out[g] += c
		}
	})
	return out
}

// Designated reports whether the slot currently self-selects as its
// hypercube's HT broadcaster: the paper's criterion of the largest
// total membership over itself and its 1-logical-hop neighbor CHs,
// breaking ties by lowest CHID.
func (s *Service) Designated(slot logicalid.CHID) bool {
	scheme := s.bb.Scheme()
	st := s.slot(slot)
	myHID := st.hid
	if s.cfg.Designation == DesignateFixed {
		// Lowest occupied CHID of the hypercube always broadcasts.
		for _, vc := range scheme.BlockVCs(myHID) {
			c := logicalid.CHID(scheme.Grid().Index(vc))
			if s.bb.CHNodeOf(c) != network.NoNode {
				return c == slot
			}
		}
		return false
	}
	score := func(c logicalid.CHID) int {
		total := 0
		for _, cnt := range s.mntOf(st, c) {
			total += cnt
		}
		if s.cfg.Designation == DesignateSelf {
			return total
		}
		for _, nb := range s.bb.LogicalNeighbors(c) {
			if scheme.CHIDToPlace(nb).HID != myHID {
				continue
			}
			for _, cnt := range s.mntOf(st, nb) {
				total += cnt
			}
		}
		return total
	}
	mine := score(slot)
	designated := true
	st.rangeMNT(func(origin logicalid.CHID, _ map[Group]int) {
		if !designated || origin == slot || scheme.CHIDToPlace(origin).HID != myHID {
			return
		}
		if s.bb.CHNodeOf(origin) == network.NoNode {
			return
		}
		other := score(origin)
		if other > mine || (other == mine && origin < slot) {
			designated = false
		}
	})
	return designated
}

// HTRound is Figure 5 step 4: each CH summarizes its MNT view and, if
// designated, broadcasts the HT-Summary to all CHs in the network.
func (s *Service) HTRound() {
	scheme := s.bb.Scheme()
	for _, slot := range s.sortedHeadSlots() {
		ch := s.bb.CHNodeOf(slot)
		vc := scheme.Grid().FromIndex(int(slot))
		place := scheme.PlaceOf(vc)
		// Every CH folds its own hypercube into its MT view (step 5).
		summary := s.HTSummary(slot)
		s.recordMT(slot, place.HID, summary)
		if !s.Designated(slot) {
			continue
		}
		s.HTBroadcasts++
		s.seq++
		msg := &summaryMsg{Origin: slot, HID: place.HID, Seq: s.seq, Groups: summary}
		st := s.slot(slot)
		recordSeq(st.seenHT, int(place.HID), slot, msg.Seq, &st.seenHTSpill)
		s.floodHT(slot, msg, ch)
	}
}

// floodHT forwards an HT summary network-wide over logical links.
func (s *Service) floodHT(from logicalid.CHID, msg *summaryMsg, ch network.NodeID) {
	net := s.bb.Net()
	size := s.cfg.Header + len(msg.Groups)*s.cfg.GroupEntry
	for _, nb := range s.bb.LogicalNeighbors(from) {
		pkt := net.AcquirePacket()
		pkt.Kind = HTKind
		pkt.Src, pkt.Dst = ch, s.bb.CHNodeOf(nb)
		pkt.Size, pkt.Control = size, true
		pkt.Born, pkt.UID = net.Sim().Now(), net.NextUID()
		pkt.Payload = msg
		s.bb.SendLogical(from, nb, pkt)
		net.ReleasePacket(pkt)
	}
}

func (s *Service) onHT(n *network.Node, _ network.NodeID, pkt *network.Packet) {
	msg, ok := pkt.Payload.(*summaryMsg)
	if !ok {
		return
	}
	slot := s.bb.SlotOfNode(n.ID)
	if slot < 0 {
		return
	}
	st := s.slot(slot)
	idx := int(msg.HID)
	if seenSeq(st.seenHT, idx, msg.Origin, st.seenHTSpill) >= msg.Seq {
		return
	}
	recordSeq(st.seenHT, idx, msg.Origin, msg.Seq, &st.seenHTSpill)
	s.recordMT(slot, msg.HID, msg.Groups)
	s.floodHT(slot, msg, n.ID)
}

// recordMT merges an HT summary into a slot's MT view (Figure 5 step 5).
func (s *Service) recordMT(slot logicalid.CHID, hid logicalid.HID, groups map[Group]int) {
	st := s.slot(slot)
	changed := false
	// Clear stale claims of this hypercube first: a group that vanished
	// from hid must not linger in the MT view.
	for g, hids := range st.mtView {
		if hids.has(hid) {
			if _, still := groups[g]; !still {
				hids.remove(hid)
				changed = true
				if hids.n == 0 {
					delete(st.mtView, g)
				}
			}
		}
	}
	for g, cnt := range groups {
		if cnt <= 0 {
			continue
		}
		hids, ok := st.mtView[g]
		if !ok {
			hids = newHidSet(s.numHID)
			st.mtView[g] = hids
		}
		if !hids.has(hid) {
			hids.add(hid)
			changed = true
		}
	}
	if changed {
		s.version++
	}
	if s.trOn {
		s.tr.Eventf(trace.Membership, float64(s.bb.Net().Sim().Now()),
			"slot %d MT view merged summary of hypercube %d (%d groups)", slot, hid, len(groups))
	}
}

// MTSummary returns the hypercubes the slot believes contain members of
// the group — Figure 6's routing input. The map is a copy; tree
// construction uses MTSummaryHIDs instead, whose slot order feeds
// MulticastTree deterministically.
func (s *Service) MTSummary(slot logicalid.CHID, g Group) map[logicalid.HID]bool {
	out := make(map[logicalid.HID]bool)
	if hids := s.slot(slot).mtView[g]; hids != nil {
		for _, h := range hids.hids() {
			out[h] = true
		}
	}
	return out
}

// MTSummaryHIDs returns the same set as MTSummary as a slice in
// ascending HID order — the deterministic destination list handed to
// mesh-tier tree construction (greedy MulticastTree output depends on
// destination order, so order-sensitive consumers must never range the
// map form).
func (s *Service) MTSummaryHIDs(slot logicalid.CHID, g Group) []logicalid.HID {
	hids := s.slot(slot).mtView[g]
	if hids == nil {
		return nil
	}
	return hids.hids()
}

// CubeMembers returns the CH slots within the given slot's hypercube
// that, per this slot's collected MNT-Summaries, host members of the
// group — the destination set of the hypercube-tier multicast tree
// (Figure 6 step 4). The caller's own slot is included when it has
// local members.
func (s *Service) CubeMembers(slot logicalid.CHID, g Group) []logicalid.CHID {
	scheme := s.bb.Scheme()
	st := s.slot(slot)
	myHID := st.hid
	var out []logicalid.CHID
	st.rangeMNT(func(origin logicalid.CHID, groups map[Group]int) {
		if scheme.CHIDToPlace(origin).HID != myHID {
			return
		}
		if groups[g] > 0 {
			out = append(out, origin)
		}
	})
	return network.SortedIDs(out)
}

// GroupsAt returns the groups the slot's MT view knows anywhere in the
// network, sorted; useful for assertions and tooling.
func (s *Service) GroupsAt(slot logicalid.CHID) []Group {
	st := s.slot(slot)
	out := make([]Group, 0, len(st.mtView))
	for g := range st.mtView {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HTGroupsKnown returns how many hypercube slots the MT view of the
// given slot attributes to the group (coverage measure for convergence
// experiments).
func (s *Service) HTGroupsKnown(slot logicalid.CHID, g Group) int {
	hids := s.slot(slot).mtView[g]
	if hids == nil {
		return 0
	}
	return hids.n
}
