// Package des implements the discrete-event simulation kernel that every
// experiment in this repository runs on. It provides a virtual clock, an
// O(1)-amortized ladder-queue future event list with a free-list of
// recycled event records (so steady-state scheduling allocates nothing),
// periodic timers, and cancellation handles.
//
// The kernel is deliberately single-threaded: MANET protocol simulations
// are causality-chained (a reception schedules the next transmission), so
// the standard structure is one goroutine per *run* and many runs in
// parallel, which the experiment harness arranges. Keeping the kernel
// lock-free makes a run deterministic for a given seed.
//
// # Hot-path design
//
// The future event list is a ladder queue (calendar-queue hybrid) rather
// than a single heap, because at 10k-node scale the pending set holds
// 10^5+ events and every push/pop of a monolithic heap walks log E cold
// cache lines. The ladder splits events by distance from the clock:
//
//   - The imminent tier holds only the bucket currently being drained:
//     a sorted run popped by advancing a head index, plus a small 4-ary
//     side heap for events scheduled after the bucket started draining
//     (the causality chains of the current instant). Pops are
//     sequential reads over cache-resident entries instead of
//     log-depth sifts over the whole pending set.
//   - The near tier is an array of numBuckets FIFO buckets of width
//     s.width seconds each. Scheduling into the near horizon is a plain
//     append; a bucket is sorted once, when the clock reaches it (one
//     sequential pass when its appends arrived in timestamp order, as
//     same-instant protocol rounds do). The width follows the
//     hop-delay quantum of the workload (see SetGrain; the network
//     layer feeds it the radio processing-delay floor) and re-adapts
//     to the observed per-bucket occupancy on every epoch roll.
//   - The far tier is one unsorted overflow slice for events beyond the
//     near horizon. When the near tier drains, the epoch rolls: the
//     ladder re-bases at the earliest pending timestamp and the far
//     tier is re-laddered into fresh buckets.
//   - A 4-ary heap remains as the sparse fallback tier for events
//     beyond farEpochs near-spans (long timeouts, Infinity sentinels),
//     so pathological far-future events cannot bloat the re-ladder
//     scans.
//
// The tiers preserve the exact total order a single heap would produce —
// timestamp, then schedule sequence number — so runs are reproducible
// and byte-identical to the former monolithic-heap kernel
// (TestLadderMatchesHeapOrder cross-checks 100k mixed ops).
//
// Two further choices keep the constant factors down:
//
//   - Event records are pooled. Executing (or popping a cancelled)
//     event returns its record to a free list; Schedule reuses it.
//     Handles carry a generation counter so a handle to a recycled
//     record is inert. Cancellation tombstones the record; the queue
//     reclaims it on pop, so no tier needs deletion surgery.
//   - ScheduleCall carries a (func(any), arg) pair instead of a
//     closure, letting high-volume callers (the network layer
//     schedules its packet transmissions this way) avoid a closure
//     allocation per event. ReserveSeqs and ScheduleCallSeq let a
//     caller keep several events behind one pending entry (the
//     network's broadcast transmissions re-schedule one record from
//     receiver to receiver) while each event keeps its original place
//     in the total order.
package des

import (
	"fmt"
	"math"
	"time"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration = Time

// Infinity is a time later than any event the simulator will execute.
const Infinity Time = Time(math.MaxFloat64)

// FromReal converts a wall-clock duration to simulated seconds. It exists
// so scenario code can be written with time.Second-style literals.
func FromReal(d time.Duration) Duration { return Duration(d.Seconds()) }

// event is one scheduled callback. Exactly one of fn or afn is set; afn
// runs with arg (the ScheduleCall form). Records are pooled: gen
// increments on every recycle so stale Handles cannot touch a reused
// record. A cancelled event is tombstoned (dead) and its record
// reclaimed when the queue pops it; keys live in the tier entries, so
// cancellation needs no queue surgery.
type event struct {
	fn   func()
	afn  func(any)
	ufn  func(any, uint64)
	arg  any
	u    uint64
	gen  uint32
	dead bool
}

// entry is one future-event-list slot. The ordering keys (at, seq) are
// stored by value so tier comparisons never chase the event pointer.
// Events at equal times run in the order their sequence numbers were
// assigned (FIFO tie-break via seq), which keeps runs reproducible.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and refers to no event.
type Handle struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from running. Cancelling an
// already-executed, already-cancelled, or zero handle is a no-op.
// Cancel reports whether the event was still pending.
func (h Handle) Cancel() bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.dead {
		return false
	}
	ev.dead = true
	return true
}

// Pending reports whether the event has neither run nor been cancelled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.dead
}

// Ladder geometry. numBuckets near-tier buckets of defaultWidth seconds
// each cover roughly one second of simulated time at the default width;
// the far tier absorbs everything up to farEpochs near-spans ahead, and
// the sparse heap the rest. Width adapts between minWidth and maxWidth
// (see roll) so both microsecond-scale delivery storms and sparse
// timer-only phases keep bucket occupancy near occupancyTarget.
const (
	numBuckets      = 1024
	farEpochs       = 8
	defaultWidth    = 1e-3
	minWidth        = 1e-7
	maxWidth        = 0.25
	occupancyTarget = 64

	// burstCap is the bucket capacity above which a drained array is
	// pooled in spares rather than parked at its slot; maxSpares bounds
	// the pool (a handful of concurrent burst arrays covers the
	// overlapping protocol rounds seen in practice).
	burstCap  = 4096
	maxSpares = 4
)

// Simulator owns the virtual clock and the future event list.
type Simulator struct {
	now      Time
	free     []*event
	seq      uint64
	executed uint64
	stopped  bool
	horizon  Time

	// Ladder state. Entries with bucket index <= cur live in the
	// imminent tier (cb/side); buckets cur+1..numBuckets-1 hold the
	// rest of the near tier; far holds [nearEnd, farLimit); spill
	// holds >= farLimit.
	width    float64
	base     Time
	nearEnd  Time
	farLimit Time
	cur      int
	buckets  [][]entry
	cb       []entry // imminent tier: the current bucket, sorted; drained by cbHead
	cbHead   int
	side     []entry // late imminent inserts: 4-ary min-heap by (at, seq)
	far      []entry // unsorted overflow, re-laddered on epoch roll
	farTmp   []entry // roll's reusable partition scratch
	spill    []entry // sparse fallback tier: 4-ary min-heap by (at, seq)
	count    int     // pending entries across all tiers

	// spares recycles burst-bucket arrays. A protocol round dumps a
	// 10^5-entry burst into whichever bucket covers its delivery
	// instant, and that bucket index moves every epoch — left to plain
	// append, each burst re-grows a cold slice from scratch (this was
	// ~80% of all allocation at the 10k scale point). Drained buckets
	// with burst-scale capacity park here instead of in their slot, and
	// insert's grow path reuses them. Pure memory management: entries,
	// order, and counts are untouched.
	spares [][]entry

	grain  float64 // width hint from SetGrain, applied at the next roll
	placed uint64  // near-tier placements this epoch (occupancy feedback)
}

// New returns an empty simulator with the clock at zero and no horizon.
func New() *Simulator {
	s := &Simulator{horizon: Infinity, width: defaultWidth}
	s.buckets = make([][]entry, numBuckets)
	s.rebase(0)
	return s
}

// rebase points bucket 0 at time t with the current width.
func (s *Simulator) rebase(t Time) {
	s.base = t
	s.nearEnd = t + Time(float64(numBuckets)*s.width)
	s.farLimit = t + Time(float64(numBuckets)*s.width*farEpochs)
	s.cur = 0
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events executed so far; useful both in
// tests and as a cheap progress measure.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of entries currently scheduled, including
// cancelled events the queue has not reclaimed yet. A multi-event batch
// kept behind one entry that re-schedules itself (see ReserveSeqs)
// counts as one.
func (s *Simulator) Pending() int { return s.count }

// SetHorizon caps the run: events scheduled after t never execute. A run
// ends when the queue drains or the next event lies past the horizon.
func (s *Simulator) SetHorizon(t Time) { s.horizon = t }

// SetGrain hints the scheduler's bucket width: the finest delay quantum
// the workload schedules at high volume (the network layer passes the
// radio tier's per-hop processing-delay floor, radio.Precomp.
// DelayQuantum). The hint applies immediately while the queue is empty
// and at the next epoch roll otherwise; occupancy feedback keeps
// adapting from there. A non-positive grain is ignored.
func (s *Simulator) SetGrain(d Duration) {
	if d <= 0 {
		return
	}
	g := math.Min(math.Max(float64(d), minWidth), maxWidth)
	if s.count == 0 {
		// Empty queue: apply now, re-anchoring the window at the clock
		// (the old base may lie far in the past after a long drain, and
		// a window behind the clock would shunt every insert to the
		// far/spill tiers until the first roll).
		s.width = g
		s.rebase(s.now)
		return
	}
	s.grain = g
}

// alloc takes an event record from the pool (or allocates one).
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a record to the pool, invalidating outstanding handles.
func (s *Simulator) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.afn, ev.ufn, ev.arg, ev.u = nil, nil, nil, nil, 0
	ev.dead = false
	s.free = append(s.free, ev)
}

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// that is always a protocol bug, and failing loudly during development is
// preferable to silent causality violations.
func (s *Simulator) Schedule(at Time, fn func()) Handle {
	ev := s.push(at)
	ev.fn = fn
	return Handle{ev, ev.gen}
}

// ScheduleCall runs fn(arg) at absolute time at. It is Schedule for
// hot paths: a caller that reuses one fn and threads per-event state
// through arg schedules without allocating a closure.
func (s *Simulator) ScheduleCall(at Time, fn func(any), arg any) Handle {
	ev := s.push(at)
	ev.afn = fn
	ev.arg = arg
	return Handle{ev, ev.gen}
}

// ScheduleCallU is ScheduleCall with an extra unboxed word: fn runs as
// fn(arg, u). The delivery fan-out threads (from, to) through u and the
// packet through arg, which removes the pooled per-hop record — and
// with it one dependent cold load per executed event — that a single
// arg pointer would otherwise require.
func (s *Simulator) ScheduleCallU(at Time, fn func(any, uint64), arg any, u uint64) Handle {
	ev := s.push(at)
	ev.ufn = fn
	ev.arg = arg
	ev.u = u
	return Handle{ev, ev.gen}
}

// After runs fn after the given delay from the current time.
func (s *Simulator) After(d Duration, fn func()) Handle {
	return s.Schedule(s.now+d, fn)
}

// AfterCall runs fn(arg) after the given delay from the current time.
func (s *Simulator) AfterCall(d Duration, fn func(any), arg any) Handle {
	return s.ScheduleCall(s.now+d, fn, arg)
}

// AfterCallU runs fn(arg, u) after the given delay from the current
// time (see ScheduleCallU).
func (s *Simulator) AfterCallU(d Duration, fn func(any, uint64), arg any, u uint64) Handle {
	return s.ScheduleCallU(s.now+d, fn, arg, u)
}

// ReserveSeqs reserves a contiguous block of n schedule sequence numbers
// and returns the first. A caller that fans one physical event into n
// logical ones (the network's multi-receiver broadcast transmissions)
// reserves the block at send time and schedules the events later via
// ScheduleCallSeq; because the total order is (timestamp, sequence), the
// late events still execute exactly where immediate scheduling would
// have put them.
func (s *Simulator) ReserveSeqs(n int) uint64 {
	first := s.seq
	s.seq += uint64(n)
	return first
}

// ScheduleCallSeq schedules fn(arg) at absolute time at with an explicit
// sequence number previously obtained from ReserveSeqs. The caller must
// guarantee that (at, seq) is still in the future of the execution
// order, i.e. at >= Now() and no event ordered after (at, seq) has
// executed yet; reserving at send time and scheduling the batch's keys
// one at a time in ascending order satisfies this by construction.
func (s *Simulator) ScheduleCallSeq(at Time, seq uint64, fn func(any), arg any) Handle {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	ev.afn = fn
	ev.arg = arg
	s.insert(entry{at: at, seq: seq, ev: ev})
	return Handle{ev, ev.gen}
}

// ScheduleCallSeqU is ScheduleCallSeq for the unboxed-word form of
// ScheduleCallU, under the same (at, seq) contract.
func (s *Simulator) ScheduleCallSeqU(at Time, seq uint64, fn func(any, uint64), arg any, u uint64) Handle {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	ev.ufn = fn
	ev.arg = arg
	ev.u = u
	s.insert(entry{at: at, seq: seq, ev: ev})
	return Handle{ev, ev.gen}
}

// push allocates a record for time at, assigns the next sequence number,
// and inserts the entry into the ladder.
func (s *Simulator) push(at Time) *event {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	s.insert(entry{at: at, seq: s.seq, ev: ev})
	s.seq++
	return ev
}

// less orders entries by (at, seq).
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// insert places an entry in its tier. Bucket assignment is a monotone
// function of the timestamp (floor((at-base)/width) computed with one
// shared expression), so an entry in a lower-indexed bucket never has a
// later timestamp than one in a higher-indexed bucket — the property
// that lets buckets drain strictly in index order.
func (s *Simulator) insert(e entry) {
	s.count++
	switch {
	case e.at >= s.farLimit:
		s.spill = heapPush(s.spill, e)
	case e.at >= s.nearEnd:
		s.far = append(s.far, e)
	default:
		idx := int(float64(e.at-s.base) / s.width)
		if idx >= numBuckets {
			idx = numBuckets - 1 // float boundary rounding
		}
		s.placed++
		if idx <= s.cur {
			// The clock already reached this bucket: the entry joins the
			// imminent side heap directly (e.at >= now keeps order
			// intact). The side heap holds only events scheduled after
			// their bucket started draining: the causality chains of
			// the current instant, and one re-scheduled record per
			// broadcast in flight (the network keeps each
			// transmission's receivers behind a single event), so it
			// scales with transmissions, not receivers.
			s.side = heapPush(s.side, e)
		} else {
			b := s.buckets[idx]
			if len(b) == cap(b) && len(b) >= burstCap/2 {
				// Burst growth: move to a pooled burst array instead of
				// letting append allocate another one.
				b = s.burstGrow(b)
			}
			s.buckets[idx] = append(b, e)
		}
	}
}

// burstGrow moves a full bucket into a pooled burst array when one
// with enough headroom is available; otherwise the caller's append
// grows it normally (and the grown array will be pooled when drained).
func (s *Simulator) burstGrow(b []entry) []entry {
	for i := len(s.spares) - 1; i >= 0; i-- {
		sp := s.spares[i]
		if cap(sp) >= 2*len(b) {
			s.spares = append(s.spares[:i], s.spares[i+1:]...)
			sp = sp[:len(b)]
			copy(sp, b)
			return sp
		}
	}
	return b
}

// front returns the entry with the minimal (at, seq) key without
// removing it, advancing buckets and rolling epochs as needed. It
// returns nil when no events are pending.
//
// The imminent tier is a sorted run (cb, drained by cbHead) plus the
// side heap of late inserts; the minimum is whichever head is smaller.
// Draining a sorted run means burst buckets — a beacon round schedules
// tens of thousands of same-timestamp events — pop by sequential reads
// instead of log-depth heap swaps.
func (s *Simulator) front() *entry {
	for {
		hasCB := s.cbHead < len(s.cb)
		if len(s.side) > 0 {
			if !hasCB || s.side[0].less(s.cb[s.cbHead]) {
				return &s.side[0]
			}
			return &s.cb[s.cbHead]
		}
		if hasCB {
			return &s.cb[s.cbHead]
		}
		if s.cur+1 < numBuckets {
			s.cur++
			if b := s.buckets[s.cur]; len(b) > 0 {
				// The bucket's clock has come: swap it into the imminent
				// run (the drained run's array parks in the bucket slot
				// for the next epoch — no copy, and grown capacity
				// stays in circulation) and sort it once. Appends arrive
				// in sequence order, so a bucket whose timestamps happen
				// to be monotone — same-instant protocol rounds, steady
				// streams — is already sorted and the check is one
				// sequential pass.
				if cap(s.cb) >= burstCap && len(s.spares) < maxSpares {
					// Burst-scale capacity follows the bursts through the
					// spare pool instead of idling at one slot.
					s.spares = append(s.spares, s.cb[:0])
					s.buckets[s.cur] = nil
				} else {
					s.buckets[s.cur] = s.cb[:0]
				}
				s.cb = b
				s.cbHead = 0
				if !sortedEntries(s.cb) {
					sortEntries(s.cb)
				}
			}
			continue
		}
		if len(s.far) == 0 && len(s.spill) == 0 {
			return nil
		}
		s.roll()
	}
}

// sortedEntries reports whether the run is already in (at, seq) order.
func sortedEntries(h []entry) bool {
	for i := 1; i < len(h); i++ {
		if h[i].less(h[i-1]) {
			return false
		}
	}
	return true
}

// roll starts a new epoch: re-base the ladder at the earliest pending
// timestamp, adapt the bucket width to the occupancy observed last
// epoch (and any pending SetGrain hint), and re-ladder the far tier —
// plus any sparse-tier events the new far limit now covers — into the
// fresh buckets.
func (s *Simulator) roll() {
	earliest := Infinity
	for _, e := range s.far {
		if e.at < earliest {
			earliest = e.at
		}
	}
	if len(s.spill) > 0 && s.spill[0].at < earliest {
		earliest = s.spill[0].at
	}

	// Width feedback: halve when buckets ran hot, double when the epoch
	// was sparse. placed counts near-tier placements since the last
	// roll, so the measure tracks what the buckets actually absorbed.
	// The dead band between the two thresholds is wide (64x) on
	// purpose: protocol workloads alternate bursty and quiet epochs,
	// and a twitchy width re-ratchets every bucket's capacity — the
	// slices' amortized growth is only amortized if the per-bucket
	// occupancy stays put.
	if s.grain > 0 {
		s.width = s.grain
		s.grain = 0
	} else if occ := float64(s.placed) / numBuckets; occ > 4*occupancyTarget {
		s.width = math.Max(s.width/2, minWidth)
	} else if occ < occupancyTarget/16 {
		s.width = math.Min(s.width*2, maxWidth)
	}
	s.placed = 0

	s.rebase(earliest)
	if !(s.nearEnd > earliest) {
		// Degenerate re-base: the bucket window cannot advance past
		// earliest — Infinity sentinels, or float granularity at huge
		// timestamps where earliest+span rounds back to earliest. Move
		// the entries at exactly that timestamp straight into the side
		// heap (which orders them by sequence) so front() can serve
		// them; later timestamps, if any, wait for the next roll.
		kept := s.far[:0]
		for _, e := range s.far {
			if e.at == earliest {
				s.side = heapPush(s.side, e)
			} else {
				kept = append(kept, e)
			}
		}
		s.far = kept
		for len(s.spill) > 0 && s.spill[0].at == earliest {
			var e entry
			s.spill, e = heapPop(s.spill)
			s.side = heapPush(s.side, e)
		}
		return
	}
	// Re-ladder the far tier through the shared insert path; partition
	// into the reusable scratch first so appends cannot alias the slice
	// being scanned.
	moved := s.farTmp[:0]
	kept := s.far[:0]
	for _, e := range s.far {
		if e.at < s.nearEnd {
			moved = append(moved, e)
		} else {
			kept = append(kept, e)
		}
	}
	s.farTmp = moved
	s.far = kept
	for _, e := range moved {
		s.count--
		s.insert(e)
	}
	for len(s.spill) > 0 && s.spill[0].at < s.farLimit {
		var e entry
		s.spill, e = heapPop(s.spill)
		s.count--
		s.insert(e)
	}
}

// sortEntries sorts a run by (at, seq) with direct field comparisons
// (a quicksort/insertion hybrid; the generic comparator-closure sorts
// showed up in burst-bucket profiles). Keys are unique (seq is), so
// stability is irrelevant.
func sortEntries(h []entry) {
	for len(h) > 24 {
		// Median-of-three pivot to the front, then Hoare partition.
		m := len(h) / 2
		last := len(h) - 1
		if h[m].less(h[0]) {
			h[m], h[0] = h[0], h[m]
		}
		if h[last].less(h[0]) {
			h[last], h[0] = h[0], h[last]
		}
		if h[last].less(h[m]) {
			h[last], h[m] = h[m], h[last]
		}
		pivot := h[m]
		i, j := 0, last
		for {
			for h[i].less(pivot) {
				i++
			}
			for pivot.less(h[j]) {
				j--
			}
			if i >= j {
				break
			}
			h[i], h[j] = h[j], h[i]
			i++
			j--
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < len(h)-j-1 {
			sortEntries(h[:j+1])
			h = h[j+1:]
		} else {
			sortEntries(h[j+1:])
			h = h[:j+1]
		}
	}
	for i := 1; i < len(h); i++ {
		e := h[i]
		j := i - 1
		for j >= 0 && e.less(h[j]) {
			h[j+1] = h[j]
			j--
		}
		h[j+1] = e
	}
}

// 4-ary min-heap of entries ordered by (at, seq), shared by the
// imminent side tier and the sparse tier. The wide fan-out halves the
// depth of a binary layout and the value entries keep sift loops in
// cache.

func heapPush(h []entry, e entry) []entry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []entry) ([]entry, entry) {
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = entry{}
	h = h[:last]
	if last > 0 {
		heapDown(h, 0)
	}
	return h, root
}

func heapDown(h []entry, i int) {
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		c := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if h[j].less(h[c]) {
				c = j
			}
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Every runs fn at the given period, starting after an initial offset
// (use offset 0 to fire immediately relative to now+period jitter control
// in the caller). The returned Ticker can be stopped.
func (s *Simulator) Every(offset, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("des: non-positive ticker period")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.fireFn = t.fire // bound once; rescheduling reuses it allocation-free
	t.handle = s.After(offset, t.fireFn)
	return t
}

// Ticker is a periodic event created by Every. Each firing reuses the
// ticker's bound callback and a pooled event record, so a long-lived
// ticker costs no allocation per period.
type Ticker struct {
	sim     *Simulator
	period  Duration
	fn      func()
	fireFn  func()
	handle  Handle
	stopped bool
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped us
		t.handle = t.sim.After(t.period, t.fireFn)
	}
}

// Stop cancels future firings. It is idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.handle.Cancel()
}

// Stop halts the run after the current event returns.
func (s *Simulator) Stop() { s.stopped = true }

// popKnown removes the entry f, which must be the pointer front just
// returned (either the side-heap root or the run head). Splitting peek
// and pop this way lets the execution loop evaluate the two-head
// minimum once per event instead of twice.
func (s *Simulator) popKnown(f *entry) {
	s.count--
	if len(s.side) > 0 && f == &s.side[0] {
		s.side, _ = heapPop(s.side)
		return
	}
	s.cbHead++
}

// runEvent recycles and runs a live entry's event at its timestamp.
func (s *Simulator) runEvent(at Time, ev *event) {
	s.now = at
	fn, afn, ufn, arg, u := ev.fn, ev.afn, ev.ufn, ev.arg, ev.u
	s.recycle(ev)
	s.executed++
	switch {
	case ufn != nil:
		ufn(arg, u)
	case fn != nil:
		fn()
	default:
		afn(arg)
	}
}

// Step executes the single next event, discarding cancelled entries it
// meets on the way. It reports false when the queue is empty, the
// simulator was stopped, or the next event is past the horizon.
func (s *Simulator) Step() bool {
	for {
		f := s.front()
		if f == nil || s.stopped || f.at > s.horizon {
			return false
		}
		at, ev := f.at, f.ev
		s.popKnown(f)
		if ev.dead {
			s.recycle(ev)
			continue
		}
		s.runEvent(at, ev)
		return true
	}
}

// Run executes events until the queue drains, Stop is called, or the
// horizon is reached. It returns the final simulated time.
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	if s.horizon < Infinity && s.now < s.horizon && !s.stopped {
		// Queue drained early; advance the clock to the horizon so that
		// rate metrics (events/second) are computed over the full window.
		s.now = s.horizon
	}
	return s.now
}

// RunUntil executes events with timestamps <= t and then sets the clock
// to exactly t. It is the building block for phased experiments
// (warm-up, measure, tear-down).
func (s *Simulator) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("des: RunUntil(%v) before now %v", t, s.now))
	}
	for !s.stopped {
		f := s.front()
		if f == nil || f.at > t || f.at > s.horizon {
			break
		}
		at, ev := f.at, f.ev
		s.popKnown(f)
		if ev.dead {
			s.recycle(ev)
			continue
		}
		s.runEvent(at, ev)
	}
	if t <= s.horizon && !s.stopped {
		s.now = t
	}
}
