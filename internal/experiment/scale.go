package experiment

// The Scale family measures how far the simulator itself scales: the
// paper evaluates 200-600 node worlds, and the hot-path work in
// internal/des and internal/network (pooled event heap, incremental
// spatial index, interned accounting) exists precisely to open
// 10,000-node scenarios. The "scale" experiment reports the
// deterministic protocol-side metrics per population; ScaleBench wraps
// the same worlds with wall-clock and allocation measurement for the
// BENCH_scale.json baseline emitted by `hvdbbench -json`.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// scaleConfig is one population of the scale sweep. Arena side grows
// with the node count so spatial density stays near the paper's running
// example (200 nodes on 2000 m); sides are multiples of one hypercube
// block (4 VCs) so the logical decomposition stays regular.
type scaleConfig struct {
	nodes int
	arena float64
	// cell overrides the VC tile side; 0 keeps the spec default (250 m).
	// The mega worlds widen cells so the anchor backbone stays near the
	// 56x56 grid of the 10k point instead of growing quadratically.
	cell float64
}

// DefaultMaxNodes caps the scale sweep at the largest population the
// standard CI environment is provisioned for. The 1M point runs only
// when a caller raises Options.MaxNodes (the nightly job's -maxnodes
// knob).
const DefaultMaxNodes = 100000

// scaleConfigs returns the sweep: the paper's population up to the 10k
// target at full scale plus the mega-scale points up to o.MaxNodes, two
// miniature worlds at quick scale. Node counts ascend, so the MaxNodes
// cut always drops a suffix and every surviving config keeps its sweep
// index — and with it its positional seed.
func scaleConfigs(o Options) []scaleConfig {
	if o.Scale < 1 {
		return []scaleConfig{{nodes: 100, arena: 1500}, {nodes: 250, arena: 2250}}
	}
	all := []scaleConfig{
		{nodes: 200, arena: 2000},
		{nodes: 1000, arena: 4000},
		{nodes: 5000, arena: 10000},
		{nodes: 10000, arena: 14000},
		// Mega worlds: constant ~51 nodes/km^2 density, constant 56x56
		// VC backbone via wider cells (arena = 56 cells exactly).
		{nodes: 50000, arena: 31360, cell: 560},
		{nodes: 100000, arena: 44240, cell: 790},
		{nodes: 1000000, arena: 140000, cell: 2500},
	}
	max := o.MaxNodes
	if max <= 0 {
		max = DefaultMaxNodes
	}
	n := len(all)
	for n > 0 && all[n-1].nodes > max {
		n--
	}
	return all[:n]
}

// scaleSpec builds the scenario of one sweep point: anchored CHs,
// default waypoint mobility, one group of 20 members (10 in the
// miniature worlds) drawn from the mobile population.
func scaleSpec(seed uint64, c scaleConfig) scenario.Spec {
	spec := scenario.DefaultSpec()
	spec.Seed = seed
	spec.Nodes = c.nodes
	spec.ArenaSize = c.arena
	spec.Groups = 1
	spec.MembersPerGroup = 20
	if c.nodes < 200 {
		spec.MembersPerGroup = 10
	}
	if c.cell > 0 {
		spec.CellSize = c.cell
	}
	return spec
}

// Scale timing: warm the protocol stack (the membership planes need
// their MNT/HT rounds to converge before delivery is meaningful), then
// a CBR phase, then drain.
const (
	scaleWarmBase  des.Duration = 15
	scaleDrainBase des.Duration = 5
	// scaleRefArena is the 10k row's arena side: the largest world whose
	// geo paths fit the base warmup/drain windows. Every paper-faithful
	// population sits at or below it and keeps the recorded timing
	// exactly.
	scaleRefArena              = 14000.0
	scalePackets               = 10
	scalePayload               = 512
	scaleGap      des.Duration = 0.5
)

// scaleTiming returns one sweep point's warmup and drain windows.
// Geo-routed path length grows with arena diameter, so the mega worlds
// (arena > scaleRefArena) scale both windows linearly with arena side,
// rounded up to whole simulated seconds — otherwise deliveries outlive
// the observation window and the recorded PDR measures the cutoff, not
// the protocol (the pre-PR-10 mega rows sagged to 71.5% at N=100k for
// exactly that reason). Rows at or below the reference arena keep the
// base 15 s + 5 s bit-exactly, so their recorded tables never move.
func scaleTiming(c scaleConfig) (warm, drain des.Duration) {
	warm, drain = scaleWarmBase, scaleDrainBase
	if c.arena > scaleRefArena {
		f := c.arena / scaleRefArena
		warm = des.Duration(math.Ceil(float64(scaleWarmBase) * f))
		drain = des.Duration(math.Ceil(float64(scaleDrainBase) * f))
	}
	return warm, drain
}

// scaleResult carries the deterministic outcomes of one scale world.
type scaleResult struct {
	total    int // nodes including anchors
	clusters int
	events   uint64
	m        *runMetrics
	ctrlPNS  float64 // control bytes/node/second over the whole run
	simEnd   des.Time
}

// runScaleWorld drives one population end to end. Everything it returns
// is a pure function of (seed, config) — independent of sample, which
// only changes how often the host observes the run — so the sweep
// parallelizes with byte-identical tables at any worker count, sampled
// or not.
//
// A non-nil sample is invoked at ~1-simulated-second barriers (the
// kernel contract makes chunked RunUntil event-identical to a single
// call); benchScalePoint uses it to track peak heap.
func runScaleWorld(seed uint64, c scaleConfig, sample func()) scaleResult {
	w := must(scenario.Build(scaleSpec(seed, c)))
	stk := must(w.Protocol("hvdb"))
	stk.Start()
	warm, drain := scaleTiming(c)
	runSampled(w, warm, sample) // no traffic reset: ctrlPNS covers the whole run
	m := newRunMetrics(w.Sim)
	stk.Deliveries(m.observe)
	src := w.RandomSource()
	g := membership.Group(0)
	w.CBR(func() uint64 {
		uid := stk.Send(src, g, scalePayload)
		m.expect(uid, len(w.Members[g]))
		return uid
	}, scaleGap, scalePackets)
	runSampled(w, w.Sim.Now()+scaleGap*des.Duration(scalePackets)+drain, sample)
	stk.Stop()
	return scaleResult{
		total:    w.Net.Len(),
		clusters: len(w.CM.Heads()),
		events:   w.Sim.Executed(),
		m:        m,
		ctrlPNS:  controlPerNodeSecond(w, w.Sim.Now()),
		simEnd:   w.Sim.Now(),
	}
}

// runSampled advances the world to deadline, in ~1-simulated-second
// chunks when a sampler is installed so the host can observe memory at
// quiet barriers. The chunking itself is invisible to the simulation:
// RunUntil(a); RunUntil(b) executes the identical event sequence as
// RunUntil(b).
func runSampled(w *scenario.World, deadline des.Time, sample func()) {
	if sample == nil {
		w.RunUntil(deadline)
		return
	}
	const step = des.Duration(1)
	for t := w.Sim.Now() + step; t < deadline; t += step {
		w.RunUntil(t)
		sample()
	}
	w.RunUntil(deadline)
	sample()
}

// Scale regenerates the scale table: protocol behavior as the world
// grows from the paper's population to 10,000 nodes.
func Scale(o Options) []*Table {
	configs := scaleConfigs(o)
	rows := parSweep(o, configs, func(r runner.Run, c scaleConfig) []string {
		res := runScaleWorld(r.Seed, c, nil)
		return []string{
			I(c.nodes), I(res.total), I(int(c.arena)), I(res.clusters),
			U(res.events), Pct(res.m.pdr()),
			F(res.m.delays.Mean() * 1000), F(res.ctrlPNS),
		}
	})
	t := &Table{
		ID:    "scale",
		Title: "simulator scale sweep: 10 CBR multicast packets per population",
		Columns: []string{
			"mobile", "total", "arena_m", "clusters",
			"events", "pdr", "delay_ms", "ctrl_B/node/s",
		},
	}
	addRows(t, rows)
	t.Note("arena grows with population (constant density ~%d nodes/km^2); events = kernel events over %gs simulated at arenas <= %gm, warmup/drain scaling with arena side beyond it", 50, float64(scaleWarmBase)+float64(scalePackets)*float64(scaleGap)+float64(scaleDrainBase), scaleRefArena)
	t.Note("wall-clock and allocation figures for the same worlds come from `hvdbbench -json` (BENCH_scale.json)")
	return []*Table{t}
}

// ScalePoint is one measured entry of the scale benchmark: the
// deterministic world outcomes plus the host-side performance of
// simulating it (these vary by machine and are therefore not part of
// the experiment's table contract). GoMaxProcs records the host
// configuration the point was measured under; Events is a pure function
// of the world, and the perf-smoke gate checks it exactly.
type ScalePoint struct {
	Nodes          int     `json:"nodes"`
	TotalNodes     int     `json:"total_nodes"`
	ArenaM         float64 `json:"arena_m"`
	GoMaxProcs     int     `json:"go_max_procs"`
	SimSeconds     float64 `json:"sim_seconds"`
	Events         uint64  `json:"events"`
	DeliveryRatio  float64 `json:"delivery_ratio"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// PeakHeapBytes is the highest live-heap growth over the pre-run
	// baseline observed at ~1-simulated-second barriers (and at the end
	// of the run); BytesPerNode divides it by the total node count. Both
	// are host-side figures like WallSeconds, outside the table contract.
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	BytesPerNode  float64 `json:"bytes_per_node"`
}

// ScaleBench runs the scale sweep serially (one world at a time, so
// wall-clock and allocation deltas are attributable) and returns the
// per-population performance baseline, one point per population.
func ScaleBench(o Options) []ScalePoint {
	var out []ScalePoint
	for i, c := range scaleConfigs(normalizeScaleOpts(o)) {
		out = append(out, benchScalePoint(o, i, c))
	}
	return out
}

// ScaleBenchN runs the single sweep point with the given mobile-node
// population — the CI perf-smoke gate measures the N=1000 and N=5000
// worlds. The point's seed is derived from its position in the full sweep, so
// the measured world is identical to that row of ScaleBench (and to the
// committed BENCH_scale.json entry).
func ScaleBenchN(o Options, nodes int) (ScalePoint, error) {
	for i, c := range scaleConfigs(normalizeScaleOpts(o)) {
		if c.nodes == nodes {
			return benchScalePoint(o, i, c), nil
		}
	}
	return ScalePoint{}, fmt.Errorf("experiment: no scale sweep point with %d nodes", nodes)
}

func normalizeScaleOpts(o Options) Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// benchScalePoint measures one sweep point: deterministic world
// outcomes plus wall-clock and allocation deltas around the run.
func benchScalePoint(o Options, i int, c scaleConfig) ScalePoint {
	o = normalizeScaleOpts(o)
	seed := runner.DeriveSeed(o.Seed, i)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := m0.HeapAlloc
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	start := time.Now() //hvdb:wallclock benchmark timing around a finished run; wall/events-per-second never feeds simulation state or the deterministic table columns
	res := runScaleWorld(seed, c, sample)
	wall := time.Since(start).Seconds() //hvdb:wallclock benchmark timing, pairs with the start stamp above
	runtime.ReadMemStats(&m1)
	p := ScalePoint{
		Nodes:         c.nodes,
		TotalNodes:    res.total,
		ArenaM:        c.arena,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		SimSeconds:    float64(res.simEnd),
		Events:        res.events,
		DeliveryRatio: res.m.pdr(),
		WallSeconds:   wall,
	}
	if wall > 0 {
		p.EventsPerSec = float64(res.events) / wall
	}
	if res.events > 0 {
		p.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(res.events)
		p.BytesPerEvent = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.events)
	}
	p.PeakHeapBytes = peak - m0.HeapAlloc
	if res.total > 0 {
		p.BytesPerNode = float64(p.PeakHeapBytes) / float64(res.total)
	}
	return p
}
