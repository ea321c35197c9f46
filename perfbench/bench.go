package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/georoute"
	"repro/internal/logicalid"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// probeSeedSalt seeds the traced run's BestRoute probe pairs.
const probeSeedSalt = 0x3f1e8b5a7c2d9064

// routeProbes is how many (from, to) slot pairs BestRoute is timed on
// at each probe barrier.
const routeProbes = 200

// rep is the measurement of one repetition: build, start, warm up,
// play the script, drain.
type rep struct {
	setup, run, cpu float64 // seconds
	nodes           int
	heap, peak      uint64 // bytes over the pre-build live heap

	out outcome // deterministic; repeats exactly for one seed

	pendingPeak int
	geoDropped  uint64
	summaryChg  uint64
	elections   uint64
	clusterChg  uint64
	beacons     uint64
	mc          protocol.Stats
	cacheLen    int
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	inflight    int

	// Per-call durations (traced runs only), and the CPU profile of the
	// run window.
	sendUS, openUS, nbrUS, routeUS []float64
	profile                        []byte
}

// outcome is everything a repetition's simulation decided. Its
// fingerprint must be identical across repetitions of one seed, traced
// or not.
type outcome struct {
	events                     uint64
	sent, expected, delivered  int
	stale                      int
	delayDigest                uint64
	p50, p95, ctrlPerNodeS     float64
	kindTx                     map[string]uint64
	ctrlBytes, dataBytes, lost uint64
	qosOpens, qosAdm, qosRej   uint64
}

func (o *outcome) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "events=%d sent=%d expected=%d delivered=%d stale=%d delay=%#x p50=%v p95=%v ctrl=%v bytes=%d/%d lost=%d qos=%d/%d/%d",
		o.events, o.sent, o.expected, o.delivered, o.stale, o.delayDigest, o.p50, o.p95, o.ctrlPerNodeS,
		o.ctrlBytes, o.dataBytes, o.lost, o.qosOpens, o.qosAdm, o.qosRej)
	kinds := make([]string, 0, len(o.kindTx))
	for k := range o.kindTx {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, " %s=%d", k, o.kindTx[k])
	}
	return h.Sum64()
}

// add accumulates x's counts into a run-wide total. Only the counts
// are summed; per-world statistics (percentiles, rates) stay with their
// world.
func (o *outcome) add(x *outcome) {
	o.events += x.events
	o.sent += x.sent
	o.expected += x.expected
	o.delivered += x.delivered
	o.stale += x.stale
	if o.kindTx == nil {
		o.kindTx = map[string]uint64{}
	}
	for k, c := range x.kindTx {
		o.kindTx[k] += c
	}
	o.ctrlBytes += x.ctrlBytes
	o.dataBytes += x.dataBytes
	o.lost += x.lost
	o.qosOpens += x.qosOpens
	o.qosAdm += x.qosAdm
	o.qosRej += x.qosRej
}

// sameOutcome is the repeat check: a repetition must reproduce the
// first one's fingerprint exactly.
func sameOutcome(first, got *outcome) error {
	if a, b := first.fingerprint(), got.fingerprint(); a != b {
		return fmt.Errorf("fingerprint %#x differs from the first repetition's %#x (events %d vs %d, delivered %d vs %d)",
			b, a, got.events, first.events, got.delivered, first.delivered)
	}
	return nil
}

// check returns the invariant violations of one repetition.
func (r *rep) check(res *scenario.ScriptResult) []string {
	var bad []string
	if res.AudienceOpen != 0 {
		bad = append(bad, fmt.Sprintf("%d audience entries open at teardown", res.AudienceOpen))
	}
	if res.DelaySamples != res.Delivered {
		bad = append(bad, fmt.Sprintf("delay histogram holds %d samples for %d deliveries", res.DelaySamples, res.Delivered))
	}
	if r.inflight != 0 {
		bad = append(bad, fmt.Sprintf("%d pooled packets in flight after the drain", r.inflight))
	}
	if res.Sent == 0 || res.Expected == 0 || res.Delivered > res.Expected {
		bad = append(bad, fmt.Sprintf("implausible counts: sent %d expected %d delivered %d", res.Sent, res.Expected, res.Delivered))
	}
	return bad
}

// timedStack times every Send the script engine makes.
type timedStack struct {
	protocol.Stack
	tr *tracer
}

func (s *timedStack) Send(src network.NodeID, g protocol.Group, size int) uint64 {
	sp := s.tr.begin("multicast.Send")
	uid := s.Stack.Send(src, g, size)
	s.tr.sendUS = append(s.tr.sendUS, us(s.tr.end(sp)))
	return uid
}

// samplePeriod is the simulated interval between samples. Heap usage
// saws between GC cycles, so the peak needs samples well inside one
// cycle; the probes run at every probeEvery-th sample.
const (
	samplePeriod des.Duration = 0.25
	probeEvery                = 4
)

// sampler observes the world at fixed simulated barriers: peak heap and
// pending events always, the direct-call probes (once per simulated
// second) in traced runs.
type sampler struct {
	w       *scenario.World
	tr      *tracer
	rng     *xrand.Rand
	peak    uint64
	pending int
	ticks   uint64
	ids     []network.NodeID
	pos     []geom.Point
	slots   int
}

func (s *sampler) tick() {
	s.ticks++
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	if p := s.w.Sim.Pending(); p > s.pending {
		s.pending = p
	}
	if s.tr != nil && s.ticks%probeEvery == 0 {
		s.probe()
	}
}

// probe times NeighborsPos over every live node and BestRoute over
// random slot pairs. Neither changes what the simulation does (BestRoute
// may only materialize an empty route table); the traced run's
// fingerprint check proves it.
func (s *sampler) probe() {
	sp := s.tr.begin("network.NeighborsPos")
	for _, n := range s.w.Net.Nodes() {
		if !n.Up() {
			continue
		}
		t0 := time.Now()
		s.ids, s.pos = s.w.Net.NeighborsPos(n.ID, s.ids[:0], s.pos[:0])
		s.tr.nbrUS = append(s.tr.nbrUS, us(time.Since(t0)))
	}
	s.tr.end(sp)
	sp = s.tr.begin("core.BestRoute")
	for i := 0; i < routeProbes; i++ {
		from := logicalid.CHID(s.rng.Intn(s.slots))
		to := logicalid.CHID(s.rng.Intn(s.slots))
		t0 := time.Now()
		s.w.BB.BestRoute(from, to, 0, 0)
		s.tr.routeUS = append(s.tr.routeUS, us(time.Since(t0)))
	}
	s.tr.end(sp)
}

// runRep builds the workload's world for seed and plays it once. With
// a tracer it also records spans, runs the probes and profiles the run
// window.
func runRep(wl workload, seed uint64, tr *tracer) (*rep, []string, error) {
	r := &rep{}
	runtime.GC()
	base := heapAlloc()

	top := tr.begin("rep")
	t0 := time.Now()
	sp := tr.begin("scenario.Build")
	w, err := scenario.Build(wl.spec(seed))
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("scenario.Protocol")
	stk, err := w.Protocol("hvdb")
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("protocol.Start")
	stk.Start()
	tr.end(sp)
	r.setup = time.Since(t0).Seconds()
	r.nodes = w.Net.Len()

	smp := &sampler{w: w, tr: tr, peak: base, slots: w.Grid.Count(),
		rng: xrand.New(runner.DeriveSeed(seed^probeSeedSalt, 0))}
	var script protocol.Stack = stk
	if tr != nil {
		script = &timedStack{Stack: stk, tr: tr}
	}
	var client *qosClient
	if wl.qos != nil {
		client = &qosClient{load: wl.qos, qm: stk.(protocol.QoSCapable).QoS(), pool: w.Ordinary,
			groups: len(w.Members), tr: tr, rng: xrand.New(runner.DeriveSeed(seed^qosSeedSalt, 0))}
	}
	ev0, geo0 := w.Sim.Executed(), w.BB.Geo().Dropped()
	ver0, el0, ch0, bc0 := w.MS.SummaryVersion(), w.CM.Elections(), w.CM.Changes(), w.BB.Beacons()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof *cpuProfile
	if tr != nil {
		if prof, err = startProfile(); err != nil {
			return nil, nil, err
		}
	}

	cpu0 := cpuSeconds()
	t1 := time.Now()
	sampling := w.Sim.Every(samplePeriod, samplePeriod, smp.tick)
	sp = tr.begin("scenario.WarmUp")
	w.WarmUp(wl.warm)
	tr.end(sp)
	var clientTick *des.Ticker
	if client != nil {
		clientTick = w.Sim.Every(wl.qos.period, wl.qos.period, client.tick)
	}
	sp = tr.begin("scenario.RunScript")
	res, err := w.RunScript(script, wl.script())
	tr.end(sp)
	r.run = time.Since(t1).Seconds()
	r.cpu = cpuSeconds() - cpu0

	if prof != nil {
		r.profile = prof.stop()
	}
	tr.end(top)
	if err != nil {
		return nil, nil, err
	}
	sampling.Stop()
	if clientTick != nil {
		clientTick.Stop()
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	r.heap = heapAlloc() - base
	r.peak = smp.peak - base
	r.pendingPeak = smp.pending

	st := w.Net.Stats()
	r.mc = stk.Stats() // a fresh stack: its counters cover the run window
	r.out = outcome{
		events: w.Sim.Executed() - ev0 - smp.ticks,
		sent:   res.Sent, expected: res.Expected, delivered: res.Delivered, stale: res.Stale,
		delayDigest: res.DelayDigest, p50: res.P50Delay, p95: res.P95Delay, ctrlPerNodeS: res.CtrlPerNodeS,
		kindTx: st.KindTx, ctrlBytes: st.ControlBytes, dataBytes: st.DataBytes, lost: st.Lost,
		qosAdm: r.mc.QoSAdmitted, qosRej: r.mc.QoSRejected,
	}
	if client != nil {
		r.out.qosOpens = client.opens
	}
	r.geoDropped = w.BB.Geo().Dropped() - geo0
	r.summaryChg = w.MS.SummaryVersion() - ver0
	r.elections, r.clusterChg, r.beacons = w.CM.Elections()-el0, w.CM.Changes()-ch0, w.BB.Beacons()-bc0
	r.cacheLen = w.BB.Trees().Len()
	r.mallocs, r.allocBytes, r.gcCycles = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	if tr != nil {
		r.sendUS, r.openUS, r.nbrUS, r.routeUS = tr.sendUS, tr.openUS, tr.nbrUS, tr.routeUS
		tr.sendUS, tr.openUS, tr.nbrUS, tr.routeUS = nil, nil, nil, nil
	}

	// Teardown, outside every timed window: stop the planes, drain the
	// in-flight deliveries and stopped tickers, then every straggler.
	stk.Stop()
	w.RunUntil(w.Sim.Now() + 5)
	w.Sim.Run()
	r.inflight = w.Net.PooledInFlight()
	return r, r.check(res), nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// kindTx counts the transmissions of one packet kind, whether sent
// directly or carried hop by hop inside geo-routed envelopes.
func kindTx(kt map[string]uint64, kind string) uint64 {
	return kt[kind] + kt[georoute.KindPrefix+kind]
}
