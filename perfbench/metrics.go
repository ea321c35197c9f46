package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/georoute"
	"repro/internal/membership"
	"repro/internal/multicast"
	"repro/internal/scenario"
)

// minSetups is how many Build+Start set-ups a run times at least;
// setup_s is their median.
const minSetups = 5

// perWorld reduces rounds to one value per world: the median over the
// world's repetitions of f.
func perWorld(rounds [][]*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(rounds[0]))
	for j := range out {
		xs := make([]float64, len(rounds))
		for i, rd := range rounds {
			xs[i] = f(rd[j])
		}
		out[j] = median(xs)
	}
	return out
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureEndToEnd plays untraced rounds for the budget (at least two,
// so every world is repeated) and reports the end-to-end metrics.
// Host-side figures are each world's median over its repetitions,
// averaged over the worlds; protocol figures come from the simulated
// outcomes, which repeat exactly.
func measureEndToEnd(wl workload, seed uint64, budget time.Duration) (*result, error) {
	res := &result{workload: wl.name, seed: seed}
	rounds, err := repeat(wl, seed, nil, 2, time.Now().Add(budget), nil, res)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for _, rd := range rounds {
		for _, r := range rd {
			setups = append(setups, r.setup)
		}
	}
	// Set-up is short next to a repetition, so it is timed again on its
	// own until there are minSetups samples and a twentieth of the
	// budget has gone into them.
	extra := time.Now().Add(budget / 20)
	for j := 0; len(setups) < minSetups || time.Now().Before(extra); j++ {
		s, err := setupOnly(wl, worldSeed(seed, j%wl.worlds))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	note := fmt.Sprintf("mean over %d worlds of the median of %d", wl.worlds, len(rounds))
	res.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d", len(setups)))
	res.add("run_s", "s", mean(perWorld(rounds, func(r *rep) float64 { return r.run })), note)
	res.add("cpu_s", "s", mean(perWorld(rounds, func(r *rep) float64 { return r.cpu })), note)
	res.add("heap_bytes_per_node", "B",
		mean(perWorld(rounds, func(r *rep) float64 { return float64(r.heap) / float64(r.nodes) })), note)
	res.add("peak_heap_bytes_per_node", "B",
		mean(perWorld(rounds, func(r *rep) float64 { return float64(r.peak) / float64(r.nodes) })), note)

	o := res.sum
	res.add("pdr", "ratio", ratio(float64(o.delivered), float64(o.expected)), fmt.Sprintf("%d/%d", o.delivered, o.expected))
	for _, p := range []struct {
		name string
		q    float64
		get  func(*outcome) float64
	}{
		{"delay_p50_ms", 50, func(o *outcome) float64 { return o.p50 }},
		{"delay_p95_ms", 95, func(o *outcome) float64 { return o.p95 }},
	} {
		var vs []float64
		for _, r := range rounds[0] {
			if float64(r.out.delivered)*(100-p.q)/100 < minBeyond {
				return nil, fmt.Errorf("%s: a world with %d deliveries leaves fewer than %d beyond p%g",
					p.name, r.out.delivered, minBeyond, p.q)
			}
			vs = append(vs, 1000*p.get(&r.out))
		}
		res.add(p.name, "ms", mean(vs), fmt.Sprintf("mean over %d worlds; n=%d", wl.worlds, o.delivered))
	}
	var ctrl []float64
	for _, r := range rounds[0] {
		ctrl = append(ctrl, r.out.ctrlPerNodeS)
	}
	res.add("ctrl_bytes_per_node_s", "B/node/s", mean(ctrl), fmt.Sprintf("mean over %d worlds", wl.worlds))
	return res, nil
}

// setupOnly times one more Build+Protocol+Start, for the setup_s
// median of workloads whose repetitions are few.
func setupOnly(wl workload, seed uint64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := scenario.Build(wl.spec(seed))
	if err != nil {
		return 0, err
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		return 0, err
	}
	stk.Start()
	return time.Since(t0).Seconds(), nil
}

// measureLayers spends the first half of the budget on untraced rounds
// (the overhead baseline) and the rest on traced ones, and reports the
// per-layer metrics. Every traced repetition must reproduce the
// untraced fingerprint of its world exactly. Counts are summed over the
// run's worlds; per-call timings are pooled over every traced
// repetition; self times are per round.
func measureLayers(wl workload, seed uint64, budget time.Duration, out string) (*result, error) {
	res := &result{workload: wl.name, seed: seed}
	start := time.Now()
	base, err := repeat(wl, seed, nil, 1, start.Add(budget/2), nil, res)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := repeat(wl, seed, tr, 1, start.Add(budget), base[0], res)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", wl.name, seed))
	if err := tr.write(stem + ".spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".cpu.pprof", traced[0][0].profile, 0o644); err != nil {
		return nil, err
	}

	var sendUS, openUS, nbrUS, routeUS []float64
	self := map[string]float64{}
	var total float64
	for _, rd := range traced {
		for _, r := range rd {
			sendUS = append(sendUS, r.sendUS...)
			openUS = append(openUS, r.openUS...)
			nbrUS = append(nbrUS, r.nbrUS...)
			routeUS = append(routeUS, r.routeUS...)
			f, t, err := fold(r.profile)
			if err != nil {
				return nil, err
			}
			for l, ms := range f {
				self[l] += ms / float64(len(traced))
			}
			total += t / float64(len(traced))
		}
	}
	baseRun := sum(perWorld(base, func(r *rep) float64 { return r.run }))
	tracedRun := sum(perWorld(traced, func(r *rep) float64 { return r.run }))

	// Deterministic counters, summed over the worlds of one round.
	var tot rep
	for _, r := range traced[0] {
		tot.pendingPeak = max(tot.pendingPeak, r.pendingPeak)
		tot.geoDropped += r.geoDropped
		tot.summaryChg += r.summaryChg
		tot.elections += r.elections
		tot.clusterChg += r.clusterChg
		tot.beacons += r.beacons
		tot.mc.Sent += r.mc.Sent
		tot.mc.Delivered += r.mc.Delivered
		tot.cacheLen += r.cacheLen
		tot.inflight += r.inflight
	}
	// Allocation figures come from the untraced round: the tracer
	// allocates inside the run window.
	for _, r := range base[0] {
		tot.mallocs += r.mallocs
		tot.allocBytes += r.allocBytes
		tot.gcCycles += r.gcCycles
	}
	o, kt := res.sum, res.sum.kindTx
	var tx, geoHops uint64
	for k, c := range kt {
		tx += c
		if strings.HasPrefix(k, georoute.KindPrefix) {
			geoHops += c
		}
	}

	count := func(name string, v uint64) { res.add(name, "count", float64(v), "") }
	var pctErr error
	pct := func(name string, xs []float64, p float64) {
		v, ok := percentile(xs, p)
		if !ok && len(xs) > 0 && pctErr == nil {
			pctErr = fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(xs), minBeyond, p)
		}
		note := fmt.Sprintf("n=%d", len(xs))
		if len(xs) == 0 {
			note += " (not exercised by this workload)"
		}
		res.add(name, "us", v, note)
	}
	selfMS := func(layer string) {
		res.add(layer+".self_ms", "ms", self[layer], fmt.Sprintf("%.1f%% of profile", 100*ratio(self[layer], total)))
	}

	count("des.events", o.events)
	res.add("des.events_per_s", "1/s", float64(o.events)/baseRun, "over untraced run_s")
	count("des.pending_peak", uint64(tot.pendingPeak))
	selfMS("des")

	count("network.tx", tx)
	res.add("network.ctrl_bytes", "B", float64(o.ctrlBytes), "")
	res.add("network.data_bytes", "B", float64(o.dataBytes), "")
	count("network.lost", o.lost)
	count("network.pooled_in_flight", uint64(tot.inflight))
	pct("network.nbr_query_us_p50", nbrUS, 50)
	pct("network.nbr_query_us_p99", nbrUS, 99)
	selfMS("network")

	count("georoute.hops", geoHops)
	count("georoute.dropped", tot.geoDropped)
	selfMS("georoute")

	count("membership.tx_mnt", kindTx(kt, membership.MNTKind))
	count("membership.tx_ht", kindTx(kt, membership.HTKind))
	count("membership.tx_local", kindTx(kt, membership.LocalKind))
	count("membership.summary_changes", tot.summaryChg)
	selfMS("membership")

	mcData := kindTx(kt, multicast.DataKind) + kindTx(kt, multicast.SourceKind)
	mcLocal := kindTx(kt, multicast.LocalKind)
	count("multicast.sent", tot.mc.Sent)
	count("multicast.delivered", tot.mc.Delivered)
	count("multicast.tx_data", mcData)
	count("multicast.tx_local", mcLocal)
	res.add("multicast.tx_per_delivery", "ratio", ratio(float64(mcData+mcLocal), float64(tot.mc.Delivered)), "")
	pct("multicast.send_us_p50", sendUS, 50)
	count("route.cache_entries", uint64(tot.cacheLen))
	selfMS("multicast")
	selfMS("route")

	count("cluster.elections", tot.elections)
	count("cluster.changes", tot.clusterChg)
	count("core.beacons", tot.beacons)
	pct("core.best_route_us_p50", routeUS, 50)
	count("qos.opens", o.qosOpens)
	count("qos.admitted", o.qosAdm)
	count("qos.rejected", o.qosRej)
	res.add("qos.admit_ratio", "ratio", ratio(float64(o.qosAdm), float64(o.qosOpens)), "")
	pct("qos.open_us_p50", openUS, 50)
	pct("qos.open_us_p99", openUS, 99)
	selfMS("cluster")
	selfMS("core")
	selfMS("qos")

	selfMS("mobility")
	selfMS("scenario")

	res.add("runtime.allocs_per_event", "count", ratio(float64(tot.mallocs), float64(o.events)), "untraced")
	res.add("runtime.alloc_bytes_per_event", "B", ratio(float64(tot.allocBytes), float64(o.events)), "untraced")
	count("runtime.gc_cycles", uint64(tot.gcCycles))
	selfMS("runtime")
	selfMS("other")

	res.add("trace.overhead_pct", "%", 100*(tracedRun/baseRun-1),
		fmt.Sprintf("traced run_s %.3f vs untraced %.3f", tracedRun, baseRun))
	res.add("trace.coverage_pct", "%", 100*ratio(total-self["other"], total),
		fmt.Sprintf("of %.0f profiled ms per round", total))
	if pctErr != nil {
		return nil, pctErr
	}
	return res, nil
}
