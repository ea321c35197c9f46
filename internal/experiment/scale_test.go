package experiment

import (
	"testing"

	"repro/internal/membership"
	"repro/internal/scenario"
)

// TestScaleSmoke is the acceptance gate of the 10k-node tentpole: a
// 10,000-mobile-node world (plus its 3,136 anchor CHs) runs the full
// protocol stack with CBR multicast traffic for 60 simulated seconds
// and completes. Before the incremental spatial index and the pooled
// event kernel, this configuration did not finish within a CI budget at
// all; the test existing and passing is the regression fence.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-node world skipped with -short")
	}
	cfg := scaleConfig{nodes: 10000, arena: 14000}
	w, err := scenario.Build(scaleSpec(1, cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.WarmUp(15)
	m := newRunMetrics(w.Sim)
	w.MC.OnDeliver(m.observe)
	src := w.RandomSource()
	g := membership.Group(0)
	w.CBR(func() uint64 {
		uid := w.MC.Send(src, g, 512)
		m.expect(uid, len(w.Members[g]))
		return uid
	}, 1.0, 30)
	w.Sim.RunUntil(60)
	w.Stop()

	if got := w.Net.Len(); got < 13000 {
		t.Fatalf("world has %d nodes, want >= 13000", got)
	}
	if w.Sim.Now() < 60 {
		t.Fatalf("run stopped at t=%v, want 60 simulated seconds", w.Sim.Now())
	}
	if w.Sim.Executed() == 0 {
		t.Fatal("no events executed")
	}
	if len(w.CM.Heads()) == 0 {
		t.Fatal("no clusters formed")
	}
	if m.delivered == 0 {
		t.Fatal("no multicast deliveries in 60 simulated seconds")
	}
	t.Logf("10k world: %d events, %d clusters, pdr %.1f%%",
		w.Sim.Executed(), len(w.CM.Heads()), 100*m.pdr())
}

// TestScaleQuickTable checks the structural contract of the scale
// experiment at quick size (the determinism sweep covers the rest).
func TestScaleQuickTable(t *testing.T) {
	tables := Scale(QuickOptions())
	if len(tables) != 1 {
		t.Fatalf("scale produced %d tables, want 1", len(tables))
	}
	if got := len(tables[0].Rows); got != len(scaleConfigs(QuickOptions())) {
		t.Fatalf("scale table has %d rows, want one per population", got)
	}
}

// TestScaleConfigsMaxNodesSuffix pins the seed-stability contract of
// the MaxNodes cap: capping the sweep only drops a suffix, so every
// surviving population keeps its sweep index (and positional seed).
func TestScaleConfigsMaxNodesSuffix(t *testing.T) {
	full := scaleConfigs(Options{Scale: 1, MaxNodes: 1 << 30})
	if n := len(full); n != 7 || full[n-1].nodes != 1000000 {
		t.Fatalf("uncapped sweep = %+v, want 7 points up to 1M", full)
	}
	def := scaleConfigs(Options{Scale: 1})
	if n := len(def); n != 6 || def[n-1].nodes != 100000 {
		t.Fatalf("default sweep = %+v, want 6 points up to the %d cap", def, DefaultMaxNodes)
	}
	for i := range def {
		if def[i] != full[i] {
			t.Fatalf("capping reordered point %d: %+v vs %+v", i, def[i], full[i])
		}
	}
	for i := 1; i < len(full); i++ {
		if full[i].nodes <= full[i-1].nodes {
			t.Fatalf("sweep populations not ascending at %d: the MaxNodes suffix cut relies on it", i)
		}
	}
}

// TestScaleBenchShape checks ScaleBench fills the performance fields
// the BENCH_scale.json baseline publishes, one point per population.
func TestScaleBenchShape(t *testing.T) {
	pts := ScaleBench(QuickOptions())
	if want := len(scaleConfigs(QuickOptions())); len(pts) != want {
		t.Fatalf("%d bench points, want %d (one per population)", len(pts), want)
	}
	for _, p := range pts {
		if p.Events == 0 || p.WallSeconds <= 0 || p.EventsPerSec <= 0 {
			t.Fatalf("bench point %+v missing performance measurements", p)
		}
		if p.TotalNodes < p.Nodes {
			t.Fatalf("bench point %+v: total below mobile population", p)
		}
		if p.GoMaxProcs < 1 {
			t.Fatalf("bench point %+v missing host configuration", p)
		}
	}
}

// TestScaleSamplerInvisible: the memory sampler chunks RunUntil at
// ~1 s barriers, and the chunking must be invisible to the simulation —
// the same event count and measured metrics to the last bit.
func TestScaleSamplerInvisible(t *testing.T) {
	cfg := scaleConfigs(QuickOptions())[1] // 250 nodes: big enough for real traffic
	type fp struct {
		events uint64
		pdr    float64
		ctrl   float64
	}
	res := runScaleWorld(1, cfg, nil)
	base := fp{events: res.events, pdr: res.m.pdr(), ctrl: res.ctrlPNS}
	calls := 0
	res = runScaleWorld(1, cfg, func() { calls++ })
	got := fp{events: res.events, pdr: res.m.pdr(), ctrl: res.ctrlPNS}
	if got != base {
		t.Fatalf("sampled run diverged: %+v vs unsampled %+v", got, base)
	}
	if calls == 0 {
		t.Fatal("sampler never invoked")
	}
}
