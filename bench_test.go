// Benchmarks: one target per reproduced figure and evaluated claim
// (BenchmarkFig*/BenchmarkClaim*), ablation benches for the design
// choices DESIGN.md calls out (BenchmarkAblation*), and micro-benches of
// the hot computational kernels. Figure/claim benches run the reduced
// (Quick) experiment configurations so -bench completes in minutes; the
// full-size runs are produced by cmd/hvdbbench and recorded in
// EXPERIMENTS.md.
package hvdb

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/hypercube"
	"repro/internal/logicalid"
	"repro/internal/membership"
	"repro/internal/multicast"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/vcgrid"
	"repro/internal/xrand"
)

// benchExperiment runs one experiment per iteration at quick scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := experiment.QuickOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Seed = uint64(i + 1)
		if _, err := experiment.Run(id, o); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure benches — one per paper figure (see DESIGN.md experiment index).

func BenchmarkFig1ModelConstruction(b *testing.B) { benchExperiment(b, "f1") }
func BenchmarkFig2GridDecomposition(b *testing.B) { benchExperiment(b, "f2") }
func BenchmarkFig3LabelLayout(b *testing.B)       { benchExperiment(b, "f3") }
func BenchmarkFig4RouteMaintenance(b *testing.B)  { benchExperiment(b, "f4") }
func BenchmarkFig5Membership(b *testing.B)        { benchExperiment(b, "f5") }
func BenchmarkFig6Multicast(b *testing.B)         { benchExperiment(b, "f6") }

// Claim benches — one per evaluated claim.

func BenchmarkClaimAvailability(b *testing.B)  { benchExperiment(b, "c1") }
func BenchmarkClaimLoadBalance(b *testing.B)   { benchExperiment(b, "c2") }
func BenchmarkClaimScalability(b *testing.B)   { benchExperiment(b, "c3") }
func BenchmarkClaimDiameter(b *testing.B)      { benchExperiment(b, "c4") }
func BenchmarkProtocolComparison(b *testing.B) { benchExperiment(b, "c5") }
func BenchmarkClaimChurn(b *testing.B)         { benchExperiment(b, "c6") }

// Ablation: plain-binary (the paper's Figure 3 layout) vs Gray-coded
// grid-to-label mapping. The metric is the mean physical length (in
// cells) of a logical hypercube link: Gray labels make every in-block
// link grid-adjacent, the paper's layout trades half of them for
// two-cell jumps.
func BenchmarkAblationLabelMapping(b *testing.B) {
	grid := vcgrid.New(geom.RectWH(0, 0, 2000, 2000), 250)
	run := func(b *testing.B, opts ...logicalid.Option) {
		var total, links, maxLen int
		for i := 0; i < b.N; i++ {
			s, err := logicalid.New(grid, 4, opts...)
			if err != nil {
				b.Fatal(err)
			}
			total, links, maxLen = 0, 0, 0
			for _, vc := range s.BlockVCs(0) {
				p := s.PlaceOf(vc)
				for _, nb := range hypercube.AllNeighbors(p.HNID, 4) {
					w := s.VCAt(0, nb)
					if grid.Valid(w) {
						d := vcgrid.DistVCs(vc, w)
						total += d
						links++
						if d > maxLen {
							maxLen = d
						}
					}
				}
			}
		}
		// Both mappings average 1.5 cells per logical link, but the
		// binary layout bounds the longest link at 2 cells while Gray's
		// axis wraparound (00<->10) spans 3 — the paper's choice keeps
		// the worst-case physical realization of a logical hop shorter.
		b.ReportMetric(float64(total)/float64(links), "cells/logical-link")
		b.ReportMetric(float64(maxLen), "max-cells/link")
	}
	b.Run("binary", func(b *testing.B) { run(b) })
	b.Run("gray", func(b *testing.B) { run(b, logicalid.WithGrayLabels()) })
}

// Ablation: the local route horizon k (paper: "k is a system parameter,
// e.g. k = 4") — table size and beacon cost vs reach.
func BenchmarkAblationHorizonK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 6} {
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			var known float64
			var ctrl uint64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Nodes = 0
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.K = k
				cfg.RouteTTL = 1000
				mux := network.Bind(w.Net)
				w.BB = core.New(w.Net, mux, w.CM, w.Scheme, cfg)
				w.CM.Elect()
				for r := 0; r < k+1; r++ {
					w.BB.BeaconRound()
					w.Sim.RunUntil(w.Sim.Now() + cfg.BeaconPeriod)
				}
				known = float64(w.BB.KnownDestinations(0))
				ctrl = w.Net.Stats().ControlBytes
			}
			b.ReportMetric(known, "dests-known")
			b.ReportMetric(float64(ctrl)/1024, "ctrl-KiB")
		})
	}
}

// Ablation: hypercube dimension for a fixed 8x8 VC region — fewer,
// larger cubes vs more, smaller ones.
func BenchmarkAblationDimension(b *testing.B) {
	for _, dim := range []int{2, 4, 6} {
		b.Run(string(rune('0'+dim)), func(b *testing.B) {
			var hops float64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Dim = dim
				spec.Nodes = 0
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				w.CM.Elect()
				rng := xrand.New(uint64(i + 1))
				var total, pairs int
				for p := 0; p < 50; p++ {
					a := logicalid.CHID(rng.Intn(w.Grid.Count()))
					c := logicalid.CHID(rng.Intn(w.Grid.Count()))
					if a == c {
						continue
					}
					if d, ok := w.BB.LogicalReach(a, 64)[c]; ok {
						total += d
						pairs++
					}
				}
				if pairs > 0 {
					hops = float64(total) / float64(pairs)
				}
			}
			b.ReportMetric(hops, "logical-hops")
		})
	}
}

// Ablation: the designated-broadcaster criterion of §4.2 — the paper's
// self+neighbors criterion vs self-only vs a fixed broadcaster.
func BenchmarkAblationBroadcaster(b *testing.B) {
	policies := map[string]membership.DesignationPolicy{
		"self+neighbors": membership.DesignateSelfPlusNeighbors,
		"self":           membership.DesignateSelf,
		"fixed":          membership.DesignateFixed,
	}
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			var broadcasts uint64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Nodes = 64
				spec.Groups = 2
				spec.MembersPerGroup = 8
				spec.Mobility = scenario.Static
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				mcfg := membership.DefaultConfig()
				mcfg.Designation = policy
				mcfg.LocalTTL = 0
				ms := membership.New(w.BB, mcfg)
				for g, members := range w.Members {
					for _, id := range members {
						ms.Join(id, g)
					}
				}
				ms.LocalRound()
				w.Sim.RunUntil(w.Sim.Now() + 2)
				ms.MNTRound()
				w.Sim.RunUntil(w.Sim.Now() + 5)
				ms.HTRound()
				w.Sim.RunUntil(w.Sim.Now() + 10)
				broadcasts = ms.HTBroadcasts
			}
			b.ReportMetric(float64(broadcasts), "ht-broadcasts")
		})
	}
}

// Ablation: multicast tree caching on/off (the paper caches trees "for
// future use").
func BenchmarkAblationTreeCache(b *testing.B) {
	run := func(b *testing.B, ttl des.Duration) {
		var computes uint64
		for i := 0; i < b.N; i++ {
			spec := scenario.DefaultSpec()
			spec.Seed = uint64(i + 1)
			spec.Nodes = 64
			spec.Groups = 1
			spec.MembersPerGroup = 10
			spec.Mobility = scenario.Static
			w, err := scenario.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			mcfg := multicast.DefaultConfig()
			mcfg.CacheTTL = ttl
			w.MC = multicast.New(w.BB, w.MS, w.Mux, mcfg)
			w.Start()
			w.WarmUp(12)
			src := w.RandomSource()
			for p := 0; p < 10; p++ {
				w.MC.Send(src, 0, 256)
				w.Sim.RunUntil(w.Sim.Now() + 0.3)
			}
			w.Sim.RunUntil(w.Sim.Now() + 3)
			w.Stop()
			computes = w.MC.TreeComputes
		}
		b.ReportMetric(float64(computes), "tree-computes")
	}
	b.Run("cached", func(b *testing.B) { run(b, 100) })
	b.Run("uncached", func(b *testing.B) { run(b, 0) })
}

// Micro-benches of the computational kernels.

func BenchmarkHypercubeRoute(b *testing.B) {
	c := hypercube.Complete(10)
	rng := xrand.New(1)
	// Punch some holes so the BFS fallback is exercised.
	for i := 0; i < 200; i++ {
		c.Remove(hypercube.Label(rng.Intn(c.Size())))
	}
	labels := c.Labels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := labels[i%len(labels)]
		dst := labels[(i*7+3)%len(labels)]
		c.Route(src, dst)
	}
}

func BenchmarkHypercubeMulticastTree(b *testing.B) {
	c := hypercube.Complete(8)
	rng := xrand.New(2)
	dests := make([]hypercube.Label, 20)
	for i := range dests {
		dests[i] = hypercube.Label(rng.Intn(c.Size()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MulticastTree(hypercube.Label(i%c.Size()), dests)
	}
}

func BenchmarkDisjointPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hypercube.DisjointPaths(0, hypercube.Label(i%63+1), 6)
	}
}

func BenchmarkDESThroughput(b *testing.B) {
	sim := des.New()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			sim.After(0.001, chain)
		}
	}
	b.ResetTimer()
	sim.Schedule(0, chain)
	sim.Run()
}

func BenchmarkNeighborQuery(b *testing.B) {
	spec := scenario.DefaultSpec()
	spec.Nodes = 500
	w, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Net.Neighbors(network.NodeID(i % w.Net.Len()))
	}
}

func BenchmarkEndToEndMulticast(b *testing.B) {
	spec := scenario.DefaultSpec()
	spec.Nodes = 100
	spec.Groups = 1
	spec.MembersPerGroup = 10
	spec.Mobility = scenario.Static
	w, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	w.Start()
	w.WarmUp(12)
	src := w.RandomSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := w.MC.Send(src, 0, 512)
		w.Sim.RunUntil(w.Sim.Now() + 0.2)
		w.MC.ForgetPacket(uid)
	}
}

// BenchmarkLocalReception measures the multicast reception path: one
// packet per op to a 30-member group of a static 400-node world on the
// paper's 2 km arena, with the control plane stopped after warm-up, so
// an op is the packet's tree forwarding plus its CHs' cluster-local
// broadcasts and every reception of them, almost all at non-members.
// Reports never expire (LocalTTL 0), so every op sees the same
// membership. Broadcast-reception handlers must not allocate: allocs/op
// stays a small constant per packet however many nodes hear it.
func BenchmarkLocalReception(b *testing.B) {
	spec := scenario.DefaultSpec()
	spec.Nodes = 400
	spec.Groups = 4
	spec.MembersPerGroup = 30
	spec.Mobility = scenario.Static
	w, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := membership.DefaultConfig()
	mcfg.LocalTTL = 0
	w.MS = membership.New(w.BB, mcfg)
	for g, members := range w.Members {
		for _, id := range members {
			w.MS.Join(id, g)
		}
	}
	w.MC = multicast.New(w.BB, w.MS, w.Mux, multicast.DefaultConfig())
	w.Start()
	w.WarmUp(15)
	w.Stop()
	w.Sim.Run()
	src := w.RandomSource()
	// One untimed packet sizes the reusable buffers, so even -benchtime
	// 1x reports the steady state.
	w.MC.ForgetPacket(w.MC.Send(src, 0, 512))
	w.Sim.Run()
	before := w.MC.Delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := w.MC.Send(src, membership.Group(i%spec.Groups), 512)
		w.Sim.Run()
		w.MC.ForgetPacket(uid)
	}
	b.StopTimer()
	if w.MC.Delivered == before {
		b.Fatal("no deliveries: the world did not converge")
	}
	b.ReportMetric(float64(w.MC.Delivered-before)/float64(b.N), "deliveries/op")
}

// Ablation: GPS positioning error — the model assumes GPS; this sweeps
// how much per-axis Gaussian error the logical-location machinery
// tolerates before clustering destabilizes and delivery suffers.
func BenchmarkAblationGPSError(b *testing.B) {
	for _, sigma := range []float64{0, 10, 30, 60} {
		name := fmt.Sprintf("%.0fm", sigma)
		b.Run(name, func(b *testing.B) {
			var pdr, chChanges float64
			for i := 0; i < b.N; i++ {
				spec := scenario.DefaultSpec()
				spec.Seed = uint64(i + 1)
				spec.Nodes = 80
				spec.Groups = 1
				spec.MembersPerGroup = 10
				spec.Mobility = scenario.Static
				spec.GPSError = sigma
				w, err := scenario.Build(spec)
				if err != nil {
					b.Fatal(err)
				}
				w.Start()
				w.WarmUp(12)
				delivered := 0
				w.MC.OnDeliver(func(network.NodeID, uint64, des.Time, int) { delivered++ })
				sent := 0
				src := w.RandomSource()
				for p := 0; p < 8; p++ {
					if w.MC.Send(src, 0, 256) != 0 {
						sent++
					}
					w.Sim.RunUntil(w.Sim.Now() + 0.5)
				}
				w.Sim.RunUntil(w.Sim.Now() + 5)
				w.Stop()
				if sent > 0 {
					pdr = float64(delivered) / float64(sent*10)
				}
				chChanges = float64(w.CM.Changes())
			}
			b.ReportMetric(pdr, "pdr")
			b.ReportMetric(chChanges, "ch-changes")
		})
	}
}
