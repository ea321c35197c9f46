package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/des"
	"repro/internal/membership"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// workload is one fixed (Spec, Script) pair on the serial kernel. The
// simulated timetable is an open loop in simulated time; the host runs
// it as fast as it can. README.md records why each one was chosen.
type workload struct {
	name string
	// worlds is how many independently seeded worlds one run plays.
	// A single small world's delays and heap vary with its geometry by
	// more than a run-to-run bound can absorb; reporting the mean over
	// several worlds averages that out. World j of seed s is built from
	// runner.DeriveSeed(s, j).
	worlds int
	spec   func(seed uint64) scenario.Spec
	warm   des.Duration
	// script builds the workload's timetable.
	script func() *scenario.Script
	// qos, when set, runs the closed-loop session client during the
	// script window.
	qos *qosLoad
}

// qosLoad sizes the closed-loop QoS client: every period it makes
// perTick Hard Open calls, closing the oldest session first whenever
// maxOpen are held and after every refused Open (the client backs off
// instead of retrying into a full backbone). Rates are drawn uniformly
// from [minRate, maxRate] bits/s, so small requests fit where large
// ones are refused and the admission plane sees both outcomes.
type qosLoad struct {
	period           des.Duration
	perTick, maxOpen int
	minRate, maxRate float64
}

// qosSeedSalt decorrelates the client's stream from the world's: the
// client draws from its own PRNG over World.Ordinary and never touches
// World.Rng, so the simulator receives only generated inputs.
const qosSeedSalt = 0x9d3a61c4e5b70f27

func workloads() []workload {
	return []workload{
		{
			name:   "ctrl-5k",
			worlds: 1,
			spec: func(seed uint64) scenario.Spec {
				s := scenario.DefaultSpec()
				s.Seed, s.Nodes, s.ArenaSize = seed, 5000, 10000
				s.Groups, s.MembersPerGroup = 1, 200
				return s
			},
			warm: 15,
			// 100 CBR packets 0.1 s apart, each from its own source, to
			// 200 members. With the scale sweep's 20 packets from one
			// source to 20 members, a single world's PDR and delays
			// varied 9-22% from seed to seed (and 4-6% with 100 members);
			// the data plane stays a sliver of this workload's events
			// either way.
			script: func() *scenario.Script {
				sc := &scenario.Script{Name: "ctrl-5k"}
				for i := 0; i < 100; i++ {
					sc.Directives = append(sc.Directives, scenario.Directive{At: 0.1 * float64(i),
						Kind: scenario.KindTraffic, Pattern: scenario.PatternCBR, Group: 0, Interval: 0.1, Packets: 1, Payload: 512})
				}
				return sc
			},
		},
		{
			name:   "data-400",
			worlds: 4,
			spec:   func(seed uint64) scenario.Spec { return arena400(seed, 4) },
			warm:   15,
			script: func() *scenario.Script {
				sc := &scenario.Script{Name: "data-400"}
				for g := 0; g < 4; g++ {
					// The group's 10 pkt/s Poisson stream is the superposition
					// of five 2 pkt/s Poisson sources, so no single source's
					// position sets the group's delays.
					for k := 0; k < 5; k++ {
						sc.Directives = append(sc.Directives, scenario.Directive{Kind: scenario.KindTraffic,
							Pattern: scenario.PatternPoisson, Group: g, Interval: 0.5, Duration: 30, Packets: 60, Payload: 512})
					}
					sc.Directives = append(sc.Directives, scenario.Directive{At: 10, Kind: scenario.KindTraffic,
						Pattern: scenario.PatternFlash, Group: g, Count: 10, Duration: 10, Interval: 0.25, Packets: 40, Payload: 256})
				}
				return sc
			},
		},
		{
			name:   "churn-400",
			worlds: 8,
			spec:   func(seed uint64) scenario.Spec { return arena400(seed, 2) },
			warm:   15,
			script: func() *scenario.Script {
				sc := &scenario.Script{Name: "churn-400", Directives: []scenario.Directive{
					{Kind: scenario.KindNodeChurn, Count: 10, Period: 1, Duration: 30},
				}}
				for g := 0; g < 2; g++ {
					sc.Directives = append(sc.Directives,
						scenario.Directive{Kind: scenario.KindMemberChurn, Group: g, Count: 3, Period: 1, Duration: 30})
					// Five CBR sources per group, 1 pkt/s each, staggered.
					for k := 0; k < 5; k++ {
						sc.Directives = append(sc.Directives, scenario.Directive{At: 0.2 * float64(k),
							Kind: scenario.KindTraffic, Pattern: scenario.PatternCBR, Group: g,
							Interval: 1, Duration: 30, Packets: 30, Payload: 512})
					}
				}
				return sc
			},
			qos: &qosLoad{period: 0.25, perTick: 100, maxOpen: 40, minRate: 50e3, maxRate: 600e3},
		},
	}
}

// arena400 is the paper's 2 km arena with 400 mobile nodes and groups
// of 30 members.
func arena400(seed uint64, groups int) scenario.Spec {
	s := scenario.DefaultSpec()
	s.Seed, s.Nodes, s.ArenaSize = seed, 400, 2000
	s.Groups, s.MembersPerGroup = groups, 30
	return s
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// qosClient is the closed-loop session client of the churn workload.
// It runs inside simulator events, so its calls land at fixed simulated
// instants and the run stays a pure function of the seed.
type qosClient struct {
	load   *qosLoad
	qm     *qos.Manager
	rng    *xrand.Rand
	pool   []network.NodeID
	groups int
	held   []qos.SessionID // oldest first
	opens  uint64
	// tr times every Open and Close (nil in untraced runs).
	tr *tracer
}

func (c *qosClient) tick() {
	for i := 0; i < c.load.perTick; i++ {
		if len(c.held) >= c.load.maxOpen {
			c.close(c.held[0])
			c.held = c.held[1:]
		}
		src := c.pool[c.rng.Intn(len(c.pool))]
		g := membership.Group(c.rng.Intn(c.groups))
		rate := c.rng.Range(c.load.minRate, c.load.maxRate)
		c.opens++
		if s, err := c.open(src, g, rate); err == nil {
			c.held = append(c.held, s.ID)
		} else if len(c.held) > 0 {
			c.close(c.held[0])
			c.held = c.held[1:]
		}
	}
}

func (c *qosClient) open(src network.NodeID, g membership.Group, rate float64) (*qos.Session, error) {
	sp := c.tr.begin("qos.Open")
	s, err := c.qm.Open(src, g, rate, qos.Hard)
	if c.tr != nil {
		c.tr.openUS = append(c.tr.openUS, us(c.tr.end(sp)))
	}
	return s, err
}

func (c *qosClient) close(id qos.SessionID) {
	sp := c.tr.begin("qos.Close")
	c.qm.Close(id)
	c.tr.end(sp)
}
