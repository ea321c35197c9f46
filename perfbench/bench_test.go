package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{0, 50, false, 0},
		{19, 50, false, 0},
		{20, 50, true, 10},
		{199, 95, false, 0},
		{200, 95, true, 190},
		{999, 99, false, 0},
		{1000, 99, true, 990},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("percentile(n=%d, p%g) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func sampleOutcome() outcome {
	return outcome{
		events: 1000, sent: 10, expected: 100, delivered: 98, stale: 1,
		delayDigest: 0xfeed, p50: 0.01, p95: 0.02, ctrlPerNodeS: 12.5,
		kindTx:    map[string]uint64{"mcast-data": 40, "geo:mnt-summary": 300},
		ctrlBytes: 5000, dataBytes: 7000, lost: 2, qosOpens: 5, qosAdm: 3, qosRej: 2,
	}
}

func TestPerturbedFingerprintFailsTheCheck(t *testing.T) {
	a, b := sampleOutcome(), sampleOutcome()
	if err := sameOutcome(&a, &b); err != nil {
		t.Fatalf("identical outcomes differ: %v", err)
	}
	perturb := map[string]func(o *outcome){
		"events":    func(o *outcome) { o.events++ },
		"delivered": func(o *outcome) { o.delivered-- },
		"stale":     func(o *outcome) { o.stale++ },
		"digest":    func(o *outcome) { o.delayDigest ^= 1 },
		"kind tx":   func(o *outcome) { o.kindTx["mcast-data"]++ },
		"new kind":  func(o *outcome) { o.kindTx["hvdb-beacon"] = 1 },
		"qos":       func(o *outcome) { o.qosRej++ },
	}
	for name, f := range perturb {
		c := sampleOutcome()
		f(&c)
		if err := sameOutcome(&a, &c); err == nil {
			t.Errorf("perturbing %s went unnoticed", name)
		}
	}
}

func TestRepCheckFlagsViolations(t *testing.T) {
	good := scenario.ScriptResult{Sent: 2, Expected: 10, Delivered: 9, DelaySamples: 9}
	if bad := (&rep{}).check(&good); len(bad) != 0 {
		t.Fatalf("clean result flagged: %v", bad)
	}
	for name, c := range map[string]struct {
		res      scenario.ScriptResult
		inflight int
	}{
		"audience open": {scenario.ScriptResult{Sent: 2, Expected: 10, Delivered: 9, DelaySamples: 9, AudienceOpen: 1}, 0},
		"delay samples": {scenario.ScriptResult{Sent: 2, Expected: 10, Delivered: 9, DelaySamples: 8}, 0},
		"pool leak":     {good, 3},
		"no traffic":    {scenario.ScriptResult{}, 0},
	} {
		if bad := (&rep{inflight: c.inflight}).check(&c.res); len(bad) == 0 {
			t.Errorf("%s not flagged", name)
		}
	}
}

// tinyWorkload is a miniature of the churn workload: every layer,
// the QoS client included, in well under a second.
func tinyWorkload() workload {
	wl, _ := findWorkload("churn-400")
	wl.spec = func(seed uint64) scenario.Spec {
		s := scenario.DefaultSpec()
		s.Seed, s.Nodes, s.ArenaSize, s.Groups, s.MembersPerGroup = seed, 60, 1000, 2, 8
		return s
	}
	wl.warm = 6
	wl.script = func() *scenario.Script {
		return &scenario.Script{Name: "tiny", Directives: []scenario.Directive{
			{Kind: scenario.KindNodeChurn, Count: 2, Period: 1, Duration: 4},
			{Kind: scenario.KindMemberChurn, Group: 1, Count: 1, Period: 1, Duration: 4},
			{Kind: scenario.KindTraffic, Pattern: scenario.PatternCBR, Group: 0, Interval: 0.1, Packets: 40, Payload: 256},
		}}
	}
	wl.worlds = 1
	load := *wl.qos
	load.perTick = 40 // 36 ticks: enough Opens for a p99
	wl.qos = &load
	return wl
}

func TestTracedRunReproducesUntraced(t *testing.T) {
	wl := tinyWorkload()
	plain, bad, err := runRep(wl, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("untraced violations: %v", bad)
	}
	tr := newTracer()
	traced, bad, err := runRep(wl, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("traced violations: %v", bad)
	}
	if err := sameOutcome(&plain.out, &traced.out); err != nil {
		t.Fatalf("tracing perturbed the simulation: %v", err)
	}
	if len(traced.nbrUS) == 0 || len(traced.routeUS) == 0 || len(traced.sendUS) == 0 || len(traced.openUS) == 0 {
		t.Errorf("traced run missed timed calls: nbr %d route %d send %d open %d",
			len(traced.nbrUS), len(traced.routeUS), len(traced.sendUS), len(traced.openUS))
	}
	if plain.out.qosOpens == 0 || plain.out.qosAdm == 0 {
		t.Errorf("QoS client idle: %d opens, %d admitted", plain.out.qosOpens, plain.out.qosAdm)
	}
	if _, _, err := fold(traced.profile); err != nil {
		t.Errorf("traced profile does not fold: %v", err)
	}
	var names []string
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		names = append(names, s.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"scenario.Build", "protocol.Start", "scenario.WarmUp", "scenario.RunScript",
		"multicast.Send", "qos.Open", "qos.Close", "network.NeighborsPos", "core.BestRoute"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no %s span recorded", want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "data-400", "--trace", "2"},
		{"--workload", "data-400", "--seconds", "0"},
		{"--workload", "data-400", "stray"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, out.String())
		}
	}
}

func TestResultLineIsTheContractJSON(t *testing.T) {
	r := &result{workload: "x", sum: sampleOutcome()}
	r.add("run_s", "s", 1.5, "")
	var out bytes.Buffer
	r.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 100 || got.Failed != 2 || got.Metrics["run_s"].Value != 1.5 || got.Metrics["run_s"].Unit != "s" {
		t.Errorf("result line = %+v", got)
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes on the miniature
// workload and checks that each prints exactly the metrics, with the
// units, that BENCHMARK.json at the repository root declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	wl := tinyWorkload()
	e2e, err := measureEndToEnd(wl, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := measureLayers(wl, 3, 100*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		res  *result
		want []decl
	}{{"end-to-end", e2e, spec.EndToEnd}, {"per-layer", layers, spec.PerLayer}} {
		if len(c.res.violations) > 0 {
			t.Errorf("%s: violations %v", c.mode, c.res.violations)
		}
		var got, want []string
		for _, m := range c.res.metrics {
			got = append(got, m.name+" "+m.unit)
		}
		for _, d := range c.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n got %v\nwant %v", c.mode, got, want)
		}
	}
}
