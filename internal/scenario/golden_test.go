package scenario

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// update rewrites the per-run goldens from the current code instead of
// checking against them:
//
//	go test ./internal/scenario -run TestGoldenRuns -update
//
// A change that moves a fingerprint must say why in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/golden_runs.txt from the current runs")

// goldenRunsPath holds one fingerprint per golden world.
var goldenRunsPath = filepath.Join("testdata", "golden_runs.txt")

// lockSpec is a small lossy waypoint world: loss draws, capacity
// serialization and mobility all make event order observable.
func lockSpec() Spec {
	spec := DefaultSpec()
	spec.Nodes = 60
	spec.MembersPerGroup = 10
	spec.LossProb = 0.05
	spec.Mobility = Waypoint
	return spec
}

// mixScript mixes traffic with a mid-run partition (a global topology
// event) and member churn.
func mixScript() *Script {
	return &Script{
		Name: "shard-mix", // part of the fingerprint: renaming it moves the golden
		Directives: []Directive{
			{Kind: KindTraffic, At: 0, Group: 0, Pattern: PatternCBR, Count: 1, Packets: 12, Interval: 0.5, Payload: 256, Duration: 8},
			{Kind: KindMemberChurn, At: 2, Group: 0, Count: 1, Period: 1, Duration: 3},
			{Kind: KindPartition, At: 4, Duration: 2, Frac: 0.25},
		},
	}
}

// healScript partitions the arena half a second into a CBR stream and
// heals it while packets are still in flight, then degrades the radios
// across the heal: the topology flips twice inside the traffic window.
func healScript() *Script {
	return &Script{
		Name: "partition-heal",
		Directives: []Directive{
			{Kind: KindTraffic, At: 0, Group: 0, Pattern: PatternCBR, Count: 1, Packets: 20, Interval: 0.25, Payload: 128, Duration: 6},
			{Kind: KindPartition, At: 0.5, Duration: 1.5, Frac: 0.4},
			{Kind: KindRadioLoss, At: 1.5, Duration: 1, Loss: 0.2},
		},
	}
}

// scriptFingerprint plays a script through the hvdb arm of a fresh world,
// drains it, checks the pool is empty and returns the run's
// Fingerprint.
func scriptFingerprint(t *testing.T, spec Spec, sc *Script) string {
	t.Helper()
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(10)
	res, err := w.RunScript(stk, sc)
	if err != nil {
		t.Fatal(err)
	}
	stk.Stop()
	w.RunUntil(w.Sim.Now() + 5) // drain
	if n := w.Net.PooledInFlight(); n != 0 {
		t.Fatalf("%s: %d pooled packets leaked", sc.Name, n)
	}
	return Fingerprint(res, w.Sim.Executed())
}

// goldenWorlds are the worlds whose whole-run fingerprints are pinned.
var goldenWorlds = []struct {
	name string
	run  func(t *testing.T) string
}{
	{"shard-mix", func(t *testing.T) string { return scriptFingerprint(t, lockSpec(), mixScript()) }},
	{"partition-heal", func(t *testing.T) string { return scriptFingerprint(t, lockSpec(), healScript()) }},
	// Broadcast accounting: the periodic beacon/hello planes broadcast
	// continuously, so the per-kind byte ledger covers every broadcast
	// delivered anywhere in the arena, whatever the sender's position.
	{"broadcast-ledger", func(t *testing.T) string {
		spec := lockSpec()
		spec.Nodes = 40
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.Start()
		w.RunUntil(15)
		st := w.Net.Stats()
		return fmt.Sprintf("ctrl=%d data=%d lost=%d events=%d",
			st.ControlBytes, st.DataBytes, st.Lost, w.Sim.Executed())
	}},
}

// TestGoldenRuns is the per-run behaviour lock: each golden world's
// fingerprint must match testdata/golden_runs.txt exactly.
func TestGoldenRuns(t *testing.T) {
	want := readGoldenRuns(t)
	got := make(map[string]string, len(goldenWorlds))
	for _, gw := range goldenWorlds {
		fp := gw.run(t)
		got[gw.name] = fp
		if *update {
			continue
		}
		if w, ok := want[gw.name]; !ok {
			t.Errorf("%s: no golden fingerprint (rewrite with -update)", gw.name)
		} else if fp != w {
			t.Errorf("%s: fingerprint changed:\n  golden: %s\n  got:    %s", gw.name, w, fp)
		}
	}
	if *update {
		var b strings.Builder
		b.WriteString("# Whole-run fingerprint of each golden world (scenario.Fingerprint or\n")
		b.WriteString("# the broadcast ledger). Columns: world, fingerprint.\n")
		b.WriteString("# Rewrite with: go test ./internal/scenario -run TestGoldenRuns -update\n")
		for _, gw := range goldenWorlds {
			fmt.Fprintf(&b, "%s\t%s\n", gw.name, got[gw.name])
		}
		if err := os.WriteFile(goldenRunsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != len(goldenWorlds) {
		t.Errorf("golden file records %d worlds, the test runs %d (rewrite with -update)", len(want), len(goldenWorlds))
	}
}

// readGoldenRuns loads the golden file; under -update a missing file
// reads as empty.
func readGoldenRuns(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	f, err := os.Open(goldenRunsPath)
	if err != nil {
		if os.IsNotExist(err) && *update {
			return out
		}
		t.Fatalf("reading golden runs: %v (rewrite with -update)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, fp, ok := strings.Cut(text, "\t")
		if !ok {
			t.Fatalf("%s:%d: want world<TAB>fingerprint, got %q", goldenRunsPath, line, text)
		}
		out[name] = fp
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardCountByteIdentical keeps the execution-configuration
// contract of the golden lock: the lossy mixed-directive world yields a
// byte-identical fingerprint on fresh builds whether the host runs it on
// one OS thread or on all of them. (The name predates the serial-only
// kernel, when the configurations compared were shard counts.)
func TestShardCountByteIdentical(t *testing.T) {
	base := scriptFingerprint(t, lockSpec(), mixScript())
	prev := runtime.GOMAXPROCS(1)
	single := scriptFingerprint(t, lockSpec(), mixScript())
	runtime.GOMAXPROCS(prev)
	if single != base {
		t.Fatalf("GOMAXPROCS=1 diverged from GOMAXPROCS=%d:\n  default: %s\n  single:  %s", prev, base, single)
	}
}

// TestBroadcastStraddlesShardCorners checks the broadcast planes cover
// the whole arena: after a beacon/hello window some node in each of the
// four arena quadrants has received packets, control bytes were
// charged, and a fresh build reproduces the byte ledger exactly.
func TestBroadcastStraddlesShardCorners(t *testing.T) {
	run := func() string {
		spec := lockSpec()
		spec.Nodes = 40
		w, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.Start()
		w.RunUntil(15)
		st := w.Net.Stats()
		if st.ControlBytes == 0 {
			t.Fatal("no control bytes after a beacon window")
		}
		c := w.Net.Arena().Center()
		var heard [4]int
		for _, n := range w.Net.Nodes() {
			if n.RxPackets() == 0 {
				continue
			}
			q, p := 0, n.TruePos()
			if p.X >= c.X {
				q |= 1
			}
			if p.Y >= c.Y {
				q |= 2
			}
			heard[q]++
		}
		for q, k := range heard {
			if k == 0 {
				t.Fatalf("no receiver in arena quadrant %d: %v", q, heard)
			}
		}
		return fmt.Sprintf("ctrl=%d data=%d lost=%d events=%d",
			st.ControlBytes, st.DataBytes, st.Lost, w.Sim.Executed())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("broadcast accounting not reproducible:\n  first:  %s\n  second: %s", a, b)
	}
}

// TestPartitionHealMidWindow plays a partition that opens half a second
// into a CBR stream and heals while packets are still in flight: no node
// is down before the partition, the strip is down inside it, every
// node is back after the heal, and the stream still delivers.
func TestPartitionHealMidWindow(t *testing.T) {
	w, err := Build(lockSpec())
	if err != nil {
		t.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		t.Fatal(err)
	}
	stk.Start()
	w.WarmUp(10)
	down := func() int {
		k := 0
		for _, n := range w.Net.Nodes() {
			if !n.Up() {
				k++
			}
		}
		return k
	}
	// healScript partitions [0.5, 2.0) after the script start.
	start := w.Sim.Now()
	var before, during, after int
	w.Sim.Schedule(start+0.25, func() { before = down() })
	w.Sim.Schedule(start+1.0, func() { during = down() })
	w.Sim.Schedule(start+2.5, func() { after = down() })
	res, err := w.RunScript(stk, healScript())
	if err != nil {
		t.Fatal(err)
	}
	stk.Stop()
	w.RunUntil(w.Sim.Now() + 5) // drain
	if n := w.Net.PooledInFlight(); n != 0 {
		t.Fatalf("%d pooled packets leaked", n)
	}
	if before != 0 || during == 0 || after != 0 {
		t.Fatalf("down nodes before/during/after partition = %d/%d/%d, want 0/>0/0", before, during, after)
	}
	if res.Delivered == 0 {
		t.Fatalf("no deliveries across the partition: %+v", res)
	}
}
