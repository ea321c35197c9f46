package experiment

import (
	"runtime"
	"strings"
	"testing"
)

// runAndRender executes one experiment, applies the structural smoke
// checks (tables exist, have rows, render with their ID), and returns
// every table rendered — aligned and CSV, notes included — as one
// string.
func runAndRender(t *testing.T, id string, o Options) string {
	t.Helper()
	return strings.Join(renderTables(t, id, o), "")
}

// renderTables is runAndRender split per table: element i is table i
// rendered aligned and as CSV.
func renderTables(t *testing.T, id string, o Options) []string {
	t.Helper()
	tables, err := Run(id, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	out := make([]string, 0, len(tables))
	for _, tb := range tables {
		if len(tb.Columns) == 0 {
			t.Fatalf("table %s has no columns", tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("table %s has no rows", tb.ID)
		}
		s := tb.String()
		if !strings.Contains(s, tb.ID) {
			t.Fatalf("table %s renders without its ID", tb.ID)
		}
		out = append(out, s+tb.CSV())
	}
	return out
}

// TestAllExperimentsQuick smoke-runs every registered experiment at
// reduced scale and enforces the harness determinism contract in the
// same sweep: tables must be byte-identical at worker counts 1, 4, and
// NumCPU for the same seed, because each run's PRNG stream is derived
// positionally (runner.DeriveSeed) and results are collected in run
// order. The first worker count's tables are also checked against the
// committed golden digests (see golden_test.go), so any behaviour change
// shows up here rather than in a hand diff of EXPERIMENTS.md. The
// heavier sweeps are skipped with -short.
func TestAllExperimentsQuick(t *testing.T) {
	golden := loadGolden(t)
	heavy := map[string]bool{"c3": true, "c5": true, "c6": true, "f5": true, "stress": true}
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 && !testing.Short() {
		counts = append(counts, n)
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && heavy[id] {
				t.Skip("heavy sweep skipped with -short")
			}
			t.Parallel() // experiments are self-contained worlds
			var want string
			for _, workers := range counts {
				o := QuickOptions()
				o.Workers = workers
				rendered := renderTables(t, id, o)
				got := strings.Join(rendered, "")
				if want == "" {
					want = got
					golden.check(t, id, rendered)
					continue
				}
				if got != want {
					t.Fatalf("experiment %s differs between -parallel %d and -parallel %d:\n--- workers=%d ---\n%s\n--- workers=%d ---\n%s",
						id, counts[0], workers, counts[0], want, workers, got)
				}
			}
		})
	}
}

// TestSerialRerunDeterminism guards against hidden global state: the
// same experiment run twice in one process must render identically.
func TestSerialRerunDeterminism(t *testing.T) {
	o := QuickOptions()
	o.Workers = 1
	for _, id := range []string{"c1", "c4", "f4"} {
		if runAndRender(t, id, o) != runAndRender(t, id, o) {
			t.Fatalf("experiment %s is not deterministic across reruns", id)
		}
	}
}
