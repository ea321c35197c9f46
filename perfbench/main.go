// Command hvdbperf is the repository benchmark: it drives one of three
// fixed workloads through the simulator's public APIs, checks the
// simulated outputs, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation; with --trace 1 they are the per-layer ones, from a
// traced run that also writes its spans and CPU profile under --out.
// README.md lists every metric and why each workload exists.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload data-400 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hvdbperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ctrl-5k, data-400 or churn-400")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "wall-clock seconds to keep repeating the workload (at least two repetitions run)")
	traceMode := fs.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceMode < 0 || *traceMode > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "hvdbperf: want --workload NAME [--seed N] [--seconds S > 0] [--trace 0|1]")
		fs.Usage()
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "hvdbperf:", err)
		return 2
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traceMode == 0 {
		res, err = measureEndToEnd(wl, *seed, budget)
	} else {
		res, err = measureLayers(wl, *seed, budget, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hvdbperf:", err)
		return 1
	}
	res.print(stdout)
	for _, v := range res.violations {
		fmt.Fprintln(stderr, "hvdbperf: correctness violation:", v)
	}
	if len(res.violations) > 0 {
		return 1
	}
	return 0
}

// result is what one invocation reports.
type result struct {
	workload   string
	seed       uint64
	rounds     int
	sum        outcome // simulated outcome summed over the run's worlds
	nodes      int     // summed over the run's worlds
	metrics    []metric
	violations []string
}

type metric struct {
	name, unit string
	value      float64
	note       string // sample count or provenance, for the human table
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// print writes the human-readable table, then the JSON result line.
// Operations are the expected member deliveries; an undelivered one
// counts as failed.
func (r *result) print(w io.Writer) {
	o := r.sum
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d nodes; %d sends, %d of %d expected deliveries\n",
		r.workload, r.seed, r.rounds, r.nodes, o.sent, o.delivered, o.expected)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %16.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = jm{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(r.violations) == 0, o.expected, o.expected - o.delivered, ms})
	fmt.Fprintln(w, string(line))
}

// worldSeed is the seed of world j of a run.
func worldSeed(seed uint64, j int) uint64 { return runner.DeriveSeed(seed, j) }

// repeat plays rounds (each of the workload's worlds once, untraced
// when tr is nil): at least min, then more while another round of
// average length still ends before the deadline. It checks every
// repetition's invariants and its fingerprint against the same world's
// repetition in ref (the first round when ref is nil).
func repeat(wl workload, seed uint64, tr *tracer, min int, deadline time.Time, ref []*rep, res *result) ([][]*rep, error) {
	var rounds [][]*rep
	start := time.Now()
	for len(rounds) < min || time.Now().Add(time.Since(start)/time.Duration(len(rounds))).Before(deadline) {
		rd := make([]*rep, wl.worlds)
		for j := range rd {
			r, bad, err := runRep(wl, worldSeed(seed, j), tr)
			if err != nil {
				return nil, err
			}
			want := r
			if ref != nil {
				want = ref[j]
			} else if len(rounds) > 0 {
				want = rounds[0][j]
			}
			if err := sameOutcome(&want.out, &r.out); err != nil {
				bad = append(bad, err.Error())
			}
			for _, b := range bad {
				res.violations = append(res.violations, fmt.Sprintf("round %d world %d: %s", res.rounds+1, j, b))
			}
			rd[j] = r
		}
		res.rounds++
		rounds = append(rounds, rd)
	}
	res.sum, res.nodes = outcome{}, 0
	for _, r := range rounds[0] {
		res.sum.add(&r.out)
		res.nodes += r.nodes
	}
	return rounds, nil
}
