// Command perfbench is the repository's benchmark: one process that
// sets up the engine, drives one workload closed-loop for a fixed time,
// checks every answer, and prints the run's metrics as the last line of
// its output. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics BENCHMARK.json lists;
// --trace 1 records spans around every layer call and prints the
// per-layer metrics instead. --steady N repeats the workload in N child
// processes with seeds seed..seed+N-1 and prints each end-to-end
// metric's median and quartile spread next to its bound. --describe
// prints which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: scan, update or served")
	seed := fs.Int64("seed", 1, "seed of the generated document and operation sequence")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	steady := fs.Int("steady", 0, "repeat the workload in this many child processes and print each metric's spread")
	describe := fs.Bool("describe", false, "print the per-layer to end-to-end metric map")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *describe {
		describeLayers(stdout, sp)
		return 0
	}
	if !sp.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		if err := runSteady(stdout, stderr, sp, *workload, *seed, *seconds, *steady); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	b, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	res, err := report(b, want, sp)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, m := range b.mismatches {
		fmt.Fprintln(stderr, "perfbench: wrong result:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report selects the metrics a run prints. Every listed metric must have
// been measured, and every measured metric must be listed in
// BENCHMARK.json, so the code and the file cannot drift apart.
func report(b *bench, want []metricSpec, sp *spec) (result, error) {
	res := result{
		Correct:   len(b.mismatches) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricResult, len(want)),
	}
	for name := range b.metrics {
		if sp.metric(name) == nil {
			return res, fmt.Errorf("measured metric %q is not in BENCHMARK.json", name)
		}
	}
	var missing []string
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return res, fmt.Errorf("metric %s is %v", m.Name, v)
		default:
			res.Metrics[m.Name] = metricResult{Value: v, Unit: m.Unit}
		}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("%s run measured no %s", b.cfg.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}
