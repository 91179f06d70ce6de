package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// spec is BENCHMARK.json: the benchmark's command, workloads and the
// metrics with their units, directions and regression bounds.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var sp spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sp.validate(len(raw)); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// validate checks the limits BENCHMARK.json must keep.
func (sp *spec) validate(size int) error {
	if size > 64<<10 {
		return fmt.Errorf("%d bytes; at most 64 KiB", size)
	}
	if n := len(sp.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings; want 1 to 32", n)
	}
	for _, c := range sp.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q", c)
		}
	}
	if n := len(sp.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths; want 1 to 16", n)
	}
	for _, p := range sp.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q", p)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d; want 1 to 60", sp.RunSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads; want 2 to 8", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics; want 1 to 16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics; want 1 to 128", n)
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		if err := checkMetric(m, use); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s metric in seconds, lower better")
	}
	for _, m := range sp.PerLayer {
		if err := checkMetric(m, use); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	return nil
}

func checkMetric(m metricSpec, use func(string) error) error {
	if err := use(m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
	}
	return nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric finds a metric of either list by name.
func (sp *spec) metric(name string) *metricSpec {
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// layerEffects says, for each per-layer metric (or metric family, by
// prefix), which end-to-end metric it should move and on which workload.
// A layer change claims its gain there; everywhere else the prediction
// is no change.
var layerEffects = []struct{ prefix, moves string }{
	{"shred.parse_ms", "setup_s on every workload"},
	{"core.build_ms", "setup_s on every workload"},
	{"xpath.compile_us", "read_p50_ms on served (and update's ad-hoc reads)"},
	{"xpath.eval_ms.", "ops_per_s and read_p50_ms on scan"},
	{"staircase.tuples.", "cpu_ms_per_op on scan"},
	{"serialize.ms_per_query", "read_p50_ms on scan"},
	{"xupdate.parse_us", "write_p50_ms on update"},
	{"tx.apply_us", "write_p50_ms on update"},
	{"tx.commit_us", "write_p50_ms and write_p90_ms on update"},
	{"tx.snapshot_build_us", "read_p50_ms on update and served"},
	{"tx.snapshot_hit_us", "read_p50_ms on update and served"},
	{"wal.bytes_per_commit", "write_amp on update"},
	{"ckpt.count", "write_amp on update"},
	{"ckpt.bytes_per_ckpt", "write_amp on update"},
	{"ckpt.dedupe_ratio", "write_amp on update"},
	{"ckpt.checkpoint_ms", "write_p90_ms on update"},
	{"core.live_nodes", "heap_mb on every workload"},
	{"core.fill", "heap_mb on every workload"},
	{"server.read_overhead_us", "read_p50_ms on served"},
	{"server.update_overhead_us", "write_p50_ms on served"},
	{"wire.encode_us", "cpu_ms_per_op on served"},
	{"wire.decode_us", "cpu_ms_per_op on served"},
	{"go.", "cpu_ms_per_op on every workload"},
	{"trace.overhead_frac", "none: the cost of tracing itself, traced vs untraced ops_per_s"},
}

// effectOf returns what a per-layer metric should move, or "".
func effectOf(name string) string {
	for _, e := range layerEffects {
		if name == e.prefix || (strings.HasSuffix(e.prefix, ".") && strings.HasPrefix(name, e.prefix)) {
			return e.moves
		}
	}
	return ""
}

func describeLayers(w io.Writer, sp *spec) {
	for _, m := range sp.PerLayer {
		fmt.Fprintf(w, "%-34s %-6s -> %s\n", m.Name, m.Unit, effectOf(m.Name))
	}
}
