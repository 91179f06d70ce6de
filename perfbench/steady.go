package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSteady runs the workload n times, each in a fresh child process
// with its own seed, and prints every end-to-end metric's median and
// quartile spread ((q3-q1)/median) next to its bound. A spread above a
// third of its bound means the benchmark is not yet steady enough to
// judge a change by that metric.
func runSteady(stdout, stderr io.Writer, sp *spec, workload string, seed int64, seconds float64, n int) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d: %w", workload, s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s seed %d: %w", workload, s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("%s seed %d: correct=%v, %d of %d failed", workload, s, res.Correct, res.Failed, res.Attempted)
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", s, lines[len(lines)-1])
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Fprintf(stdout, "%-14s %12s %12s %12s %8s %6s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound")
	for _, m := range sp.EndToEnd {
		q1, med, q3, err := quartiles(values[m.Name])
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		spread := (q3 - q1) / med
		flag := ""
		if m.Name != "setup_s" && spread > *m.Bound/3 {
			flag = "  above a third of the bound"
		}
		fmt.Fprintf(stdout, "%-14s %12.5g %12.5g %12.5g %8.4f %6.3f %.2f%s\n", m.Name, q1, med, q3, spread, *m.Bound, spread / *m.Bound, flag)
	}
	return nil
}
