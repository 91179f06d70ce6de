package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mxq/internal/xmark"
	"mxq/internal/xupdate"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 95; i++ {
		l.ok(time.Duration(i+1) * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		l.fail()
	}
	// The five failures sort above every success, so p90 is the 90th
	// success, and p50 is unaffected.
	if v, err := l.pct(0.9); err != nil || v != 90 {
		t.Errorf("p90 with 5%% failures = %g, %v; want 90", v, err)
	}
	for i := 0; i < 10; i++ {
		l.fail()
	}
	if _, err := l.pct(0.9); err == nil {
		t.Error("p90 with 15% failures: want an error, the percentile is +Inf")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) and statistics.median from Python 3.11.
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
	} {
		q1, med, q3, err := quartiles(c.v)
		if err != nil || q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, %v; want %g %g %g", c.v, q1, med, q3, err, c.q1, c.med, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestCPUTimeCountsBusyWork(t *testing.T) {
	u0, _ := cpuTimes()
	c0, t0 := cpuTime(), time.Now()
	x := 0.0
	for time.Since(t0) < 100*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	u1, _ := cpuTimes()
	if cpu < 50*time.Millisecond || cpu > wall+50*time.Millisecond {
		t.Errorf("a %v busy loop on one goroutine used %v CPU", wall, cpu)
	}
	if u1-u0 < 50*time.Millisecond {
		t.Errorf("a %v busy loop used %v user CPU", wall, u1-u0)
	}
	if x == 0 {
		t.Fatal("unreachable")
	}
}

func TestBytesWrittenSeesFileWrites(t *testing.T) {
	w0, err := bytesWritten()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "w"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w1, err := bytesWritten()
	if err != nil {
		t.Fatal(err)
	}
	if w1-w0 < 1<<16 {
		t.Errorf("wrote 64 KiB, write counter moved %d", w1-w0)
	}
}

func TestBenchmarkJSONIsValid(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"scan", "update", "served"} {
		if !sp.hasWorkload(w) {
			t.Errorf("workload %s missing", w)
		}
	}
	for _, m := range sp.PerLayer {
		if effectOf(m.Name) == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", m.Name)
		}
	}
	for _, q := range battery {
		for _, prefix := range []string{"xpath.eval_ms.", "staircase.tuples."} {
			if sp.metric(prefix+q.class) == nil {
				t.Errorf("battery class %s has no %s metric", q.class, prefix)
			}
		}
	}
}

func TestSpecRejectsMalformedMetrics(t *testing.T) {
	bound := 0.1
	big := 0.3
	base := func() *spec {
		return &spec{
			Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: 20,
			Workloads: []workload{{"a", "why a"}, {"b", "why b"}},
			EndToEnd:  []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: &bound}},
			PerLayer:  []metricSpec{{Name: "x.y", Unit: "us", Better: "lower"}},
		}
	}
	if err := base().validate(100); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*spec){
		"leading underscore": func(s *spec) { s.PerLayer[0].Name = "_x" },
		"name too long":      func(s *spec) { s.PerLayer[0].Name = strings.Repeat("a", 65) },
		"space in name":      func(s *spec) { s.PerLayer[0].Name = "a b" },
		"duplicate name":     func(s *spec) { s.PerLayer[0].Name = "setup_s" },
		"workload name used": func(s *spec) { s.PerLayer[0].Name = "a" },
		"unit too long":      func(s *spec) { s.PerLayer[0].Unit = strings.Repeat("u", 17) },
		"bad direction":      func(s *spec) { s.PerLayer[0].Better = "more" },
		"bound too wide":     func(s *spec) { s.EndToEnd[0].Bound = &big },
		"no bound":           func(s *spec) { s.EndToEnd[0].Bound = nil },
		"per-layer bound":    func(s *spec) { s.PerLayer[0].Bound = &bound },
		"no setup_s":         func(s *spec) { s.EndToEnd[0].Name = "setup_ms" },
		"one workload":       func(s *spec) { s.Workloads = s.Workloads[:1] },
		"absolute path":      func(s *spec) { s.Paths[0] = "/perfbench" },
		"escaping command":   func(s *spec) { s.Command[1] = "../run.sh" },
		"two-line why":       func(s *spec) { s.Workloads[0].Why = "a\nb" },
	} {
		s := base()
		mutate(s)
		if err := s.validate(100); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReportPrintsExactlyTheListedMetrics(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{cfg: config{workload: "update"}, attempted: 1, metrics: map[string]float64{}}
	for _, m := range sp.EndToEnd {
		b.metrics[m.Name] = 1
	}
	res, err := report(b, sp.EndToEnd, sp)
	if err != nil || len(res.Metrics) != len(sp.EndToEnd) || !res.Correct {
		t.Fatalf("complete run: %v, %d metrics, correct=%v", err, len(res.Metrics), res.Correct)
	}
	b.metrics["not_listed"] = 1
	if _, err := report(b, sp.EndToEnd, sp); err == nil {
		t.Error("a metric missing from BENCHMARK.json was reported")
	}
	delete(b.metrics, "not_listed")
	delete(b.metrics, "heap_mb")
	if _, err := report(b, sp.EndToEnd, sp); err == nil {
		t.Error("a run without heap_mb was reported")
	}
	b.metrics["heap_mb"] = math.NaN()
	if _, err := report(b, sp.EndToEnd, sp); err == nil {
		t.Error("a NaN metric was reported")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40}, // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 50, End: 60},
		{ID: 5, Parent: 4, Name: "c", Start: 52, End: 55},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"req": 60, "a": 27, "b": 20, "c": 3} {
		if got := self[name].self; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	if self["a"].count != 2 {
		t.Errorf("a has %d spans, want 2", self["a"].count)
	}
}

func TestMutatorKeepsMarkersInBand(t *testing.T) {
	m := newMutator(7, xmark.CountsFor(smallSF), "t")
	kinds := map[string]int{}
	for i := 0; i < 5000; i++ {
		op := m.next()
		if i < 200 {
			if _, err := xupdate.ParseString(op.xu); err != nil {
				t.Fatalf("op %d does not parse: %v\n%s", i, err, op.xu)
			}
		}
		for _, k := range []string{"update", "append", "insert-before", "remove"} {
			if strings.Contains(op.xu, "<xupdate:"+k+" ") {
				kinds[k]++
			}
		}
		m.ack(op)
		if len(m.live) > maxLive {
			t.Fatalf("%d live markers, band is %d", len(m.live), maxLive)
		}
	}
	if m.adds-m.removes != len(m.live) {
		t.Errorf("adds %d - removes %d != live %d", m.adds, m.removes, len(m.live))
	}
	for _, k := range []string{"update", "append", "insert-before", "remove"} {
		if kinds[k] < 250 {
			t.Errorf("only %d %s commands in 5000", kinds[k], k)
		}
	}
}
