package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 of 50 samples would rest on five values and move with every
// run, so the benchmark refuses to report it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// ascending-sorted samples and whether at least minBeyond samples lie
// beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// latencies collects per-operation latencies of one operation class. A
// failed operation is a sample of +Inf: it misses every latency limit.
type latencies struct {
	ms     []float64
	failed int
}

func (l *latencies) ok(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }
func (l *latencies) fail()              { l.failed++ }

func (l *latencies) merge(o *latencies) {
	l.ms = append(l.ms, o.ms...)
	l.failed += o.failed
}

func (l *latencies) count() int { return len(l.ms) + l.failed }

// pct reports the p-quantile over successes and failures together. It
// is an error when the sample cannot support p (fewer than minBeyond
// samples beyond it) or when failures reach it.
func (l *latencies) pct(p float64) (float64, error) {
	all := make([]float64, 0, l.count())
	all = append(all, l.ms...)
	for i := 0; i < l.failed; i++ {
		all = append(all, math.Inf(1))
	}
	sort.Float64s(all)
	v, ok := percentile(all, p)
	switch {
	case !ok:
		return 0, fmt.Errorf("p%g needs %d samples beyond it; only %d samples", p*100, minBeyond, len(all))
	case math.IsInf(v, 1):
		return 0, fmt.Errorf("p%g falls on failed operations (%d of %d failed)", p*100, l.failed, len(all))
	}
	return v, nil
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method) and statistics.median compute them, so
// the spread printed here is the spread the benchmark is judged by.
func quartiles(values []float64) (q1, med, q3 float64, err error) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two values")
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3), nil
}

// median is the middle value, or the mean of the middle two, of a
// non-empty sample.
func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// cpuTimes returns the process's user and system CPU time (getrusage).
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	u, s := cpuTimes()
	return u + s
}

// bytesWritten is the process's cumulative write(2) byte count (wchar in
// /proc/self/io): every byte handed to a file or socket, whether or not
// it later reaches a device.
func bytesWritten() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("reading written bytes: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("reading written bytes: no wchar line in /proc/self/io")
}

// liveHeapMB forces collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
