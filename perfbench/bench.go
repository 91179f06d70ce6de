package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"mxq"
	"mxq/internal/xmark"
)

// Sizes and policies shared by the workloads. They are part of the
// benchmark's definition: changing one re-baselines every number.
const (
	scanSF       = 0.05 // 4.4 MB, 168k nodes: several times the 4 MiB L2
	smallSF      = 0.01 // 0.85 MB, 34k nodes
	setupRepeats = 5    // setup_s is the median of this many set-ups
	ckptRecords  = 1024 // auto-checkpoint after this many WAL records
	docName      = "xmark"
)

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// bench is one run: the generated input, the open database and what the
// run has measured and checked so far.
type bench struct {
	cfg    config
	dir    string // this run's directory inside the checkout
	data   string // the database directory of the kept set-up
	xml    string
	counts xmark.Counts

	db  *mxq.Database
	doc *mxq.Document
	srv *served // served workload only

	muts       []*mutator
	attempted  int64
	failed     int64
	mismatches []string

	rec     *tracer // the traced run's span recorder
	tr      *tracer // rec while a traced phase runs, else nil
	ckpt    ckptDelta
	metrics map[string]float64
}

// mismatch records a wrong result. It fails the run; it is never
// counted as noise.
func (b *bench) mismatch(format string, args ...any) {
	if len(b.mismatches) < 20 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

// runWorkload generates the input, sets up, runs the workload's timed
// phases and gates, and returns the run's metrics.
func runWorkload(cfg config) (*bench, error) {
	b := &bench{
		cfg:     cfg,
		dir:     filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", cfg.workload, os.Getpid())),
		metrics: make(map[string]float64),
	}
	if cfg.trace {
		b.rec = newTracer()
	}
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)

	sf := smallSF
	if cfg.workload == "scan" {
		sf = scanSF
	}
	var sb strings.Builder
	if _, err := xmark.NewGenerator(sf, uint64(cfg.seed)).WriteTo(&sb); err != nil {
		return nil, fmt.Errorf("generating XMark: %w", err)
	}
	b.xml = sb.String()
	b.counts = xmark.CountsFor(sf)

	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.closeAll()

	var err error
	switch cfg.workload {
	case "scan":
		err = b.runScan()
	case "update":
		err = b.runUpdate()
	case "served":
		err = b.runServed()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := b.probes(); err != nil {
			return nil, err
		}
		if err := b.traceMetrics(); err != nil {
			return nil, err
		}
		if err := b.rec.write(".bench_build", "trace-"+cfg.workload+".jsonl"); err != nil {
			return nil, err
		}
	}
	if err := b.durabilityGate(); err != nil {
		return nil, err
	}
	return b, nil
}

// setup opens, loads and checkpoints the database (and starts the
// server) setupRepeats times, keeping the last set-up for the run.
// XMark generation happens before and is not part of it. setup_s is
// the median of the user CPU time each set-up takes. Its wall time and
// system CPU time are dominated by the initial checkpoint's fsyncs,
// which on the host disk vary by half from one run to the next and
// would hide any change in the work set-up does.
func (b *bench) setup() error {
	policy := mxq.CheckpointPolicy{Records: ckptRecords}
	if b.cfg.workload == "scan" {
		// Scan's writes measure the commit path on a large document. Its
		// auto-checkpoints would each write megabytes of fsynced chunks,
		// pacing the writes by the host disk: their latencies then
		// spread by a third from one run to the next.
		policy = mxq.CheckpointPolicy{}
	}
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("db%d", i))
		u0, _ := cpuTimes()
		db, err := mxq.Open(mxq.Options{
			Dir:             dir,
			NoSync:          true,
			CheckpointEvery: policy,
		})
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		doc, err := db.LoadXMLString(docName, b.xml)
		if err == nil {
			err = doc.Checkpoint()
		}
		var srv *served
		if err == nil && b.cfg.workload == "served" {
			srv, err = startServer(db)
		}
		if err != nil {
			db.Close()
			return fmt.Errorf("set-up: %w", err)
		}
		u1, _ := cpuTimes()
		times = append(times, (u1 - u0).Seconds())
		if i < setupRepeats-1 {
			if srv != nil {
				srv.stop()
			}
			if err := db.Close(); err != nil {
				return fmt.Errorf("closing set-up %d: %w", i, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		b.db, b.doc, b.srv, b.data = db, doc, srv, dir
	}
	b.metrics["setup_s"] = median(times)
	return nil
}

// closeAll stops the server and closes the database, if still open.
func (b *bench) closeAll() error {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
	if b.db == nil {
		return nil
	}
	err := b.db.Close()
	b.db = nil
	return err
}

// phase is the accounting of one timed phase.
type phase struct {
	ops     int64
	wall    time.Duration
	cpu     time.Duration
	written int64 // bytes handed to write(2)
	alloc   uint64
	mallocs uint64
	gcCPU   float64 // runtime/metrics CPU seconds: spent in the GC
	allCPU  float64 // and in total
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

func (p *phase) add(q phase) {
	p.ops += q.ops
	p.wall += q.wall
	p.cpu += q.cpu
	p.written += q.written
	p.alloc += q.alloc
	p.mallocs += q.mallocs
	p.gcCPU += q.gcCPU
	p.allCPU += q.allCPU
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// measure runs fn, which returns the number of operations it completed,
// and accounts wall time, process CPU, written bytes and allocation.
func measure(fn func() (int64, error)) (phase, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(gcSamples)
	gc0, all0 := gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
	w0, err := bytesWritten()
	if err != nil {
		return phase{}, err
	}
	c0, t0 := cpuTime(), time.Now()
	ops, err := fn()
	p := phase{ops: ops, wall: time.Since(t0), cpu: cpuTime() - c0}
	if err != nil {
		return p, err
	}
	w1, err := bytesWritten()
	if err != nil {
		return p, err
	}
	p.written = w1 - w0
	runtime.ReadMemStats(&m1)
	metrics.Read(gcSamples)
	p.alloc, p.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	p.gcCPU = gcSamples[0].Value.Float64() - gc0
	p.allCPU = gcSamples[1].Value.Float64() - all0
	if ops == 0 {
		return p, fmt.Errorf("no operation completed in %v", p.wall)
	}
	return p, nil
}

// timed runs one measured phase of length d, recording spans if traced.
func (b *bench) timed(d time.Duration, traced bool, run func(d time.Duration) (int64, error)) (phase, error) {
	if traced {
		b.tr = b.rec
		s := b.startSampler()
		defer func() {
			b.stopSampler(s)
			b.tr = nil
		}()
	}
	return measure(func() (int64, error) { return run(d) })
}

// traceSlices is how many alternating untraced and traced slices a
// traced run cuts its main phase into, so that a drift in the machine's
// speed during the run falls on both sides of trace.overhead_frac.
const traceSlices = 10

// timedPhases runs a workload's main phase for its share of the run:
// untraced for all of it, or, in a traced run, in alternating untraced
// and traced slices. The untraced slices are the baseline of
// trace.overhead_frac and the source of the go.* metrics.
func (b *bench) timedPhases(share float64, run func(d time.Duration) (int64, error)) (phase, error) {
	total := b.share(share)
	if !b.cfg.trace {
		return b.timed(total, false, run)
	}
	var plain, traced phase
	for i := 0; i < traceSlices; i++ {
		p, err := b.timed(total/traceSlices, i%2 == 1, run)
		if err != nil {
			return p, err
		}
		if i%2 == 1 {
			traced.add(p)
		} else {
			plain.add(p)
		}
	}
	b.metrics["trace.overhead_frac"] = 1 - traced.opsPerSec()/plain.opsPerSec()
	b.metrics["go.alloc_kb_per_op"] = float64(plain.alloc) / 1024 / float64(plain.ops)
	b.metrics["go.mallocs_per_op"] = float64(plain.mallocs) / float64(plain.ops)
	b.metrics["go.gc_cpu_frac"] = plain.gcCPU / plain.allCPU
	return plain, nil
}

// share is the given fraction of the run's measured time.
func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * b.cfg.seconds * float64(time.Second))
}

// endToEnd fills the end-to-end metrics of an untraced run.
// wrote and payload are the bytes written and the modification-list
// bytes acknowledged over the phases that wrote.
func (b *bench) endToEnd(main phase, reads, writes *latencies, wrote, payload int64) error {
	if b.cfg.trace {
		return nil
	}
	b.metrics["ops_per_s"] = main.opsPerSec()
	b.metrics["cpu_ms_per_op"] = float64(main.cpu) / 1e6 / float64(main.ops)
	for _, c := range []struct {
		name string
		l    *latencies
		p    float64
	}{
		{"read_p50_ms", reads, 0.5}, {"read_p90_ms", reads, 0.9},
		{"write_p50_ms", writes, 0.5}, {"write_p90_ms", writes, 0.9},
	} {
		v, err := c.l.pct(c.p)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		b.metrics[c.name] = v
	}
	if payload == 0 || wrote <= 0 {
		return fmt.Errorf("write_amp: %d bytes written for %d payload bytes", wrote, payload)
	}
	b.metrics["write_amp"] = float64(wrote) / float64(payload)
	// The heap the database holds at rest: the samples are the
	// benchmark's, so drop them, and a synchronous checkpoint waits out
	// any background one, whose pinned snapshot and buffers would
	// otherwise be counted or not depending on timing.
	*reads, *writes = latencies{}, latencies{}
	if err := b.doc.Checkpoint(); err != nil {
		return err
	}
	b.metrics["heap_mb"] = liveHeapMB()
	return nil
}

// commit applies one modification list in its own transaction, with
// the engine's layers as child spans of one write request.
func commit(tr *tracer, doc *mxq.Document, xu string) error {
	req := tr.root("write")
	defer tr.end(req)
	t := doc.Begin()
	s := tr.child(req, "tx.apply")
	_, err := t.Update(xu)
	tr.end(s)
	if err != nil {
		t.Abort()
		return err
	}
	s = tr.child(req, "tx.commit")
	err = t.Commit()
	tr.end(s)
	return err
}

// writeLoop runs the seeded write mix in-process on one client for d.
// With readEvery > 0, each committed write is followed with probability
// 1/readEvery by a selective read of something an earlier write changed.
func (b *bench) writeLoop(m *mutator, rng *rand.Rand, d time.Duration, readEvery int, reads, writes *latencies) int64 {
	var ops int64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		op := m.next()
		t0 := time.Now()
		err := commit(b.tr, b.doc, op.xu)
		b.attempted++
		if err != nil {
			b.failed++
			writes.fail()
			continue
		}
		writes.ok(time.Since(t0))
		ops++
		m.ack(op)
		if readEvery == 0 || rng.Intn(readEvery) != 0 {
			continue
		}
		q, want := m.read()
		t0 = time.Now()
		req := b.tr.root("read")
		res, err := b.doc.Query(q)
		b.tr.end(req)
		b.attempted++
		if err != nil {
			b.failed++
			reads.fail()
			continue
		}
		reads.ok(time.Since(t0))
		ops++
		if len(res) != 1 || res[0].Value != want {
			b.mismatch("read %s: got %v, want [%s]", q, res.Strings(), want)
		}
	}
	return ops
}

// durabilityGate closes the database after the timed phases, reopens it
// from its directory, and requires the reopened document to serialize
// byte-identically, pass the storage invariants and hold exactly the
// markers acknowledged writes left.
func (b *bench) durabilityGate() error {
	want := 0
	for _, m := range b.muts {
		want += m.adds - m.removes
	}
	before, err := b.doc.XML()
	if err != nil {
		return fmt.Errorf("serializing before close: %w", err)
	}
	if n, err := b.doc.Count("//marker"); err != nil {
		return err
	} else if n != want {
		b.mismatch("before close: %d markers, want %d", n, want)
	}
	if err := b.closeAll(); err != nil {
		return fmt.Errorf("closing: %w", err)
	}
	db, err := mxq.Open(mxq.Options{Dir: b.data, NoSync: true})
	if err != nil {
		return fmt.Errorf("reopening: %w", err)
	}
	defer db.Close()
	doc, ok := db.Document(docName)
	if !ok {
		b.mismatch("reopened database has no document %q", docName)
		return nil
	}
	after, err := doc.XML()
	if err != nil {
		return fmt.Errorf("serializing after reopen: %w", err)
	}
	if after != before {
		b.mismatch("reopened document differs (%d bytes before close, %d after)", len(before), len(after))
	}
	if err := doc.CheckInvariants(); err != nil {
		b.mismatch("reopened document: %v", err)
	}
	if n, err := doc.Count("//marker"); err != nil {
		return err
	} else if n != want {
		b.mismatch("after reopen: %d markers, want %d acknowledged appends minus removes", n, want)
	}
	return nil
}
