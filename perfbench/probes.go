package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"mxq"
	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/wire"
	"mxq/internal/xpath"
	"mxq/internal/xupdate"
)

// The layer probes of a traced run. Layers the workload's own traffic
// passes through are measured from that traffic's spans; the others are
// timed here, on the workload's document after its timed phases, so
// every traced run reports every layer.

// batteryProbe records the battery's tuple-inspection counts and three
// traced sweeps over the document as loaded (update and served; scan
// traces its own sweeps).
func (b *bench) batteryProbe() error {
	qs, err := b.prepareBattery()
	if err != nil {
		return err
	}
	if err := b.countTuples(qs); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	for i := 0; i < 3; i++ {
		vars := b.personID(rng)
		for j := range qs {
			if _, err := b.tracedQuery(b.rec, &qs[j], vars); err != nil {
				return err
			}
		}
	}
	return nil
}

// statsSampler samples the document's Stats while a traced phase runs:
// the WAL tail's bytes per record, and the checkpoint counters' change.
type statsSampler struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	walRatios []float64
	first     mxq.Stats
}

func (b *bench) startSampler() *statsSampler {
	s := &statsSampler{stop: make(chan struct{}), first: b.doc.Stats()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if st := b.doc.Stats(); st.WALRecords > 0 {
					s.walRatios = append(s.walRatios, float64(st.WALBytes)/float64(st.WALRecords))
				}
			}
		}
	}()
	return s
}

// ckptDelta accumulates checkpoint counters over traced phases.
type ckptDelta struct {
	count, bytes, written, reused uint64
	walRatios                     []float64
}

func (b *bench) stopSampler(s *statsSampler) {
	close(s.stop)
	s.wg.Wait()
	last := b.doc.Stats()
	d := &b.ckpt
	d.count += last.Checkpoints - s.first.Checkpoints
	d.bytes += last.CkptBytesWritten - s.first.CkptBytesWritten
	d.written += last.CkptChunksWritten - s.first.CkptChunksWritten
	d.reused += last.CkptChunksReused - s.first.CkptChunksReused
	d.walRatios = append(d.walRatios, s.walRatios...)
}

// probes times the layers the workload's traffic does not isolate.
func (b *bench) probes() error {
	if err := b.loadProbe(); err != nil {
		return err
	}
	if err := b.compileProbe(); err != nil {
		return err
	}
	if err := b.xupdateProbe(); err != nil {
		return err
	}
	m := newMutator(b.cfg.seed+99, b.counts, "p")
	if b.cfg.workload == "served" {
		// Served writes run inside the server; time the engine's write
		// layers in-process with the same modification lists.
		for i := 0; i < 200; i++ {
			if err := commit(b.rec, b.doc, m.textOp().xu); err != nil {
				return err
			}
		}
	}
	if err := b.snapshotProbe(m); err != nil {
		return err
	}
	if err := b.checkpointProbe(m); err != nil {
		return err
	}
	if err := b.serverProbe(m); err != nil {
		return err
	}
	st := b.doc.Stats()
	b.metrics["core.live_nodes"] = float64(st.LiveNodes)
	b.metrics["core.fill"] = st.Fill
	return b.wireProbe()
}

// since is the time elapsed since t0 in the given unit.
func since(t0 time.Time, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(unit)
}

// loadProbe times the two layers of LoadXML separately.
func (b *bench) loadProbe() error {
	var parse, build []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		tree, err := shred.Parse(strings.NewReader(b.xml), shred.Options{})
		if err != nil {
			return err
		}
		parse = append(parse, since(t0, time.Millisecond))
		t0 = time.Now()
		if _, err := core.Build(tree, core.Options{}); err != nil {
			return err
		}
		build = append(build, since(t0, time.Millisecond))
	}
	b.metrics["shred.parse_ms"] = median(parse)
	b.metrics["core.build_ms"] = median(build)
	return nil
}

// compileProbe times xpath.Parse over every query text the workloads
// send: the battery, the served reads and the write mix's selections.
func (b *bench) compileProbe() error {
	var texts []string
	for _, q := range battery {
		texts = append(texts, q.q)
	}
	for _, q := range servedReads {
		texts = append(texts, q.q)
	}
	m := newMutator(b.cfg.seed+98, b.counts, "c")
	for i := 0; i < 64; i++ {
		op := m.next()
		m.ack(op)
		q, _ := m.read()
		texts = append(texts, q)
	}
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range texts {
			if _, err := xpath.Parse(q); err != nil {
				return fmt.Errorf("compiling %s: %w", q, err)
			}
		}
	}
	b.metrics["xpath.compile_us"] = since(t0, time.Microsecond) / float64(reps*len(texts))
	return nil
}

// xupdateProbe times xupdate.ParseString over the write mix's texts.
func (b *bench) xupdateProbe() error {
	m := newMutator(b.cfg.seed+97, b.counts, "x")
	texts := make([]string, 256)
	for i := range texts {
		op := m.next()
		m.ack(op)
		texts[i] = op.xu
	}
	const reps = 4
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range texts {
			if _, err := xupdate.ParseString(s); err != nil {
				return err
			}
		}
	}
	b.metrics["xupdate.parse_us"] = since(t0, time.Microsecond) / float64(reps*len(texts))
	return nil
}

// snapshotProbe times Document.Snapshot right after a commit (the
// per-version snapshot is built) and again with no commit since (the
// cached one is shared).
func (b *bench) snapshotProbe(m *mutator) error {
	var build, hit []float64
	for i := 0; i < 64; i++ {
		if _, err := b.doc.Update(m.textOp().xu); err != nil {
			return err
		}
		t0 := time.Now()
		s := b.doc.Snapshot()
		build = append(build, since(t0, time.Microsecond))
		s.Close()
		t0 = time.Now()
		s = b.doc.Snapshot()
		hit = append(hit, since(t0, time.Microsecond))
		s.Close()
	}
	b.metrics["tx.snapshot_build_us"] = median(build)
	b.metrics["tx.snapshot_hit_us"] = median(hit)
	return nil
}

// checkpointProbe times synchronous checkpoints, each after a few
// commits so it has churn to write. Their counters stand in for the
// auto-checkpoints of a workload that runs none (scan).
func (b *bench) checkpointProbe(m *mutator) error {
	s0 := b.doc.Stats()
	var ms []float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 16; j++ {
			if _, err := b.doc.Update(m.textOp().xu); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := b.doc.Checkpoint(); err != nil {
			return err
		}
		ms = append(ms, since(t0, time.Millisecond))
	}
	b.metrics["ckpt.checkpoint_ms"] = median(ms)
	if b.ckpt.count == 0 {
		s1 := b.doc.Stats()
		b.ckpt.count = s1.Checkpoints - s0.Checkpoints
		b.ckpt.bytes = s1.CkptBytesWritten - s0.CkptBytesWritten
		b.ckpt.written = s1.CkptChunksWritten - s0.CkptChunksWritten
		b.ckpt.reused = s1.CkptChunksReused - s0.CkptChunksReused
	}
	return nil
}

// serverProbe measures what the served path adds to a call: the client
// round trip minus the same call made in-process, alternating the two.
func (b *bench) serverProbe(m *mutator) error {
	srv := b.srv
	if srv == nil {
		var err error
		if srv, err = startServer(b.db); err != nil {
			return err
		}
		defer srv.stop()
	}
	ctx := context.Background()
	c := srv.clients[0]
	q := servedReads[0].q
	p, err := b.doc.Prepare(q)
	if err != nil {
		return err
	}
	var wireRead, localRead []float64
	for i := 0; i < 400; i++ {
		vars := map[string]string{"id": fmt.Sprintf("person%d", i%b.counts.Persons)}
		t0 := time.Now()
		if _, err := c.Query(ctx, docName, q, vars); err != nil {
			return err
		}
		wireRead = append(wireRead, since(t0, time.Microsecond))
		t0 = time.Now()
		if _, err := p.Run(vars); err != nil {
			return err
		}
		localRead = append(localRead, since(t0, time.Microsecond))
	}
	var wireUpd, localUpd []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if _, err := c.Update(ctx, docName, m.textOp().xu); err != nil {
			return err
		}
		wireUpd = append(wireUpd, since(t0, time.Microsecond))
		t0 = time.Now()
		if _, err := b.doc.Update(m.textOp().xu); err != nil {
			return err
		}
		localUpd = append(localUpd, since(t0, time.Microsecond))
	}
	b.metrics["server.read_overhead_us"] = median(wireRead) - median(localRead)
	b.metrics["server.update_overhead_us"] = median(wireUpd) - median(localUpd)
	return nil
}

// wireProbe times the frame codec on a query request and a sixteen-item
// text result: payload assembly plus WriteFrame, and ReadFrame plus
// payload decoding.
func (b *bench) wireProbe() error {
	names, err := b.doc.Query(`/site/people/person[position() <= 16]/name/text()`)
	if err != nil {
		return err
	}
	encode := func(buf *bytes.Buffer) error {
		var req wire.PayloadBuilder
		req.String(docName).String(servedReads[0].q).Uvarint(1).String("id").String("person1")
		if err := wire.WriteFrame(buf, wire.Frame{ID: 7, Op: wire.OpQuery, Payload: req.Bytes()}); err != nil {
			return err
		}
		var res wire.PayloadBuilder
		res.Uvarint(uint64(len(names)))
		for _, it := range names {
			res.Byte(wire.KindCode(it.Kind)).String(it.Value).String(it.XML)
		}
		return wire.WriteFrame(buf, wire.Frame{ID: 7, Op: wire.StatusOK, Payload: res.Bytes()})
	}
	decode := func(r *bytes.Reader) error {
		f, err := wire.ReadFrame(r, 0)
		if err != nil {
			return err
		}
		p := wire.NewPayloadReader(f.Payload)
		for i := 0; i < 2; i++ {
			if _, err := p.String(); err != nil {
				return err
			}
		}
		n, err := p.Uvarint()
		if err != nil {
			return err
		}
		for i := uint64(0); i < 2*n; i++ {
			if _, err := p.String(); err != nil {
				return err
			}
		}
		if f, err = wire.ReadFrame(r, 0); err != nil {
			return err
		}
		p = wire.NewPayloadReader(f.Payload)
		if n, err = p.Uvarint(); err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			if _, err := p.Byte(); err != nil {
				return err
			}
			if _, err := p.String(); err != nil {
				return err
			}
			if _, err := p.String(); err != nil {
				return err
			}
		}
		return nil
	}
	const reps = 20000
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf.Reset()
		if err := encode(&buf); err != nil {
			return err
		}
	}
	b.metrics["wire.encode_us"] = since(t0, time.Microsecond) / (2 * reps)
	frames := buf.Bytes()
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if err := decode(bytes.NewReader(frames)); err != nil {
			return err
		}
	}
	b.metrics["wire.decode_us"] = since(t0, time.Microsecond) / (2 * reps)
	return nil
}

// traceMetrics derives the per-layer metrics from the recorded spans and
// the sampled Stats.
func (b *bench) traceMetrics() error {
	self := selfTimes(b.rec.spans)
	mean := func(name string, unit time.Duration) (float64, error) {
		lt, ok := self[name]
		if !ok {
			return 0, fmt.Errorf("no %q spans recorded", name)
		}
		return float64(lt.meanSelf()) / float64(unit), nil
	}
	for _, c := range []struct {
		metric, span string
		unit         time.Duration
	}{
		{"serialize.ms_per_query", "serialize", time.Millisecond},
		{"tx.apply_us", "tx.apply", time.Microsecond},
		{"tx.commit_us", "tx.commit", time.Microsecond},
	} {
		v, err := mean(c.span, c.unit)
		if err != nil {
			return err
		}
		b.metrics[c.metric] = v
	}
	for _, q := range battery {
		v, err := mean("xpath.eval."+q.class, time.Millisecond)
		if err != nil {
			return err
		}
		b.metrics["xpath.eval_ms."+q.class] = v
	}
	d := b.ckpt
	if d.count == 0 || len(d.walRatios) == 0 {
		return fmt.Errorf("traced phases saw %d checkpoints and %d WAL samples", d.count, len(d.walRatios))
	}
	b.metrics["wal.bytes_per_commit"] = median(d.walRatios)
	b.metrics["ckpt.count"] = float64(d.count)
	b.metrics["ckpt.bytes_per_ckpt"] = float64(d.bytes) / float64(d.count)
	b.metrics["ckpt.dedupe_ratio"] = float64(d.reused) / float64(d.written+d.reused)
	return nil
}
