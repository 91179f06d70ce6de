package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mxq"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// scanReadShare is the part of a scan run spent sweeping the battery;
// the rest times writes on the same large document after the sweeps.
// The sweeps go on past their share until there are minSweeps samples,
// so read_p90_ms always has ten samples beyond it.
const (
	scanReadShare = 0.9
	minSweeps     = 110
)

// query is one battery class, prepared on the engine and compiled for
// the layer-by-layer path.
type query struct {
	class string
	prep  *mxq.Prepared
	expr  *xpath.Expr
	want  int // result length
}

// personID picks the person-by-id binding of one sweep.
func (b *bench) personID(rng *rand.Rand) map[string]string {
	return map[string]string{"id": fmt.Sprintf("person%d", rng.Intn(b.counts.Persons))}
}

// prepareBattery compiles the battery for the engine's document.
func (b *bench) prepareBattery() ([]query, error) {
	qs := make([]query, len(battery))
	for i, bq := range battery {
		p, err := b.doc.Prepare(bq.q)
		if err != nil {
			return nil, err
		}
		e, err := xpath.Parse(bq.q)
		if err != nil {
			return nil, err
		}
		qs[i] = query{class: bq.class, prep: p, expr: e}
	}
	return qs, nil
}

// verifyBattery runs every battery query on the engine and on the
// read-only reference store built independently from the same XML, and
// compares their result fingerprints. It also records each query's
// result length for the cheap per-sweep check.
func (b *bench) verifyBattery(qs []query, ref xenc.DocView, vars map[string]string) error {
	bound := map[string]xpath.Value{}
	for k, v := range vars {
		bound[k] = xpath.String(v)
	}
	for i := range qs {
		got, err := qs[i].prep.Run(vars)
		if err != nil {
			return fmt.Errorf("%s: %w", qs[i].class, err)
		}
		val, err := qs[i].expr.EvalVars(ref, bound)
		if err != nil {
			return fmt.Errorf("%s on the reference store: %w", qs[i].class, err)
		}
		want, err := materialize(ref, val)
		if err != nil {
			return err
		}
		if g, w := fingerprint(got), fingerprint(want); g != w {
			b.mismatch("%s: engine result %s, reference %s", qs[i].class, g, w)
		}
		qs[i].want = len(want) // the same for every person-by-id binding
	}
	return nil
}

// runScan times seeded sweeps of the battery over the large document,
// then the write mix on the same document.
func (b *bench) runScan() error {
	tree, err := shred.Parse(strings.NewReader(b.xml), shred.Options{})
	if err != nil {
		return err
	}
	ref, err := rostore.Build(tree)
	if err != nil {
		return err
	}
	qs, err := b.prepareBattery()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	// Warm-up: two verified sweeps fill the snapshot and plan caches.
	for i := 0; i < 2; i++ {
		if err := b.verifyBattery(qs, ref, b.personID(rng)); err != nil {
			return err
		}
	}
	if b.cfg.trace {
		if err := b.countTuples(qs); err != nil {
			return err
		}
	}

	reads := &latencies{}
	main, err := b.timedPhases(scanReadShare, func(d time.Duration) (int64, error) {
		need := minSweeps
		if b.cfg.trace { // a traced run reports no percentiles
			need = 0
		}
		var ops int64
		for deadline, sweeps := time.Now().Add(d), 0; time.Now().Before(deadline) || sweeps < need; sweeps++ {
			ops += b.sweep(qs, rng, reads)
		}
		return ops, nil
	})
	if err != nil {
		return err
	}
	// The sweeps left the document as loaded: verify once more.
	if err := b.verifyBattery(qs, ref, b.personID(rng)); err != nil {
		return err
	}

	m := newMutator(b.cfg.seed, b.counts, "")
	b.muts = append(b.muts, m)
	// An untimed warm-up of the write path, counted nowhere.
	attempted, failed := b.attempted, b.failed
	b.writeLoop(m, rng, b.share(0.02), 0, nil, &latencies{})
	b.attempted, b.failed = attempted, failed
	payload := m.payload
	writes := &latencies{}
	wp, err := b.timed(b.share(1-scanReadShare), b.cfg.trace, func(d time.Duration) (int64, error) {
		return b.writeLoop(m, rng, d, 0, nil, writes), nil
	})
	if err != nil {
		return err
	}
	return b.endToEnd(main, reads, writes, wp.written, m.payload-payload)
}

// sweep runs every battery query once in a seeded order. Its latency
// sample is the sweep's time divided by the battery size, so each
// sample weighs every query class alike.
func (b *bench) sweep(qs []query, rng *rand.Rand, reads *latencies) int64 {
	vars := b.personID(rng)
	order := rng.Perm(len(qs))
	failed := false
	var ok int64
	t0 := time.Now()
	for _, i := range order {
		n, err := b.runQuery(&qs[i], vars)
		b.attempted++
		switch {
		case err != nil:
			b.failed++
			failed = true
			continue
		case n != qs[i].want:
			b.mismatch("%s: %d results, want %d", qs[i].class, n, qs[i].want)
		}
		ok++
	}
	per := time.Since(t0) / time.Duration(len(qs))
	for range qs {
		if failed {
			reads.fail()
		} else {
			reads.ok(per)
		}
	}
	return ok
}

// runQuery runs one query and returns its result length: through the
// engine's Prepared.Run untraced, and layer by layer (evaluation, then
// serialization of the result items) when traced.
func (b *bench) runQuery(q *query, vars map[string]string) (int, error) {
	if b.tr == nil {
		res, err := q.prep.Run(vars)
		return len(res), err
	}
	return b.tracedQuery(b.tr, q, vars)
}

func (b *bench) tracedQuery(tr *tracer, q *query, vars map[string]string) (int, error) {
	bound := map[string]xpath.Value{}
	for k, v := range vars {
		bound[k] = xpath.String(v)
	}
	req := tr.root("read")
	defer tr.end(req)
	n := 0
	err := b.doc.View(func(v xenc.DocView) error {
		s := tr.child(req, "xpath.eval."+q.class)
		val, err := q.expr.EvalVars(v, bound)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.child(req, "serialize")
		res, err := materialize(v, val)
		tr.end(s)
		n = len(res)
		return err
	})
	return n, err
}

// countTuples records each class's exact tuple-inspection count over the
// document as loaded (the person-by-id binding fixed by the seed).
func (b *bench) countTuples(qs []query) error {
	vars := map[string]xpath.Value{"id": xpath.String(fmt.Sprintf("person%d", uint64(b.cfg.seed)%uint64(b.counts.Persons)))}
	return b.doc.View(func(v xenc.DocView) error {
		for _, q := range qs {
			cv := &countingView{DocView: v}
			if _, err := q.expr.EvalVars(cv, vars); err != nil {
				return err
			}
			b.metrics["staircase.tuples."+q.class] = float64(cv.n)
		}
		return nil
	})
}
