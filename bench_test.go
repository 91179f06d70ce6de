// Benchmarks regenerating the paper's evaluation artifacts. One bench
// (family) per experiment in DESIGN.md's index:
//
//	BenchmarkFigure9         — XMark Q1–Q20, ro vs up schema (Figure 9)
//	BenchmarkInsertScaling   — naive O(N) vs paged O(update) inserts (Figure 3)
//	BenchmarkInsertWithinPage— Figure 7(a), the in-page insert path
//	BenchmarkInsertPageOverflow — Figure 7(b), the page-splice path
//	BenchmarkCommutativeDeltas — delta commits vs root-locking (Figure 8 / §3.2)
//	BenchmarkAttrLookup      — the node/pos indirection the paper charges to 'up'
//	BenchmarkOrdpath         — related-work comparison (§4.2)
//	BenchmarkFillFactor      — ablation AB1: unused-tuple share
//	BenchmarkPageSize        — ablation AB2: logical page size
//	BenchmarkCompact         — the page-compaction maintenance pass
//	BenchmarkConcurrentQueryDuringCommits — the versioned-snapshot read
//	  path: query throughput with an active committer vs writer-idle
//	BenchmarkCommitFsyncThroughput — group commit: fsyncs/commit vs
//	  committer count, with and without Options.GroupCommitDelay
//	BenchmarkCheckpointIncremental — full vs O(churn) checkpoint bytes
//	  and wall time over the content-addressed chunk store
//
// BenchmarkStaircaseSkipping (staircase_bench_test.go) covers claim C2.
//
// BenchmarkFigure9 runs SF 0.01 by default (the paper's 1.1 MB point);
// set MXQ_BENCH_SF (e.g. "0.01,0.1") for more scales.
package mxq

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/ordpath"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/tx"
	"mxq/internal/xenc"
	"mxq/internal/xmark"
	"mxq/internal/xpath"
)

// --- shared fixtures ----------------------------------------------------------

var (
	fixMu  sync.Mutex
	fixMap = map[float64]*fixture{}
)

type fixture struct {
	tree *shred.Tree
	ro   *rostore.Store
	up   *core.Store
}

func getFixture(b testing.TB, sf float64) *fixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixMap[sf]; ok {
		return f
	}
	var buf bytes.Buffer
	if _, err := xmark.NewGenerator(sf, 42).WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	tree, err := shred.Parse(bytes.NewReader(buf.Bytes()), shred.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ro, err := rostore.Build(tree)
	if err != nil {
		b.Fatal(err)
	}
	// The Figure 9 scenario: ~20% of each logical page unused, mimicking
	// the state after a series of XUpdate operations.
	up, err := core.Build(tree, core.Options{PageSize: 1024, FillFactor: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{tree: tree, ro: ro, up: up}
	fixMap[sf] = f
	return f
}

func benchScales() []float64 {
	env := os.Getenv("MXQ_BENCH_SF")
	if env == "" {
		return []float64{0.01}
	}
	var out []float64
	for _, s := range strings.Split(env, ",") {
		sf, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err == nil && sf > 0 {
			out = append(out, sf)
		}
	}
	return out
}

// BenchmarkFigure9 regenerates the Figure 9 series: every XMark query on
// the read-only and on the updatable schema. The interesting number is
// the per-query ratio up/ro, which the paper reports as < 7% at 1.1 MB
// and < 30% on average at 1.1 GB.
func BenchmarkFigure9(b *testing.B) {
	for _, sf := range benchScales() {
		f := getFixture(b, sf)
		for _, q := range xmark.Queries {
			q := q
			b.Run(fmt.Sprintf("SF%g/Q%02d/ro", sf, q.Num), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(f.ro); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("SF%g/Q%02d/up", sf, q.Num), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(f.up); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 3: the O(N) claim ---------------------------------------------------

// wideTree builds a flat document with n leaf elements (the worst case
// for shifting: inserts in the middle move half the document).
func wideTree(n int) *shred.Tree {
	bld := shred.NewBuilder().Start("root")
	for i := 0; i < n; i++ {
		bld.Elem("e", "x", shred.Attr{Name: "id", Value: strconv.Itoa(i)})
	}
	return bld.End().Tree()
}

var smallFrag = func() *shred.Tree {
	t, err := shred.ParseFragment(`<k><l/><m/></k>`, shred.Options{})
	if err != nil {
		panic(err)
	}
	return t
}()

// BenchmarkInsertScaling shows the paper's motivating contrast: the cost
// of one mid-document insert is O(document) for the naive materialized
// schema and O(update volume) for the paged schema. Watch ns/op grow
// linearly with N on /naive and stay flat on /paged.
func BenchmarkInsertScaling(b *testing.B) {
	for _, n := range []int{10_000, 40_000, 160_000} {
		n := n
		b.Run(fmt.Sprintf("naive/N%d", n), func(b *testing.B) {
			s, err := naive.Build(wideTree(n))
			if err != nil {
				b.Fatal(err)
			}
			mid := xenc.Pre(s.Len() / 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.InsertAfter(mid, smallFrag); err != nil {
					b.Fatal(err)
				}
				// Keep the document from drifting: delete what we added.
				b.StopTimer()
				if err := s.Delete(mid + s.Size(mid) + 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("paged/N%d", n), func(b *testing.B) {
			s, err := core.Build(wideTree(n), core.Options{PageSize: 1024, FillFactor: 0.8})
			if err != nil {
				b.Fatal(err)
			}
			mid := xenc.SkipFree(s, xenc.Pre(s.Len()/2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, err := s.InsertAfter(mid, smallFrag)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Delete(s.PreOf(ids[0])); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// --- Figure 7: the two insert paths ----------------------------------------------

// BenchmarkInsertWithinPage measures Figure 7(a): the page has free
// space, so the insert moves only in-page tuples.
func BenchmarkInsertWithinPage(b *testing.B) {
	s, err := core.Build(wideTree(50_000), core.Options{PageSize: 1024, FillFactor: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	mid := xenc.SkipFree(s, xenc.Pre(s.Len()/2))
	pages := s.Pages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := s.InsertAfter(mid, smallFrag)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Delete(s.PreOf(ids[0])); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if s.Pages() != pages {
		b.Fatalf("within-page bench spliced pages: %d -> %d", pages, s.Pages())
	}
}

// BenchmarkInsertPageOverflow measures Figure 7(b): the page is full, so
// the insert appends pages and splices the pageOffset table.
func BenchmarkInsertPageOverflow(b *testing.B) {
	build := func() *core.Store {
		s, err := core.Build(wideTree(50_000), core.Options{PageSize: 1024, FillFactor: 1.0})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := build()
	mid := xenc.SkipFree(s, xenc.Pre(s.Len()/2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.InsertAfter(mid, smallFrag); err != nil {
			b.Fatal(err)
		}
		// Every insert splices a page (deletes do not reclaim them), so
		// rebuild periodically to keep memory bounded under large b.N.
		if i%2000 == 1999 {
			b.StopTimer()
			s = build()
			mid = xenc.SkipFree(s, xenc.Pre(s.Len()/2))
			b.StartTimer()
		}
	}
}

// --- Figure 8 / §3.2: commutative deltas vs root locking --------------------------

func deptStore(b *testing.B, depts, docsPerDept int) *core.Store {
	b.Helper()
	bld := shred.NewBuilder().Start("site")
	for d := 0; d < depts; d++ {
		bld.Start("department", shred.Attr{Name: "id", Value: fmt.Sprintf("d%d", d)})
		for i := 0; i < docsPerDept; i++ {
			bld.Elem("doc", "x")
		}
		bld.End()
	}
	s, err := core.Build(bld.End().Tree(), core.Options{PageSize: 128, FillFactor: 0.7})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkCommutativeDeltas contrasts the paper's delta-increment
// commit (writers under a shared root commit concurrently) with the
// root-locking discipline absolute size updates would force (every
// writer contends on the root's page and most attempts abort).
func BenchmarkCommutativeDeltas(b *testing.B) {
	for _, mode := range []string{"delta", "rootlock"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			s := deptStore(b, 16, 40)
			m := tx.NewManager(s, nil)
			m.SetLockAncestors(mode == "rootlock")
			// Pin one target department per goroutine.
			var deptIdx int32
			var mu sync.Mutex
			nextDept := func() string {
				mu.Lock()
				defer mu.Unlock()
				deptIdx++
				return fmt.Sprintf("d%d", int(deptIdx)%16)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				dept := nextDept()
				sel := xpath.MustParse(fmt.Sprintf(`//department[@id=%q]`, dept))
				for pb.Next() {
					for {
						txn := m.Begin()
						ns, err := sel.Select(txn)
						if err != nil || len(ns) == 0 {
							txn.Abort()
							continue
						}
						if _, err := txn.AppendChild(ns[0].Pre, smallFrag); err != nil {
							txn.Abort()
							continue
						}
						if err := txn.Commit(); err == nil {
							break
						}
					}
				}
			})
			b.StopTimer()
			commits, aborts := m.Stats()
			b.ReportMetric(float64(aborts)/float64(commits+1), "aborts/commit")
		})
	}
}

// --- §3.2: page-granular copy-on-write transactions -------------------------------

// BenchmarkTxSmallUpdateLargeDoc measures the paper's headline update
// property: a one-node update transaction on a large XMark document.
// Begin takes a page-granular copy-on-write snapshot (O(pages) pointer
// copies), the SetValue dirties exactly one page in the transaction
// image, and commit copies exactly one page of the base — so ns/op and
// B/op stay proportional to pages *touched*, not to document size.
// Before page-COW, Begin deep-copied every column of the whole store,
// making this O(document) per transaction.
func BenchmarkTxSmallUpdateLargeDoc(b *testing.B) {
	f := getFixture(b, 0.05) // ~100k-node document
	s, err := core.Build(f.tree, core.Options{PageSize: 1024, FillFactor: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	m := tx.NewManager(s, nil)
	ns, err := xpath.MustParse(`/site/regions//item/name/text()`).Select(s)
	if err != nil || len(ns) == 0 {
		b.Fatalf("no item name text nodes: %v", err)
	}
	id := s.NodeOf(ns[0].Pre)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := m.Begin()
		p := txn.PreOf(id)
		if err := txn.SetValue(p, "updated"); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.LiveNodes()), "nodes")
	b.ReportMetric(float64(s.Pages()), "pages")
}

// --- attribute access: the node/pos hop -------------------------------------------

// BenchmarkAttrLookup isolates the overhead the paper singles out: "the
// additional node/pos table that is positionally joined each time an
// attribute is looked up after an XPath step".
func BenchmarkAttrLookup(b *testing.B) {
	f := getFixture(b, 0.01)
	sel := xpath.MustParse(`/site/people/person`)
	for _, tc := range []struct {
		name string
		v    xenc.DocView
	}{{"ro", f.ro}, {"up", f.up}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			ns, err := sel.Select(tc.v)
			if err != nil || len(ns) == 0 {
				b.Fatalf("%v (%d persons)", err, len(ns))
			}
			idName, _ := tc.v.Names().Lookup("id")
			pres := ns.Pres()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pres {
					if _, ok := tc.v.AttrValue(p, idName); !ok {
						b.Fatal("missing id attribute")
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(pres)), "lookups/op")
		})
	}
}

// --- §4.2 related work: ORDPATH --------------------------------------------------

// BenchmarkOrdpath quantifies the trade-offs of variable-length keys vs
// fixed-size pre integers: comparison cost and label growth under
// repeated same-point inserts.
func BenchmarkOrdpath(b *testing.B) {
	b.Run("compare/int32", func(b *testing.B) {
		xs := make([]int32, 1024)
		for i := range xs {
			xs[i] = int32(i * 7 % 1024)
		}
		sink := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, c := xs[i%1024], xs[(i*31)%1024]
			if a < c {
				sink++
			}
		}
		_ = sink
	})
	b.Run("compare/ordpath", func(b *testing.B) {
		labels := make([]ordpath.Label, 1024)
		l := ordpath.Root().FirstChild()
		for i := range labels {
			labels[i] = l
			l = l.NextSibling()
		}
		sink := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ordpath.Compare(labels[i%1024], labels[(i*31)%1024]) < 0 {
				sink++
			}
		}
		_ = sink
	})
	b.Run("compare/ordpath-degenerate", func(b *testing.B) {
		// Labels after heavy same-point inserting: long, caret-ridden.
		l := ordpath.Label{1, 1}
		r := ordpath.Label{1, 3}
		labels := make([]ordpath.Label, 128)
		for i := range labels {
			l = ordpath.Between(l, r)
			labels[i] = l
		}
		b.ReportMetric(float64(len(labels[127])), "components")
		sink := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ordpath.Compare(labels[i%128], labels[(i*31)%128]) < 0 {
				sink++
			}
		}
		_ = sink
	})
	b.Run("insert/ordpath-between", func(b *testing.B) {
		r := ordpath.Label{1, 3}
		l := ordpath.Label{1, 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l = ordpath.Between(l, r)
			if len(l) > 64 {
				b.StopTimer()
				l = ordpath.Label{1, 1} // reset the degenerate chain
				b.StartTimer()
			}
		}
	})
	b.Run("insert/paged-between-siblings", func(b *testing.B) {
		s, err := core.Build(wideTree(10_000), core.Options{PageSize: 1024, FillFactor: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		mid := xenc.SkipFree(s, xenc.Pre(s.Len()/2))
		one := &shred.Tree{Nodes: []shred.Node{{Kind: xenc.KindElem, Name: "n"}}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids, err := s.InsertAfter(mid, one)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Delete(s.PreOf(ids[0])); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// --- ablation AB1: fill factor ---------------------------------------------------

// BenchmarkFillFactor sweeps the shredder fill factor: more unused
// tuples mean more skipping during scans (query cost up) but cheaper
// inserts (less page overflow).
func BenchmarkFillFactor(b *testing.B) {
	f := getFixture(b, 0.01)
	scan := xpath.MustParse(`count(//item)`)
	for _, fill := range []float64{1.0, 0.9, 0.8, 0.6} {
		fill := fill
		s, err := core.Build(f.tree, core.Options{PageSize: 1024, FillFactor: fill})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("query/fill%.0f%%", fill*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scan.Eval(s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("insert/fill%.0f%%", fill*100), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			items, err := xpath.MustParse(`//item`).Select(s)
			if err != nil || len(items) == 0 {
				b.Fatal(err)
			}
			// Pin targets by immutable node id: pre ranks shift under
			// the inserts this benchmark performs.
			ids := make([]xenc.NodeID, len(items))
			for i, n := range items {
				ids[i] = s.NodeOf(n.Pre)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := s.PreOf(ids[rng.Intn(len(ids))])
				newIDs, err := s.InsertAfter(target, smallFrag)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Delete(s.PreOf(newIDs[0])); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// --- ablation AB2: page size -----------------------------------------------------

// BenchmarkPageSize sweeps the logical page size: bigger pages mean
// longer in-page tail moves per insert but a shorter pageOffset table.
func BenchmarkPageSize(b *testing.B) {
	tree := wideTree(100_000)
	for _, ps := range []int{256, 1024, 4096, 16384} {
		ps := ps
		s, err := core.Build(tree, core.Options{PageSize: ps, FillFactor: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		mid := xenc.SkipFree(s, xenc.Pre(s.Len()/2))
		b.Run(fmt.Sprintf("insert/page%d", ps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids, err := s.InsertAfter(mid, smallFrag)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Delete(s.PreOf(ids[0])); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		scan := xpath.MustParse(`count(//e)`)
		b.Run(fmt.Sprintf("query/page%d", ps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scan.Eval(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompact measures the maintenance extension: rebuilding a
// churned store's pages at the target fill (an offline O(N) pass).
func BenchmarkCompact(b *testing.B) {
	f := getFixture(b, 0.01)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.Build(f.tree, core.Options{PageSize: 1024, FillFactor: 0.6})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Compact(0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- versioned-snapshot read path -------------------------------------------------

// BenchmarkConcurrentQueryDuringCommits measures the property the
// per-version snapshot cache exists for: query throughput while a
// writer continuously commits 1-node transactions must stay within ~2x
// of the writer-idle baseline. Before the versioned read path, every
// query held the manager's global read lock for its whole evaluation,
// so a committer serialized against every scan (and vice versa) and
// throughput collapsed. Now a query leases the cached snapshot of the
// current committed version — a refcount bump when the version is
// unchanged, one O(pages) snapshot per commit otherwise — and holds no
// lock during evaluation.
//
// The writer paces itself: a small burst of commits per ~1ms wakeup,
// so nearly every query sees at least one version change and pays the
// read path's worst case (a version miss and a fresh snapshot) while
// the writer stays below core saturation. An unpaced writer on a
// single-core machine measures CPU fair-share (a hard 2x floor), not
// lock interference.
func BenchmarkConcurrentQueryDuringCommits(b *testing.B) {
	f := getFixture(b, 0.01)
	newDoc := func(b *testing.B) *Document {
		s, err := core.Build(f.tree, core.Options{PageSize: 1024, FillFactor: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		return &Document{name: "bench", store: s, mgr: tx.NewManager(s, nil)}
	}
	const query = `/site/regions//item/name/text()`

	b.Run("writer-idle", func(b *testing.B) {
		doc := newDoc(b)
		p, err := doc.Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("writer-active", func(b *testing.B) {
		doc := newDoc(b)
		p, err := doc.Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		ns, err := xpath.MustParse(`/site/people/person/name/text()`).Select(doc.store)
		if err != nil || len(ns) == 0 {
			b.Fatalf("no person name text nodes: %v", err)
		}
		victim := doc.store.NodeOf(ns[0].Pre)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for burst := 0; burst < 8; burst++ {
					txn := doc.Begin()
					pre := txn.inner.PreOf(victim)
					if err := txn.inner.SetValue(pre, fmt.Sprintf("w%d-%d", i, burst)); err != nil {
						b.Error(err)
						return
					}
					if err := txn.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		v0 := doc.Version()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
		v1 := doc.Version()
		b.StopTimer()
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(v1-v0)/float64(b.N), "commits/query")
	})
}

// BenchmarkCommitFsyncThroughput measures group commit: N goroutines
// commit small disjoint updates against one durable document (real
// fsyncs), so concurrent committers share the WAL flush through the
// leader/follower door. Throughput should *rise* with committer count —
// the whole point of turning N commit fsyncs into ~1 — where a
// fsync-per-commit design would stay flat. The reported fsyncs/commit
// ratio makes the batching visible in BENCH_ci.json. The delay=500µs
// variants measure Options.GroupCommitDelay: the leader holds the door
// open briefly so more committers board each fsync, trading single-
// commit latency for a lower fsyncs/commit ratio under load.
func BenchmarkCommitFsyncThroughput(b *testing.B) {
	for _, cfg := range []struct {
		committers int
		delay      time.Duration
	}{
		{1, 0}, {4, 0}, {16, 0},
		{4, 500 * time.Microsecond}, {16, 500 * time.Microsecond},
	} {
		committers := cfg.committers
		b.Run(fmt.Sprintf("committers=%d/delay=%v", committers, cfg.delay), func(b *testing.B) {
			dir := b.TempDir()
			db, err := Open(Options{Dir: dir, PageSize: 64, GroupCommitDelay: cfg.delay})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			// One padded section per committer so their SetValue targets
			// land on disjoint pages (no lock conflicts, pure commit-path
			// contention).
			var sb strings.Builder
			sb.WriteString(`<r>`)
			for c := 0; c < committers; c++ {
				fmt.Fprintf(&sb, `<s id="c%d"><v>0</v>%s</s>`, c, strings.Repeat(`<pad>x</pad>`, 80))
			}
			sb.WriteString(`</r>`)
			doc, err := db.LoadXMLString("bench", sb.String())
			if err != nil {
				b.Fatal(err)
			}
			mods := make([]string, committers)
			for c := 0; c < committers; c++ {
				mods[c] = wrapMods(fmt.Sprintf(
					`<xupdate:update select="/r/s[@id=&quot;c%d&quot;]/v">n</xupdate:update>`, c))
			}

			syncs0 := docSyncCount(doc)
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / committers
			if per == 0 {
				per = 1
			}
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := doc.Update(mods[c]); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			commits := float64(per * committers)
			b.ReportMetric(float64(docSyncCount(doc)-syncs0)/commits, "fsyncs/commit")
			b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
		})
	}
}

// docSyncCount reads the document WAL's physical fsync counter.
func docSyncCount(d *Document) uint64 {
	if d.log == nil {
		return 0
	}
	return d.log.SyncCount()
}

// --- incremental content-addressed checkpoints -------------------------------------

// BenchmarkCheckpointIncremental measures the O(churn) checkpoint
// claim on the XMark SF 0.1 document: a full checkpoint into an empty
// chunk store writes the whole document, while a checkpoint after ≤1%
// clustered churn re-references every clean chunk by content hash and
// writes only the dirtied ones. Compare the two sub-benchmarks'
// ckpt-B/op (bytes actually written; the acceptance floor is 10x) and
// ns/op (the wall-time win of skipping clean chunks).
func BenchmarkCheckpointIncremental(b *testing.B) {
	f := getFixture(b, 0.1)
	s, err := core.Build(f.tree, core.Options{PageSize: 1024, FillFactor: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	m := tx.NewManager(s, nil)
	// Churn targets: ≤1% of live nodes, contiguous in document order so
	// the dirtied pages track the churn volume.
	ns, err := xpath.MustParse(`/site/regions//item//text()`).Select(s)
	if err != nil || len(ns) == 0 {
		b.Fatalf("selecting churn targets: %v (%d nodes)", err, len(ns))
	}
	churn := s.LiveNodes() / 100
	if churn > len(ns) {
		churn = len(ns)
	}
	ids := make([]xenc.NodeID, churn)
	for i := range ids {
		ids[i] = s.NodeOf(ns[i].Pre)
	}
	churnOnce := func(b *testing.B, round int) {
		txn := m.Begin()
		for j, id := range ids {
			if err := txn.SetValue(txn.PreOf(id), fmt.Sprintf("c%d-%d", round, j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	save := func(b *testing.B, cs *chunkstore.Dir) int64 {
		img, _ := m.PinCheckpoint()
		defer img.Release()
		_, st, err := img.SaveChunked(cs)
		if err != nil {
			b.Fatal(err)
		}
		return st.BytesWritten
	}

	b.Run("full", func(b *testing.B) {
		var written int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cs := chunkstore.NewDir(filepath.Join(b.TempDir(), "chunks"))
			b.StartTimer()
			written += save(b, cs)
		}
		b.ReportMetric(float64(written)/float64(b.N), "ckpt-B/op")
	})
	b.Run("incremental", func(b *testing.B) {
		cs := chunkstore.NewDir(filepath.Join(b.TempDir(), "chunks"))
		save(b, cs) // baseline: the store holds the whole document
		var written int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churnOnce(b, i)
			b.StartTimer()
			written += save(b, cs)
		}
		b.ReportMetric(float64(written)/float64(b.N), "ckpt-B/op")
	})
}
