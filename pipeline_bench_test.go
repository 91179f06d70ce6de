// BenchmarkXMarkQueryPipeline quantifies the sequence-at-a-time query
// pipeline against the node-at-a-time interpreter it replaced: the same
// compiled expression runs both ways over the same XMark document, and a
// counting view wrapper reports how many tuples each strategy inspects.
// On descendant steps over many-ancestor contexts the per-node path
// re-scans every overlapping region once per context node; the pipeline's
// staircase pruning touches each region once, so inspections (and time)
// drop superlinearly with nesting depth.
package mxq

import (
	"fmt"
	"testing"

	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// countingView wraps a DocView and counts tuple inspections: every
// pre-addressed accessor call the evaluator makes. Its PageRun hands out
// 1-tuple runs, so a column-at-a-time scan still passes every tuple it
// reads through one counted call. The count is the plan-quality metric
// the benchmark records — unlike wall time it is deterministic and
// machine-independent. One evaluation runs on one goroutine, so the
// counter is a plain integer.
type countingView struct {
	xenc.DocView
	n int64
}

func (c *countingView) Size(p xenc.Pre) xenc.Size   { c.n++; return c.DocView.Size(p) }
func (c *countingView) Level(p xenc.Pre) xenc.Level { c.n++; return c.DocView.Level(p) }
func (c *countingView) Kind(p xenc.Pre) xenc.Kind   { c.n++; return c.DocView.Kind(p) }
func (c *countingView) Name(p xenc.Pre) int32       { c.n++; return c.DocView.Name(p) }
func (c *countingView) Value(p xenc.Pre) string     { c.n++; return c.DocView.Value(p) }
func (c *countingView) Attrs(p xenc.Pre) []xenc.Attr {
	c.n++
	return c.DocView.Attrs(p)
}
func (c *countingView) AttrValue(p xenc.Pre, name int32) (string, bool) {
	c.n++
	return c.DocView.AttrValue(p, name)
}
func (c *countingView) PageRun(p xenc.Pre) xenc.Run {
	c.n++
	r := c.DocView.PageRun(p)
	return xenc.Run{Size: r.Size[:1], Level: r.Level[:1], Kind: r.Kind[:1], Name: r.Name[:1]}
}

// pageCountingView counts like countingView but forwards whole page
// runs: one counted call per run instead of one per tuple.
type pageCountingView struct{ countingView }

func (c *pageCountingView) PageRun(p xenc.Pre) xenc.Run {
	c.n++
	return c.DocView.PageRun(p)
}

// inspections evaluates e once over a counted wrapping of v under the
// given pipeline mode and returns the tuple-inspection count.
func inspections(tb testing.TB, v xenc.DocView, e *xpath.Expr, seq bool) int64 {
	tb.Helper()
	prev := xpath.SetPlanEnabled(seq)
	defer xpath.SetPlanEnabled(prev)
	cv := &countingView{DocView: v}
	if _, err := e.Eval(cv); err != nil {
		tb.Fatal(err)
	}
	return cv.n
}

// pipelineQueries are the XMark query shapes the refactor targets:
// //keyword-style descendant sweeps, multi-step descendant paths whose
// intermediate context sets overlap, fused positional predicates, and a
// long child chain as the control (little overlap to prune).
var pipelineQueries = []struct{ name, q string }{
	{"keyword", `//keyword`},
	{"item-names", `/site/regions//item/name/text()`},
	{"nested-keyword", `//listitem//keyword`},
	{"parlist-text", `//parlist//listitem//text()`},
	{"bidder-first", `/site/open_auctions/open_auction/bidder[1]/increase/text()`},
	{"long-child-chain", `/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()`},
	{"pred-filter", `//item[description//keyword]/name/text()`},
}

func BenchmarkXMarkQueryPipeline(b *testing.B) {
	f := getFixture(b, 0.01)
	for _, tc := range pipelineQueries {
		e, err := xpath.Parse(tc.q)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			seq  bool
		}{{"pernode", false}, {"seq", true}} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, mode.name), func(b *testing.B) {
				b.ReportMetric(float64(inspections(b, f.up, e, mode.seq)), "inspections")
				prev := xpath.SetPlanEnabled(mode.seq)
				defer xpath.SetPlanEnabled(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Eval(f.up); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// nestedTree chains depth <l> elements, each carrying fan <k> leaves: a
// //l//k query's intermediate context is depth mutually nested nodes, the
// worst case for per-node descendant evaluation (every region re-scanned
// once per ancestor) and the best case for staircase pruning.
func nestedTree(depth, fan int) *shred.Tree {
	b := shred.NewBuilder().Start("root")
	for i := 0; i < depth; i++ {
		b.Start("l")
		for j := 0; j < fan; j++ {
			b.Elem("k", "x")
		}
	}
	for i := 0; i < depth; i++ {
		b.End()
	}
	return b.End().Tree()
}

// TestPipelineInspectionDrop pins the acceptance criterion: on a
// many-ancestor overlapping context the sequence pipeline inspects each
// tuple at most once per step, so the per-node path must cost at least
// 5x the inspections — and both must return identical results.
func TestPipelineInspectionDrop(t *testing.T) {
	s, err := rostore.Build(nestedTree(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	e := xpath.MustParse(`//l//k`)

	check := func(seq bool) (int64, []xenc.Pre) {
		prev := xpath.SetPlanEnabled(seq)
		defer xpath.SetPlanEnabled(prev)
		cv := &countingView{DocView: s}
		ns, err := e.Select(cv)
		if err != nil {
			t.Fatal(err)
		}
		return cv.n, ns.Pres()
	}
	seqN, seqRes := check(true)
	perN, perRes := check(false)

	if len(seqRes) != 40*3 {
		t.Fatalf("//l//k returned %d nodes, want %d", len(seqRes), 40*3)
	}
	if len(seqRes) != len(perRes) {
		t.Fatalf("result sizes diverged: seq %d, per-node %d", len(seqRes), len(perRes))
	}
	for i := range seqRes {
		if seqRes[i] != perRes[i] {
			t.Fatalf("results diverged at %d: seq %d, per-node %d", i, seqRes[i], perRes[i])
		}
	}
	if perN < 5*seqN {
		t.Fatalf("tuple inspections: per-node %d, seq %d — want a >=5x drop on overlapping regions", perN, seqN)
	}
	t.Logf("tuple inspections on //l//k (depth 40): per-node %d, seq %d (%.1fx)", perN, seqN, float64(perN)/float64(seqN))
}

// TestScanReadsPageRuns pins the column-at-a-time scan: //keyword over a
// paged store with free space reads the plane one page run at a time, so
// its counted calls are bounded by the page count plus a small multiple
// of the result, not by the number of tuples.
func TestScanReadsPageRuns(t *testing.T) {
	f := getFixture(t, 0.01)
	e := xpath.MustParse(`//keyword`)
	pv := &pageCountingView{countingView{DocView: f.up}}
	ns, err := e.Select(pv)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) == 0 {
		t.Fatal("//keyword found nothing")
	}
	if bound := int64(f.up.Pages() + 2*len(ns) + 8); pv.n > bound {
		t.Fatalf("//keyword made %d counted calls over %d pages and %d results, want <= %d", pv.n, f.up.Pages(), len(ns), bound)
	}
	tv := &countingView{DocView: f.up}
	if _, err := e.Select(tv); err != nil {
		t.Fatal(err)
	}
	if tv.n < int64(f.up.LiveNodes()) {
		t.Fatalf("1-tuple runs counted %d calls for %d live tuples: the scan skipped the counter", tv.n, f.up.LiveNodes())
	}
	t.Logf("//keyword: %d calls with page runs, %d with 1-tuple runs (%d pages, %d live tuples)", pv.n, tv.n, f.up.Pages(), f.up.LiveNodes())
}
