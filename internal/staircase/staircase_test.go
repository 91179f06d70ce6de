package staircase

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

const paperDoc = `<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>`

// oracle recomputes every axis with plain tree semantics (parent array
// built by a stack over the live view), independent of sizes and runs.
type oracle struct {
	pres   []xenc.Pre
	parent map[xenc.Pre]xenc.Pre
	index  map[xenc.Pre]int
}

func newOracle(v xenc.DocView) *oracle {
	o := &oracle{parent: map[xenc.Pre]xenc.Pre{}, index: map[xenc.Pre]int{}}
	var stack []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		lvl := v.Level(p)
		stack = stack[:lvl]
		if lvl == 0 {
			o.parent[p] = xenc.NoPre
		} else {
			o.parent[p] = stack[lvl-1]
		}
		stack = append(stack, p)
		o.index[p] = len(o.pres)
		o.pres = append(o.pres, p)
	}
	return o
}

func (o *oracle) isAncestor(a, d xenc.Pre) bool {
	for p := o.parent[d]; p != xenc.NoPre; p = o.parent[p] {
		if p == a {
			return true
		}
	}
	return false
}

func (o *oracle) axis(name string, ctx []xenc.Pre) []xenc.Pre {
	in := func(p xenc.Pre) bool {
		for _, c := range ctx {
			switch name {
			case "self":
				if p == c {
					return true
				}
			case "child":
				if o.parent[p] == c {
					return true
				}
			case "parent":
				if o.parent[c] == p {
					return true
				}
			case "descendant":
				if o.isAncestor(c, p) {
					return true
				}
			case "descendant-or-self":
				if p == c || o.isAncestor(c, p) {
					return true
				}
			case "ancestor":
				if o.isAncestor(p, c) {
					return true
				}
			case "ancestor-or-self":
				if p == c || o.isAncestor(p, c) {
					return true
				}
			case "following-sibling":
				if o.parent[p] == o.parent[c] && o.parent[c] != xenc.NoPre && p > c {
					return true
				}
			case "preceding-sibling":
				if o.parent[p] == o.parent[c] && o.parent[c] != xenc.NoPre && p < c {
					return true
				}
			case "following":
				if p > c && !o.isAncestor(c, p) && !o.isAncestor(p, c) {
					return true
				}
			case "preceding":
				if p < c && !o.isAncestor(c, p) && !o.isAncestor(p, c) {
					return true
				}
			}
		}
		return false
	}
	var out []xenc.Pre
	for _, p := range o.pres {
		if in(p) {
			out = append(out, p)
		}
	}
	return out
}

var axisFuncs = map[string]func(xenc.DocView, []xenc.Pre, Test) []xenc.Pre{
	"self":               Self,
	"child":              Child,
	"parent":             Parent,
	"descendant":         Descendant,
	"descendant-or-self": DescendantOrSelf,
	"ancestor":           Ancestor,
	"ancestor-or-self":   AncestorOrSelf,
	"following-sibling":  FollowingSibling,
	"preceding-sibling":  PrecedingSibling,
	"following":          Following,
	"preceding":          Preceding,
}

var axisIDs = map[string]Axis{
	"self":               AxisSelf,
	"child":              AxisChild,
	"parent":             AxisParent,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"ancestor":           AxisAncestor,
	"ancestor-or-self":   AxisAncestorOrSelf,
	"following-sibling":  AxisFollowingSibling,
	"preceding-sibling":  AxisPrecedingSibling,
	"following":          AxisFollowing,
	"preceding":          AxisPreceding,
}

// forwardScanAxes are the axes Scan supports.
var forwardScanAxes = []string{
	"self", "child", "descendant", "descendant-or-self",
	"following-sibling", "following",
}

func checkAllAxes(t *testing.T, v xenc.DocView, label string) {
	t.Helper()
	o := newOracle(v)
	rng := rand.New(rand.NewSource(7))
	// Single-node contexts for every node, plus random multi-node ones.
	var ctxs [][]xenc.Pre
	for _, p := range o.pres {
		ctxs = append(ctxs, []xenc.Pre{p})
	}
	for i := 0; i < 12; i++ {
		n := 1 + rng.Intn(4)
		set := map[xenc.Pre]bool{}
		for j := 0; j < n; j++ {
			set[o.pres[rng.Intn(len(o.pres))]] = true
		}
		var ctx []xenc.Pre
		for p := range set {
			ctx = append(ctx, p)
		}
		sort.Slice(ctx, func(a, b int) bool { return ctx[a] < ctx[b] })
		ctxs = append(ctxs, ctx)
	}
	for name, fn := range axisFuncs {
		for _, ctx := range ctxs {
			got := fn(v, ctx, AnyNode())
			want := o.axis(name, ctx)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s(%v) = %v, want %v", label, name, ctx, got, want)
			}
			// The sequence-level dispatcher must agree with the direct
			// operator call.
			if viaEval := EvalAxis(v, ctx, axisIDs[name], AnyNode()); !reflect.DeepEqual(viaEval, got) {
				t.Fatalf("%s: EvalAxis(%s, %v) = %v, want %v", label, name, ctx, viaEval, got)
			}
		}
	}
	// Scan must enumerate forward axes in document order and honor the
	// early-exit: stopping after k matches yields the k-prefix.
	for _, name := range forwardScanAxes {
		ax := axisIDs[name]
		for _, p := range o.pres {
			full := o.axis(name, []xenc.Pre{p})
			var scanned []xenc.Pre
			Scan(v, p, ax, AnyNode(), func(q xenc.Pre) bool {
				scanned = append(scanned, q)
				return true
			})
			if !reflect.DeepEqual(scanned, full) && (len(scanned) != 0 || len(full) != 0) {
				t.Fatalf("%s: Scan(%s, %d) = %v, want %v", label, name, p, scanned, full)
			}
			for k := 1; k <= 2 && k <= len(full); k++ {
				var prefix []xenc.Pre
				Scan(v, p, ax, AnyNode(), func(q xenc.Pre) bool {
					prefix = append(prefix, q)
					return len(prefix) < k
				})
				if !reflect.DeepEqual(prefix, full[:k]) {
					t.Fatalf("%s: Scan(%s, %d) early-exit %d = %v, want %v", label, name, p, k, prefix, full[:k])
				}
			}
		}
	}
}

func TestAxesOnReadOnlyStore(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(paperDoc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "rostore")
}

func TestAxesOnPagedStoreWithHoles(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(paperDoc), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(tr, core.Options{PageSize: 8, FillFactor: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "core/fresh")
	// Punch holes: delete c (a 3-node subtree), then reinsert content so
	// free runs sit in the middle of regions.
	var c xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "c" {
			c = p
		}
	}
	if err := s.Delete(c); err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "core/after-delete")
	frag, err := shred.ParseFragment(`<c2><d2/></c2>`, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b xenc.Pre = -1
	for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
		if s.Kind(p) == xenc.KindElem && s.Names().Name(s.Name(p)) == "b" {
			b = p
		}
	}
	if _, err := s.AppendChild(b, frag); err != nil {
		t.Fatal(err)
	}
	checkAllAxes(t, s, "core/after-reinsert")
}

// TestAxesRandomisedAgainstOracle builds random documents, mutates the
// paged store randomly, and cross-checks every axis after every step.
func TestAxesRandomisedAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := shred.NewBuilder()
		b.Start("root")
		depth := 1
		for i := 0; i < 40+rng.Intn(40); i++ {
			switch rng.Intn(3) {
			case 0:
				b.Start(fmt.Sprintf("e%d", rng.Intn(3)))
				depth++
			case 1:
				b.Text("t")
			default:
				if depth > 1 {
					b.End()
					depth--
				} else {
					b.Elem("leaf", "")
				}
			}
		}
		for depth > 0 {
			b.End()
			depth--
		}
		s, err := core.Build(b.Tree(), core.Options{PageSize: 16, FillFactor: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			var live []xenc.Pre
			for p := xenc.SkipFree(s, 0); p < s.Len(); p = xenc.SkipFree(s, p+1) {
				live = append(live, p)
			}
			target := live[rng.Intn(len(live))]
			frag, _ := shred.ParseFragment(`<n><m/>x</n>`, shred.Options{})
			switch {
			case rng.Intn(2) == 0 && target != s.Root():
				if err := s.Delete(target); err != nil {
					t.Fatal(err)
				}
			case s.Kind(target) == xenc.KindElem:
				if _, err := s.AppendChild(target, frag); err != nil {
					t.Fatal(err)
				}
			default:
				continue
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			checkAllAxes(t, s, fmt.Sprintf("seed%d/step%d", seed, step))
		}
	}
}

func TestNameAndKindTests(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(`<r><p>t1</p><q/><p a="1">t2</p><!--c--></r>`), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	pName, _ := s.Names().Lookup("p")
	ctx := []xenc.Pre{s.Root()}
	if got := Child(s, ctx, Element(pName)); len(got) != 2 {
		t.Fatalf("child::p = %v", got)
	}
	if got := Child(s, ctx, Element(xenc.NoName)); len(got) != 3 {
		t.Fatalf("child::* = %v", got)
	}
	if got := Descendant(s, ctx, KindTest(xenc.KindText)); len(got) != 2 {
		t.Fatalf("descendant::text() = %v", got)
	}
	if got := Child(s, ctx, KindTest(xenc.KindComment)); len(got) != 1 {
		t.Fatalf("child::comment() = %v", got)
	}
	if got := Child(s, ctx, AnyNode()); len(got) != 4 {
		t.Fatalf("child::node() = %v", got)
	}
}

func TestEmptyContext(t *testing.T) {
	tr, _ := shred.Parse(strings.NewReader(paperDoc), shred.Options{})
	s, _ := rostore.Build(tr)
	for name, fn := range axisFuncs {
		if got := fn(s, nil, AnyNode()); len(got) != 0 {
			t.Errorf("%s(nil) = %v", name, got)
		}
	}
}

// unitRuns forwards a view but hands out 1-tuple page runs, the shortest
// the run contract allows: every free-run hop overshoots its run.
type unitRuns struct{ xenc.DocView }

func (u unitRuns) PageRun(p xenc.Pre) xenc.Run {
	r := u.DocView.PageRun(p)
	return xenc.Run{Size: r.Size[:1], Level: r.Level[:1], Kind: r.Kind[:1], Name: r.Name[:1]}
}

// randomTree builds a random document over the element names e0..e2 and
// leaf, with text nodes mixed in.
func randomTree(rng *rand.Rand, nodes int) *shred.Tree {
	b := shred.NewBuilder()
	b.Start("root")
	depth := 1
	for i := 0; i < nodes; i++ {
		switch rng.Intn(3) {
		case 0:
			b.Start(fmt.Sprintf("e%d", rng.Intn(3)))
			depth++
		case 1:
			b.Text("t")
		default:
			if depth > 1 {
				b.End()
				depth--
			} else {
				b.Elem("leaf", "")
			}
		}
	}
	for depth > 0 {
		b.End()
		depth--
	}
	return b.Tree()
}

// liveRanks lists a view's live tuples in document order: index k holds
// the pre rank of the k-th live node, the same node in every view of one
// document.
func liveRanks(v xenc.DocView) []xenc.Pre {
	var pres []xenc.Pre
	for p := xenc.SkipFree(v, 0); p < v.Len(); p = xenc.SkipFree(v, p+1) {
		pres = append(pres, p)
	}
	return pres
}

// TestRunBoundariesDifferential runs every axis, Scan and the whole-plane
// scan over three views of one document — a paged store whose pages end
// in free runs, the same store behind 1-tuple runs, and the dense naive
// store — with random ascending contexts and several node tests, and
// requires the same nodes from all three, and from the dense view the
// nodes the plain-tree oracle selects. A second round repeats it after
// identical deletes punch holes inside pages.
func TestRunBoundariesDifferential(t *testing.T) {
	layouts := []core.Options{{PageSize: 8, FillFactor: 0.5}, {PageSize: 8, FillFactor: 0.75}, {PageSize: 16, FillFactor: 0.6}}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := randomTree(rng, 60+rng.Intn(60))
		paged, err := core.Build(tree, layouts[seed%int64(len(layouts))])
		if err != nil {
			t.Fatal(err)
		}
		dense, err := naive.Build(tree)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if round == 1 {
				for i := 0; i < 4; i++ {
					live := liveRanks(dense)
					k := 1 + rng.Intn(len(live)-1) // never the root
					if err := paged.Delete(liveRanks(paged)[k]); err != nil {
						t.Fatal(err)
					}
					if err := dense.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
				}
			}
			diffViews(t, rng, fmt.Sprintf("seed %d round %d", seed, round),
				[]xenc.DocView{dense, paged, unitRuns{paged}})
		}
	}
}

func diffViews(t *testing.T, rng *rand.Rand, label string, views []xenc.DocView) {
	t.Helper()
	ranks := make([]map[xenc.Pre]int, len(views))
	lives := make([][]xenc.Pre, len(views))
	for i, v := range views {
		lives[i] = liveRanks(v)
		ranks[i] = make(map[xenc.Pre]int, len(lives[i]))
		for k, p := range lives[i] {
			ranks[i][p] = k
		}
		if len(lives[i]) != len(lives[0]) {
			t.Fatalf("%s: view %d has %d live nodes, view 0 has %d", label, i, len(lives[i]), len(lives[0]))
		}
	}
	// toRanks maps view i's result to document-order node numbers.
	toRanks := func(i int, pres []xenc.Pre) []int {
		out := []int{}
		for _, p := range pres {
			k, ok := ranks[i][p]
			if !ok {
				t.Fatalf("%s: view %d returned unused tuple %d", label, i, p)
			}
			out = append(out, k)
		}
		return out
	}
	tests := map[string]func(v xenc.DocView) Test{
		"node()":  func(xenc.DocView) Test { return AnyNode() },
		"*":       func(xenc.DocView) Test { return Element(xenc.NoName) },
		"text()":  func(xenc.DocView) Test { return KindTest(xenc.KindText) },
		"nothing": func(xenc.DocView) Test { return NoMatch() },
		"e1": func(v xenc.DocView) Test {
			if id, ok := v.Names().Lookup("e1"); ok {
				return Element(id)
			}
			return NoMatch()
		},
	}
	var ctxs [][]int
	for i := 0; i < 20; i++ {
		set := map[int]bool{}
		for j := 1 + rng.Intn(6); j > 0; j-- {
			set[rng.Intn(len(lives[0]))] = true
		}
		var ctx []int
		for k := range set {
			ctx = append(ctx, k)
		}
		sort.Ints(ctx)
		ctxs = append(ctxs, ctx)
	}
	oracle := newOracle(views[0])
	same := func(what string, eval func(i int, v xenc.DocView) []xenc.Pre) {
		want := toRanks(0, eval(0, views[0]))
		for i := 1; i < len(views); i++ {
			if got := toRanks(i, eval(i, views[i])); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s: view %d = %v, view 0 = %v", label, what, i, got, want)
			}
		}
	}
	for tname, mk := range tests {
		same("All "+tname, func(_ int, v xenc.DocView) []xenc.Pre { return All(v, mk(v)) })
		for _, ctx := range ctxs {
			pres := func(i int) []xenc.Pre {
				out := make([]xenc.Pre, len(ctx))
				for j, k := range ctx {
					out[j] = lives[i][k]
				}
				return out
			}
			for name, ax := range axisIDs {
				what := fmt.Sprintf("%s::%s from %v", name, tname, ctx)
				same(what, func(i int, v xenc.DocView) []xenc.Pre {
					return EvalAxis(v, pres(i), ax, mk(v))
				})
				// The dense view also answers to the plain-tree oracle.
				var want []xenc.Pre
				for _, p := range oracle.axis(name, pres(0)) {
					if mk(views[0]).Matches(views[0], p) {
						want = append(want, p)
					}
				}
				if got := EvalAxis(views[0], pres(0), ax, mk(views[0])); !reflect.DeepEqual(toRanks(0, got), toRanks(0, want)) {
					t.Fatalf("%s: %s = %v, oracle %v", label, what, got, want)
				}
			}
			for _, name := range forwardScanAxes {
				for k := 1; k <= 3; k++ {
					same(fmt.Sprintf("Scan %s::%s from %d, first %d", name, tname, ctx[0], k), func(i int, v xenc.DocView) []xenc.Pre {
						var out []xenc.Pre
						Scan(v, pres(i)[0], axisIDs[name], mk(v), func(p xenc.Pre) bool {
							out = append(out, p)
							return len(out) < k
						})
						return out
					})
				}
			}
		}
	}
}
