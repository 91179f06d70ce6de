package xpath

// The sequence-at-a-time plan runtime.
//
// A pathPlan pipes a whole context sequence through one operator per
// location step. Tree-node contexts flow as ascending pre sequences
// through the staircase join (staircase.EvalAxis), which applies the
// paper's context pruning — a context node whose region was already
// scanned is skipped, so no tuple is inspected twice — and returns
// results already in document order, eliminating the per-step
// sort/dedupe of the node-at-a-time path. The virtual document node
// joins the sequence scan on the child and descendant axes (its
// descendants are one whole-plane scan, which subsumes every other
// context node's region); on other axes it, and attribute nodes (rare
// mid-path), are split off and routed through the per-node evaluator,
// then merged back in document order.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"mxq/internal/staircase"
	"mxq/internal/xenc"
)

// errNumericPred signals that a dynamically typed (untypable at compile
// time, e.g. a bare variable) predicate evaluated to a number at
// runtime. Numeric predicates select by per-context position, which the
// merged sequence cannot number; planStep.apply catches the sentinel and
// reruns the step node-at-a-time. It never escapes the plan runtime.
var errNumericPred = errors.New("xpath: dynamic predicate is numeric")

// planEnabled gates the compiled pipeline globally. It exists so the
// differential fuzzer and the old-vs-new pipeline benchmarks can compare
// the two evaluation strategies on identical expressions; production
// code never turns it off.
var planEnabled atomic.Bool

func init() { planEnabled.Store(true) }

// SetPlanEnabled toggles the sequence-at-a-time pipeline and returns
// the previous setting (a testing/benchmarking hook; evaluation falls
// back to the node-at-a-time interpreter when disabled).
func SetPlanEnabled(on bool) bool { return planEnabled.Swap(on) }

// stepKind is the execution strategy of one compiled step.
type stepKind int

const (
	// opSeq evaluates the whole context sequence through one staircase
	// operator; sequence-safe predicates filter the merged result.
	opSeq stepKind = iota
	// opFusedPos is opSeq with a leading positional predicate fused into
	// the scan: each context node's scan stops at its pos-th match.
	opFusedPos
	// opPerNode keeps the node-at-a-time path (positional predicates on
	// reverse axes, last(), statically untypable predicates).
	opPerNode
)

// planStep is one compiled location step.
type planStep struct {
	st       step // axis, node test, and the original predicate list
	kind     stepKind
	pos      int         // the fused positional predicate (kind == opFusedPos)
	seqPreds []expr      // position-free predicates applied over the sequence
	semi     []*semiJoin // per seqPred: its semi-join form, or nil
	fused    bool        // collapsed from descendant-or-self::node()/...
	dyn      bool        // some seqPred is untypable: numeric fallback may fire
}

// pathPlan is the compiled pipeline for one location path.
type pathPlan struct {
	steps []planStep
}

// seqCtx is the inter-step context representation. Pure tree-node
// sequences — every context after the first step of almost every query —
// travel as raw pre ranks between sequence steps, so consecutive
// staircase operators chain without wrapping each node into a NodeSet
// and unwrapping it again; the NodeSet form appears only when the
// document node or attribute nodes are in play, or a per-node step runs.
type seqCtx struct {
	pure  bool
	pres  []xenc.Pre // valid when pure
	nodes NodeSet    // valid when !pure
}

func (sc seqCtx) empty() bool {
	if sc.pure {
		return len(sc.pres) == 0
	}
	return len(sc.nodes) == 0
}

func (sc seqCtx) len() int {
	if sc.pure {
		return len(sc.pres)
	}
	return len(sc.nodes)
}

func (sc seqCtx) at(i int) Node {
	if sc.pure {
		return ElemNode(sc.pres[i])
	}
	return sc.nodes[i]
}

func (sc seqCtx) nodeSet() NodeSet {
	if !sc.pure {
		return sc.nodes
	}
	return nodesOf(sc.pres)
}

// run pipes the context sequence through every step.
func (pl *pathPlan) run(c *context, ctx NodeSet) (NodeSet, error) {
	if !nodesOrdered(ctx) {
		// Initial contexts normally arrive sorted; a variable bound to an
		// unordered node-set is the exception, and the staircase contract
		// requires ascending duplicate-free input.
		ctx = sortDedupe(append(NodeSet{}, ctx...))
	}
	sc, err := pl.pipe(c, seqCtx{nodes: ctx})
	if err != nil {
		return nil, err
	}
	return sc.nodeSet(), nil
}

// pipe runs the steps over an ordered context sequence.
func (pl *pathPlan) pipe(c *context, sc seqCtx) (seqCtx, error) {
	var err error
	for i := range pl.steps {
		sc, err = pl.steps[i].apply(c, sc)
		if err != nil {
			return seqCtx{}, err
		}
		if sc.empty() {
			return seqCtx{pure: true}, nil
		}
	}
	return sc, nil
}

// apply evaluates one compiled step over the whole context sequence.
func (ps *planStep) apply(c *context, sc seqCtx) (seqCtx, error) {
	if ps.kind == opPerNode {
		ns, err := applyStep(c, sc.nodeSet(), &ps.st)
		return seqCtx{nodes: ns}, err
	}
	out, err := ps.applySeq(c, sc)
	if err == errNumericPred {
		// A dyn predicate turned out numeric at runtime: numeric
		// predicates select by per-context position, so rerun the whole
		// step node-at-a-time, whose numbering defines those semantics.
		ns, perr := applyStep(c, sc.nodeSet(), &ps.st)
		return seqCtx{nodes: ns}, perr
	}
	return out, err
}

// applySeq is the sequence-level strategy of apply; it reports
// errNumericPred when a dyn predicate must be renumbered per context.
func (ps *planStep) applySeq(c *context, sc seqCtx) (seqCtx, error) {
	pres := sc.pres
	var special NodeSet
	if !sc.pure {
		pres, special = splitContext(sc.nodes)
	}
	// The document node sorts first in any context it is part of. Its
	// child and descendant axes join the sequence scan; under a fused
	// positional counter it keeps the per-node route, which numbers its
	// candidates on their own.
	fromDoc := len(special) > 0 && special[0].Pre == DocNodePre && ps.kind == opSeq &&
		(ps.st.axis == AxisChild || ps.st.axis == AxisDescendant || ps.st.axis == AxisDescendantOrSelf)
	if fromDoc {
		special = special[1:]
	}
	var out seqCtx
	if len(pres) > 0 || fromDoc {
		var err error
		if ps.st.axis == AxisAttribute {
			var ns NodeSet
			ns, err = ps.attrSeq(c, pres)
			out = seqCtx{nodes: ns}
		} else {
			out, err = ps.treeSeq(c, pres, fromDoc)
		}
		if err != nil {
			return seqCtx{}, err
		}
	} else {
		out = seqCtx{pure: true}
	}
	if len(special) > 0 {
		// Attribute nodes, and the document node on the remaining axes,
		// go through the per-node evaluator (each is a singleton scan; no
		// overlap to prune).
		sp, err := applyStep(c, special, &ps.st)
		if err != nil {
			return seqCtx{}, err
		}
		out = seqCtx{nodes: mergeNodes(out.nodeSet(), sp)}
	}
	return out, nil
}

// treeSeq runs a tree axis over an ascending pre sequence, preceded by
// the document node when fromDoc is set (child and descendant axes only).
// The result stays in the pure pre representation unless the virtual
// document node joins it (parent/ancestor axes, or its own
// descendant-or-self axis, under a node() test).
func (ps *planStep) treeSeq(c *context, pres []xenc.Pre, fromDoc bool) (seqCtx, error) {
	v := c.view
	test := treeTest(v, &ps.st)
	var cands []xenc.Pre
	switch {
	case fromDoc && ps.st.axis != AxisChild:
		// The whole plane covers every other context node's region.
		cands = docAxis(v, ps.st.axis, test)
	case ps.kind == opFusedPos:
		cands = fusedPosScan(v, pres, ps.st.axis, test, ps.pos)
	default:
		cands = staircase.EvalAxis(v, pres, seqAxis(ps.st.axis), test)
		if fromDoc {
			// The root element precedes every other context node's child.
			cands = append(docAxis(v, AxisChild, test), cands...)
		}
	}
	// The document node is an ancestor of every tree node.
	withDoc := false
	if ps.st.tk == testNode {
		switch ps.st.axis {
		case AxisParent:
			withDoc = hasRootContext(v, pres)
		case AxisAncestor, AxisAncestorOrSelf:
			withDoc = true
		case AxisDescendantOrSelf:
			withDoc = fromDoc
		}
	}
	if !withDoc {
		// Filtering keeps a subset, so candidates that do not nest
		// before the first predicate do not nest before any later one.
		flat := ps.hasSemiJoin() && !nested(v, cands)
		var err error
		for i, pred := range ps.seqPreds {
			if sj := ps.semi[i]; sj != nil && flat {
				cands, err = sj.filter(c, cands)
			} else {
				cands, err = filterPres(c, cands, pred, ps.dyn)
			}
			if err != nil {
				return seqCtx{}, err
			}
		}
		return seqCtx{pure: true, pres: cands}, nil
	}
	out := make(NodeSet, 0, len(cands)+1)
	out = append(out, DocNode())
	for _, p := range cands {
		out = append(out, ElemNode(p))
	}
	out, err := ps.filterSeqPreds(c, out)
	return seqCtx{nodes: out}, err
}

// filterPres is filterSeqPreds over the pure pre representation: one
// sequence-safe predicate, filtered in place with a reusable scratch
// context. dyn marks a predicate whose type only runtime knows: a
// numeric value makes it positional, which the merged sequence cannot
// honor, so the step falls back via errNumericPred.
func filterPres(c *context, pres []xenc.Pre, pred expr, dyn bool) ([]xenc.Pre, error) {
	sub := context{view: c.view, vars: c.vars, size: len(pres)}
	w := 0
	for i, p := range pres {
		sub.node = ElemNode(p)
		sub.pos = i + 1
		val, err := pred.eval(&sub)
		if err != nil {
			return nil, err
		}
		if dyn {
			if _, isNum := val.(Number); isNum {
				return nil, errNumericPred
			}
		}
		if BoolOf(val) {
			pres[w] = p
			w++
		}
	}
	return pres[:w], nil
}

func (ps *planStep) hasSemiJoin() bool {
	for _, sj := range ps.semi {
		if sj != nil {
			return true
		}
	}
	return false
}

// semiJoin is a step predicate [P], [P cmp e] or [e cmp P] evaluated
// set-at-a-time (classified by semiJoinOf): over candidates that do not
// nest, P runs once with all of them as its context, and each result r
// belongs to the greatest candidate at or before r.Pre — the one whose
// subtree holds r (for an attribute, its element). This is loop lifting
// in its simplest case: without nesting, a result's containing candidate
// is its iteration.
type semiJoin struct {
	path    *pathExpr // P
	op      string    // cmp, or "" for the existence test [P]
	val     expr      // e (nil for [P])
	valLeft bool      // e is the left operand
	// attr marks P = attribute::name with no predicates: the candidates'
	// attribute values are read directly, without materializing
	// attribute nodes.
	attr bool
}

// filter keeps the candidates the predicate holds for, compacting cands
// in place. A candidate holds when one of its results passes compare
// against e; when e is a boolean, XPath 1.0 compares boolean(results)
// with it instead, so [P = false()] keeps the candidates without
// results.
func (sj *semiJoin) filter(c *context, cands []xenc.Pre) ([]xenc.Pre, error) {
	if len(cands) == 0 {
		return cands, nil
	}
	v := c.view
	var val Value
	if sj.val != nil {
		var err error
		if val, err = sj.val.eval(c); err != nil {
			return nil, err
		}
	}
	// byValue: a candidate holds when some result's string-value passes
	// the comparison; otherwise only whether it has results matters.
	_, isBool := val.(Boolean)
	byValue := sj.val != nil && !isBool
	verdict := func(has, passed bool) bool {
		switch {
		case byValue:
			return passed
		case isBool:
			return sj.holds(v, Boolean(has), val)
		}
		return has
	}
	w := 0
	if sj.attr {
		id, named := v.Names().Lookup(sj.path.steps[0].name)
		for _, p := range cands {
			s, has := "", false
			if named {
				s, has = v.AttrValue(p, id)
			}
			if verdict(has, byValue && has && sj.holds(v, String(s), val)) {
				cands[w] = p
				w++
			}
		}
		return cands[:w], nil
	}
	res, err := sj.path.plan.pipe(c, seqCtx{pure: true, pres: cands})
	if err != nil {
		return nil, err
	}
	r, n := 0, res.len()
	for j, p := range cands {
		// The candidate's results run up to the next candidate.
		end := xenc.Pre(math.MaxInt32)
		if j+1 < len(cands) {
			end = cands[j+1]
		}
		has, passed := false, false
		for ; r < n; r++ {
			node := res.at(r)
			if node.Pre >= end {
				break
			}
			has = true
			if byValue && !passed {
				passed = sj.holds(v, String(StringValue(v, node)), val)
			}
		}
		if verdict(has, passed) {
			cands[w] = p
			w++
		}
	}
	return cands[:w], nil
}

// holds compares one result-side value x with e in source operand order.
func (sj *semiJoin) holds(v xenc.DocView, x, val Value) bool {
	if sj.valLeft {
		return compare(v, sj.op, val, x)
	}
	return compare(v, sj.op, x, val)
}

// nested reports whether an ascending pre sequence holds a node and one
// of its descendants. Consecutive pairs suffice: if c_i is an ancestor
// of c_j, then c_{i+1} lies in c_i's region too. A pair whose level does
// not rise cannot nest; a rising pair nests iff no live tuple between
// the two climbs back to the first node's level. The levels are read
// from page runs, which candidates close together share.
func nested(v xenc.DocView, pres []xenc.Pre) bool {
	var run xenc.Run
	start := xenc.Pre(0)
	level := func(p xenc.Pre) xenc.Level {
		if p < start || p-start >= xenc.Pre(len(run.Level)) {
			run, start = v.PageRun(p), p
		}
		return run.Level[p-start]
	}
	for i := 1; i < len(pres); i++ {
		a, b := pres[i-1], pres[i]
		la := level(a)
		if level(b) > la && inRegion(v, a, la, b) {
			return true
		}
	}
	return false
}

// inRegion reports whether b > a lies in the region of a (at level la).
// It hops over the subtrees of deeper nodes between them: a hop of
// size+1 from a live node never leaves that node's region, whose span
// is at least its live descendant count.
func inRegion(v xenc.DocView, a xenc.Pre, la xenc.Level, b xenc.Pre) bool {
	for p := a + 1; p < b; {
		r := v.PageRun(p)
		n := min(xenc.Pre(len(r.Level)), b-p)
		i := xenc.Pre(0)
		for i < n {
			if l := r.Level[i]; l != xenc.LevelUnused && l <= la {
				return false
			}
			i += r.Size[i] + 1
		}
		p += i
	}
	return true
}

// attrSeq runs the attribute axis over an ascending element sequence.
// Distinct elements own distinct attributes, so the output is already in
// document order — no sort, no dedupe.
func (ps *planStep) attrSeq(c *context, pres []xenc.Pre) (NodeSet, error) {
	v := c.view
	test := attrTest(v, &ps.st)
	var out NodeSet
	for _, p := range pres {
		if v.Kind(p) != xenc.KindElem {
			continue
		}
		attrs := v.Attrs(p)
		count := 0
		for i := range attrs {
			if !attrMatch(test, attrs[i].Name) {
				continue
			}
			count++
			if ps.kind == opFusedPos {
				if count == ps.pos {
					out = append(out, Node{Pre: p, Attr: int32(i)})
					break
				}
				continue
			}
			out = append(out, Node{Pre: p, Attr: int32(i)})
		}
	}
	return ps.filterSeqPreds(c, out)
}

// filterSeqPreds applies the sequence-safe predicates, filtering in
// place with one reusable scratch context. Compilation guarantees the
// predicates never consult position() or last() and never evaluate to a
// number, so every node's verdict is independent of the numbering the
// per-node path would have assigned.
func (ps *planStep) filterSeqPreds(c *context, ns NodeSet) (NodeSet, error) {
	for _, pred := range ps.seqPreds {
		sub := context{view: c.view, vars: c.vars, size: len(ns)}
		w := 0
		for i, n := range ns {
			sub.node = n
			sub.pos = i + 1
			val, err := pred.eval(&sub)
			if err != nil {
				return nil, err
			}
			if ps.dyn {
				if _, isNum := val.(Number); isNum {
					return nil, errNumericPred
				}
			}
			if BoolOf(val) {
				ns[w] = n
				w++
			}
		}
		ns = ns[:w]
	}
	return ns, nil
}

// fusedPosScan evaluates axis::test[k] with the positional predicate
// fused into the scan: every context node enumerates its axis in
// document order, counts matches, keeps its k-th and stops there. No
// context pruning applies (each context node numbers its own
// candidates), but the early exit bounds each scan by k matches.
func fusedPosScan(v xenc.DocView, ctx []xenc.Pre, ax Axis, t staircase.Test, k int) []xenc.Pre {
	var out []xenc.Pre
	sorted := true
	last := xenc.Pre(-1)
	for _, c := range ctx {
		count := 0
		staircase.Scan(v, c, seqAxis(ax), t, func(p xenc.Pre) bool {
			count++
			if count < k {
				return true
			}
			if p <= last {
				sorted = false
			}
			last = p
			out = append(out, p)
			return false
		})
	}
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		w := 1
		for i := 1; i < len(out); i++ {
			if out[i] != out[i-1] {
				out[w] = out[i]
				w++
			}
		}
		out = out[:w]
	}
	return out
}

// seqAxis maps an XPath tree axis to its staircase operator.
func seqAxis(a Axis) staircase.Axis {
	switch a {
	case AxisSelf:
		return staircase.AxisSelf
	case AxisChild:
		return staircase.AxisChild
	case AxisDescendant:
		return staircase.AxisDescendant
	case AxisDescendantOrSelf:
		return staircase.AxisDescendantOrSelf
	case AxisParent:
		return staircase.AxisParent
	case AxisAncestor:
		return staircase.AxisAncestor
	case AxisAncestorOrSelf:
		return staircase.AxisAncestorOrSelf
	case AxisFollowing:
		return staircase.AxisFollowing
	case AxisFollowingSibling:
		return staircase.AxisFollowingSibling
	case AxisPreceding:
		return staircase.AxisPreceding
	case AxisPrecedingSibling:
		return staircase.AxisPrecedingSibling
	}
	panic(fmt.Sprintf("xpath: no staircase operator for axis %v", a))
}

// splitContext separates tree nodes (which flow through the staircase
// operators) from the document node and attribute nodes (which keep the
// per-node path). The all-tree case — every context after the first
// step of almost every query — allocates exactly once.
func splitContext(ctx NodeSet) ([]xenc.Pre, NodeSet) {
	allTree := true
	for _, n := range ctx {
		if n.Attr != NoAttr || n.Pre == DocNodePre {
			allTree = false
			break
		}
	}
	if allTree {
		pres := make([]xenc.Pre, len(ctx))
		for i, n := range ctx {
			pres[i] = n.Pre
		}
		return pres, nil
	}
	var pres []xenc.Pre
	var special NodeSet
	for _, n := range ctx {
		if n.Attr == NoAttr && n.Pre != DocNodePre {
			pres = append(pres, n.Pre)
		} else {
			special = append(special, n)
		}
	}
	return pres, special
}

// hasRootContext reports whether any context node is at level 0 (whose
// parent is the virtual document node).
func hasRootContext(v xenc.DocView, pres []xenc.Pre) bool {
	for _, p := range pres {
		if v.Level(p) == 0 {
			return true
		}
	}
	return false
}

// mergeNodes merges two document-ordered node sets.
func mergeNodes(a, b NodeSet) NodeSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return sortDedupe(append(a, b...))
}

// nodesOrdered reports whether ns is strictly ascending in document
// order (the staircase input contract).
func nodesOrdered(ns NodeSet) bool {
	for i := 1; i < len(ns); i++ {
		if !ns[i-1].Before(ns[i]) {
			return false
		}
	}
	return true
}

// --- explain ---------------------------------------------------------------

// Explain renders the compiled evaluation plan: one line per location
// step showing the operator the step lowers to — a sequence-level
// staircase scan (seq), a scan with a fused early-exit positional
// counter (seq pos=n), or the node-at-a-time fallback (per-node) — plus
// the count of predicates applied over the sequence. Paths nested in
// predicates and function arguments are rendered indented below their
// parent.
func (e *Expr) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", e.root)
	explainExpr(&b, e.root, 0)
	return b.String()
}

func (ps *planStep) mode() string {
	switch ps.kind {
	case opSeq:
		s := "seq"
		if ps.fused {
			s += " (fused //)"
		}
		s += ps.filters()
		if ps.dyn {
			s += " (dyn: numeric falls back per-node)"
		}
		return s
	case opFusedPos:
		s := fmt.Sprintf("seq, early-exit pos=%d", ps.pos)
		if ps.fused {
			s += " (fused //)"
		}
		return s + ps.filters()
	default:
		return "per-node"
	}
}

// filters renders the sequence predicates and the strategy of each: a
// semi-join (falling back per candidate when the candidates nest), the
// attribute-value semi-join, or a per-candidate evaluation.
func (ps *planStep) filters() string {
	if len(ps.seqPreds) == 0 {
		return ""
	}
	modes := make([]string, len(ps.seqPreds))
	for i, sj := range ps.semi {
		switch {
		case sj == nil:
			modes[i] = "per-candidate"
		case sj.attr:
			modes[i] = "semi-join (attr)"
		default:
			modes[i] = "semi-join"
		}
	}
	return fmt.Sprintf(", %d seq filter(s): %s", len(ps.seqPreds), strings.Join(modes, ", "))
}

func explainExpr(b *strings.Builder, e expr, depth int) {
	indent := strings.Repeat("  ", depth)
	switch x := e.(type) {
	case *pathExpr:
		if x.start != nil {
			fmt.Fprintf(b, "%sstart: %s\n", indent, x.start)
			explainExpr(b, x.start, depth+1)
		}
		for i := range x.plan.steps {
			ps := &x.plan.steps[i]
			fmt.Fprintf(b, "%sstep %d: %-36s %s\n", indent, i+1, ps.st.String(), ps.mode())
			for _, pr := range ps.st.preds {
				explainExpr(b, pr, depth+1)
			}
		}
	case *filterExpr:
		explainExpr(b, x.base, depth)
		for i, p := range x.preds {
			mode := "per-node (positional)"
			if i < len(x.seq) && x.seq[i] {
				mode = "seq (in-place)"
			}
			fmt.Fprintf(b, "%sfilter [%s]: %s\n", indent, p, mode)
			explainExpr(b, p, depth+1)
		}
	case *binaryExpr:
		explainExpr(b, x.l, depth)
		explainExpr(b, x.r, depth)
	case *negExpr:
		explainExpr(b, x.e, depth)
	case *unionExpr:
		explainExpr(b, x.l, depth)
		explainExpr(b, x.r, depth)
	case *funcCall:
		for _, a := range x.args {
			explainExpr(b, a, depth)
		}
	}
}
