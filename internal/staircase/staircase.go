// Package staircase evaluates XPath axis steps over the pre/size/level
// encoding, following the staircase join of Grust, van Keulen and Teubner
// (VLDB 2003) as used by MonetDB/XQuery. The algorithms operate on the
// xenc.DocView interface only, so — like the original staircase join
// behind the memory-mapped pre/size/level view — they run unmodified on
// the read-only and on the paged updatable schema.
//
// The two tree-awareness tricks of the paper are implemented:
//
//   - positional skipping: children are found by hopping
//     pre += size(pre)+1 from sibling to sibling, and context nodes whose
//     region was already scanned are pruned, so no tuple is inspected
//     twice;
//   - free-space skipping: unused tuples are hopped over in O(1) per run
//     using the free-run lengths in their size column.
//
// The forward scans (child, descendant, following and their siblings,
// preceding, and the whole-plane scan All behind the document node's
// descendant axes) run column-at-a-time, as MonetDB's staircase join
// loops over contiguous level/size columns: they fetch one run of the
// plane per call to xenc.DocView.PageRun and match a node test on the
// raw level/kind/name values of the run. The run contract is that any
// run length is valid and a hop may overshoot a run's end, so every scan
// resumes at the absolute pre rank it reached (start+i), never at the
// run's end. Only the backward walks (parent, ancestor) read single
// tuples.
//
// The operators are *sequence-at-a-time*: every axis takes the whole
// context sequence and returns the whole result sequence, which is what
// lets the pruning fire at all — a caller that loops over single-node
// contexts re-scans every overlapping region once per context node and
// pays an O(n log n) merge per step on top. The contract on both sides
// is the same: context sequences are ascending pre ranks without
// duplicates (document order), and results are returned the same way,
// already merged — callers never sort or dedupe behind these operators.
// EvalAxis dispatches a sequence over any of the eleven tree axes; Scan
// enumerates a forward axis from a single context node with early exit
// (the hook positional predicates fuse into); All is the descendant axis
// of the virtual document node, every live tuple. The twelfth XPath axis
// (attribute) reads the side table, not the pre/size/level plane, and
// lives in the xpath layer.
package staircase

import (
	"sort"

	"mxq/internal/xenc"
)

// Axis identifies one of the eleven tree axes EvalAxis dispatches over.
type Axis int

// The tree axes. (attribute is not a tree axis: it reads the attribute
// side table and is handled by the caller.)
const (
	AxisSelf Axis = iota
	AxisChild
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowing
	AxisFollowingSibling
	AxisPreceding
	AxisPrecedingSibling
)

// EvalAxis applies one axis step to the whole context sequence: ctx is
// ascending pre ranks without duplicates, and the result is the same —
// document order, duplicate-free, with the paper's context pruning
// applied wherever the axis admits it.
func EvalAxis(v xenc.DocView, ctx []xenc.Pre, ax Axis, t Test) []xenc.Pre {
	switch ax {
	case AxisSelf:
		return Self(v, ctx, t)
	case AxisChild:
		return Child(v, ctx, t)
	case AxisDescendant:
		return Descendant(v, ctx, t)
	case AxisDescendantOrSelf:
		return DescendantOrSelf(v, ctx, t)
	case AxisParent:
		return Parent(v, ctx, t)
	case AxisAncestor:
		return Ancestor(v, ctx, t)
	case AxisAncestorOrSelf:
		return AncestorOrSelf(v, ctx, t)
	case AxisFollowing:
		return Following(v, ctx, t)
	case AxisFollowingSibling:
		return FollowingSibling(v, ctx, t)
	case AxisPreceding:
		return Preceding(v, ctx, t)
	case AxisPrecedingSibling:
		return PrecedingSibling(v, ctx, t)
	}
	return nil
}

// Scan enumerates a *forward* axis from a single context node in
// document order, calling fn for every node matching the test until fn
// returns false. It exists for fused positional predicates ([1], [n]):
// the caller counts matches and stops the scan at the n-th, so a
// first-child probe over a huge subtree inspects one tuple instead of
// the whole region. Supported axes: self, child, descendant,
// descendant-or-self, following-sibling, following; reverse axes
// enumerate against document order and are not scannable this way.
func Scan(v xenc.DocView, c xenc.Pre, ax Axis, t Test, fn func(xenc.Pre) bool) {
	switch ax {
	case AxisSelf:
		if t.Matches(v, c) {
			fn(c)
		}
	case AxisChild:
		hop(v, c+1, v.Len(), v.Level(c)+1, t, fn)
	case AxisDescendant, AxisDescendantOrSelf:
		if ax == AxisDescendantOrSelf && t.Matches(v, c) && !fn(c) {
			return
		}
		descend(v, c, t, fn)
	case AxisFollowingSibling:
		if lvl := v.Level(c); lvl > 0 {
			hop(v, c+v.Size(c)+1, v.Len(), lvl, t, fn)
		}
	case AxisFollowing:
		forward(v, regionEnd(v, c)+1, v.Len(), t, fn)
	}
}

// Test is a node test: an optional kind filter and an optional name
// filter (interned qname id).
type Test struct {
	kindSet bool
	kind    xenc.Kind
	name    int32 // xenc.NoName matches any name
}

// AnyNode matches every node (node()).
func AnyNode() Test { return Test{name: xenc.NoName} }

// KindTest matches nodes of one kind regardless of name (text(),
// comment()).
func KindTest(k xenc.Kind) Test { return Test{kindSet: true, kind: k, name: xenc.NoName} }

// Element matches element nodes; name xenc.NoName means any element (*).
func Element(name int32) Test {
	return Test{kindSet: true, kind: xenc.KindElem, name: name}
}

// PITest matches processing instructions; target xenc.NoName matches all.
func PITest(target int32) Test {
	return Test{kindSet: true, kind: xenc.KindPI, name: target}
}

// NoMatch matches no node (a name test for a name the document never
// interned).
func NoMatch() Test { return Element(noName) }

// noName is a name id no store hands out.
const noName int32 = -2

// Matches reports whether the used tuple at p satisfies the test.
func (t Test) Matches(v xenc.DocView, p xenc.Pre) bool {
	return !t.kindSet || v.Kind(p) == t.kind && (t.name == xenc.NoName || v.Name(p) == t.name)
}

// match is Matches on raw kind/name column values.
func (t Test) match(kind uint8, name int32) bool {
	return !t.kindSet || xenc.Kind(kind) == t.kind && (t.name == xenc.NoName || name == t.name)
}

// Self filters the context sequence by the test.
func Self(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var out []xenc.Pre
	for _, c := range ctx {
		if t.Matches(v, c) {
			out = append(out, c)
		}
	}
	return out
}

// Descendant returns the matching descendants of the context sequence in
// document order. Context nodes inside an already-scanned region are
// pruned (the staircase "pruning"), so the scan touches every result
// region exactly once.
func Descendant(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	return descendants(v, ctx, t, false)
}

// DescendantOrSelf is Descendant plus the matching context nodes.
func DescendantOrSelf(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	return descendants(v, ctx, t, true)
}

func descendants(v xenc.DocView, ctx []xenc.Pre, t Test, self bool) []xenc.Pre {
	var r results
	high := xenc.Pre(-1) // last pre already covered by a scanned region
	for _, c := range ctx {
		if c <= high {
			continue // pruned: c lies inside a region scanned before
		}
		if self && t.Matches(v, c) {
			r.emit(c)
		}
		high = descend(v, c, t, r.emit)
	}
	return r.out
}

// All returns every live tuple matching the test, in document order: the
// descendant axis of the virtual document node, one scan of the whole
// plane.
func All(v xenc.DocView, t Test) []xenc.Pre {
	var r results
	forward(v, 0, v.Len(), t, r.emit)
	return r.out
}

// Child returns the matching children of the context sequence, hopping
// from sibling to sibling with pre += size+1 ("finding all children of a
// node works by checking the first child and skipping to its siblings").
func Child(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var r results
	n := v.Len()
	for _, c := range ctx {
		hop(v, c+1, n, v.Level(c)+1, t, r.emit)
	}
	return r.merged()
}

// Parent returns the distinct parents of the context sequence. Runs of
// sibling context nodes share a parent, so consecutive repeats are
// collapsed during the walk; the merge sort only fires when parents of
// later context nodes actually land out of order (cousin sequences).
func Parent(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var r results
	lastPar := xenc.NoPre
	for _, c := range ctx {
		p := parentOf(v, c)
		if p == lastPar {
			continue // sibling run: same parent as the previous context node
		}
		lastPar = p
		if p != xenc.NoPre && t.Matches(v, p) {
			r.emit(p)
		}
	}
	return r.merged()
}

// Ancestor returns the distinct ancestors of the context sequence.
func Ancestor(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	seen := make(map[xenc.Pre]bool)
	var out []xenc.Pre
	for _, c := range ctx {
		for p := parentOf(v, c); p != xenc.NoPre; p = parentOf(v, p) {
			if seen[p] {
				break // the rest of the chain was walked before
			}
			seen[p] = true
			if t.Matches(v, p) {
				out = append(out, p)
			}
		}
	}
	sortPres(out)
	return out
}

// AncestorOrSelf is Ancestor plus the matching context nodes.
func AncestorOrSelf(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	out := Ancestor(v, ctx, t)
	out = append(out, Self(v, ctx, t)...)
	sortPres(out)
	return dedupe(out)
}

// FollowingSibling returns the matching following siblings. Sibling-run
// pruning: once one context node's sibling run is scanned, every later
// context node inside that run at the same level is itself a following
// sibling of the first — its results are a suffix of what was already
// emitted — so it is skipped without touching a tuple.
func FollowingSibling(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var r results
	n := v.Len()
	runHigh := xenc.Pre(-1) // last pre examined by the previous sibling scan
	runLvl := xenc.Level(-2)
	for _, c := range ctx {
		lvl := v.Level(c)
		if lvl == 0 {
			continue // the root has no siblings
		}
		if c <= runHigh && lvl == runLvl {
			continue // pruned: c is a sibling inside the run scanned before
		}
		runHigh, runLvl = hop(v, c+v.Size(c)+1, n, lvl, t, r.emit)-1, lvl
	}
	return r.merged()
}

// PrecedingSibling returns the matching preceding siblings.
func PrecedingSibling(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	var r results
	for _, c := range ctx {
		if par := parentOf(v, c); par != xenc.NoPre {
			hop(v, par+1, c, v.Level(c), t, r.emit)
		}
	}
	return r.merged()
}

// Following returns everything after the context regions. The staircase
// observation: following(ctx) == following(c*) where c* is the context
// node whose region ends first, so one scan suffices.
func Following(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if len(ctx) == 0 {
		return nil
	}
	// Ancestors of a node always precede it, so everything after the
	// earliest region end is in the following axis of the union.
	minEnd := xenc.Pre(-1)
	for _, c := range ctx {
		end := regionEnd(v, c)
		if minEnd < 0 || end < minEnd {
			minEnd = end
		}
	}
	var r results
	forward(v, minEnd+1, v.Len(), t, r.emit)
	return r.out
}

// Preceding returns everything before the context nodes except their
// ancestors. Dual staircase observation: preceding(ctx) ==
// preceding(max ctx).
func Preceding(v xenc.DocView, ctx []xenc.Pre, t Test) []xenc.Pre {
	if len(ctx) == 0 {
		return nil
	}
	c := ctx[len(ctx)-1]
	var anc []xenc.Pre // c's ancestors, nearest first
	for p := parentOf(v, c); p != xenc.NoPre; p = parentOf(v, p) {
		anc = append(anc, p)
	}
	var r results
	forward(v, 0, c, t, func(p xenc.Pre) bool {
		// The scan passes the ancestors in document order, farthest first.
		for len(anc) > 0 && anc[len(anc)-1] < p {
			anc = anc[:len(anc)-1]
		}
		if len(anc) == 0 || anc[len(anc)-1] != p {
			r.emit(p)
		}
		return true
	})
	return r.out
}

// forward calls fn on every live tuple in [p, end) that matches the test,
// in document order, until fn returns false.
func forward(v xenc.DocView, p, end xenc.Pre, t Test, fn func(xenc.Pre) bool) {
	for p < end {
		r := v.PageRun(p)
		n := min(xenc.Pre(len(r.Level)), end-p)
		i := xenc.Pre(0)
		for i < n {
			if r.Level[i] == xenc.LevelUnused {
				i += r.Size[i] + 1
				continue
			}
			if t.match(r.Kind[i], r.Name[i]) && !fn(p+i) {
				return
			}
			i++
		}
		p += i
	}
}

// descend calls fn on c's matching descendants in document order until fn
// returns false: the size(c) live tuples after c, free runs skipped. It
// returns the last pre rank it scanned (c's region end after a full scan).
func descend(v xenc.DocView, c xenc.Pre, t Test, fn func(xenc.Pre) bool) xenc.Pre {
	remaining := v.Size(c)
	lvl := v.Level(c)
	last := c
	for p, n := c+1, v.Len(); remaining > 0 && p < n; {
		r := v.PageRun(p)
		i := xenc.Pre(0)
		for i < xenc.Pre(len(r.Level)) && remaining > 0 {
			l := r.Level[i]
			if l == xenc.LevelUnused {
				i += r.Size[i] + 1
				continue
			}
			if l <= lvl {
				return last // corrupt size would spin; defend
			}
			last = p + i
			remaining--
			if t.match(r.Kind[i], r.Name[i]) && !fn(last) {
				return last
			}
			i++
		}
		p += i
	}
	return last
}

// hop calls fn on the matching tuples at level lvl in [p, end) until fn
// returns false, moving from each tuple to the next with pre += size+1 —
// which skips a live node's descendants and a free run alike — and
// stopping at the first live tuple above level lvl. It returns the pre
// rank it stopped at. With free space interleaved a hop may land inside
// the previous node's region; the deeper tuple found there hops on in
// turn, so each extra hole costs at most one extra hop.
func hop(v xenc.DocView, p, end xenc.Pre, lvl xenc.Level, t Test, fn func(xenc.Pre) bool) xenc.Pre {
	for p < end {
		r := v.PageRun(p)
		n := min(xenc.Pre(len(r.Level)), end-p)
		i := xenc.Pre(0)
		for i < n {
			if l := r.Level[i]; l != xenc.LevelUnused {
				if l < lvl {
					return p + i
				}
				if l == lvl && t.match(r.Kind[i], r.Name[i]) && !fn(p+i) {
					return p + i
				}
			}
			i += r.Size[i] + 1
		}
		p += i
	}
	return p
}

// parentOf finds the parent by the backward level scan: the nearest
// preceding used tuple with a smaller level is the parent in pre-order.
func parentOf(v xenc.DocView, c xenc.Pre) xenc.Pre {
	lvl := v.Level(c)
	if lvl == 0 {
		return xenc.NoPre
	}
	for p := c - 1; p >= 0; p-- {
		l := v.Level(p)
		if l != xenc.LevelUnused && l < lvl {
			return p
		}
	}
	return xenc.NoPre
}

// regionEnd returns the pre rank of the last live tuple in c's region (c
// itself for leaves): a descend whose test matches nothing.
func regionEnd(v xenc.DocView, c xenc.Pre) xenc.Pre {
	return descend(v, c, NoMatch(), nil)
}

// results collects an operator's output. A single scan emits ascending
// pre ranks; when the scans of different context nodes interleave
// (cousin contexts), merged sorts and dedupes once at the end.
type results struct {
	out      []xenc.Pre
	unsorted bool
}

// emit appends p; it always continues the scan.
func (r *results) emit(p xenc.Pre) bool {
	if n := len(r.out); n > 0 && p <= r.out[n-1] {
		r.unsorted = true
	}
	r.out = append(r.out, p)
	return true
}

// merged returns the output in document order without duplicates.
func (r *results) merged() []xenc.Pre {
	if r.unsorted {
		sortPres(r.out)
		r.out = dedupe(r.out)
	}
	return r.out
}

func sortPres(s []xenc.Pre) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func dedupe(s []xenc.Pre) []xenc.Pre {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
