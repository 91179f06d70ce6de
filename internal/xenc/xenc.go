// Package xenc defines the shared XML encoding types of the
// MonetDB/XQuery reproduction: the pre/size/level node numbering scheme
// (Grust's pre/post plane in its pre/size/level form, cf. Figure 2 of the
// paper), node kinds, interned qualified names, and the DocView interface
// that every document store (read-only, paged-updatable, naive) implements.
//
// Encoding invariants:
//
//   - Nodes are identified by their pre rank: the order in which opening
//     tags are seen during a sequential parse.
//   - size(v) is the number of live descendant nodes of v. In a store
//     without free space (the read-only schema) the classic equivalence
//     post = pre + size - level holds exactly.
//   - level(v) is the depth of v (the document root element has level 0).
//   - A store may interleave *unused tuples* between live nodes (the
//     updatable schema of Section 3). Unused tuples report
//     Level() == LevelUnused; their Size() is the number of directly
//     following consecutive unused tuples within the same logical page, so
//     scans can skip over free space in O(1) per run.
//
// Scans read the plane column-at-a-time: DocView.PageRun hands out the
// size/level/kind/name slices of a stretch of consecutive pre ranks, and
// an operator loops over the raw slices instead of paying one accessor
// call per column per tuple.
package xenc

import "fmt"

// Pre is a rank in the logical document-order view (the paper's "pre").
type Pre = int32

// Pos is a physical tuple position in the pos/size/level table (the
// paper's "pos"). In the read-only store Pre and Pos coincide.
type Pos = int32

// NodeID is an immutable node number that never changes during the node's
// lifetime (Section 3.1). External tables (attributes) reference NodeIDs.
type NodeID = int32

// Level is a tree depth. LevelUnused marks an unused tuple.
type Level = int16

// Size counts live descendant nodes (or, on an unused tuple, the length of
// the free run that directly follows it).
type Size = int32

const (
	// LevelUnused is the NULL level of an unused tuple.
	LevelUnused Level = -1
	// NoNode marks a tuple with no live node (unused tuples).
	NoNode NodeID = -1
	// NoName marks kinds without a qualified name (text, comment).
	NoName int32 = -1
	// NoPre reports a failed NodeID -> Pre translation.
	NoPre Pre = -1
)

// Kind classifies a live node.
type Kind uint8

// Node kinds, following the paper's schema (Figure 5): elements, text
// nodes, comments and processing instructions live in the pre/size/level
// table; attributes live in a side table.
const (
	KindElem Kind = iota
	KindText
	KindComment
	KindPI
	KindAttr
	kindSentinel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindElem:
		return "element"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindPI:
		return "processing-instruction"
	case KindAttr:
		return "attribute"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined node kind.
func (k Kind) Valid() bool { return k < kindSentinel }

// Run is a stretch of consecutive pre ranks handed out column-at-a-time
// by DocView.PageRun(p): Size[i], Level[i], Kind[i] and Name[i] describe
// the tuple at pre rank p+i, with the meaning of the per-tuple accessors
// (Kind holds Kind values). All four slices have the same length, at
// least 1. The slices alias the store and must not be modified.
type Run struct {
	Size  []Size
	Level []Level
	Kind  []uint8
	Name  []int32
}

// Attr is one attribute of an element: an interned name and its value.
type Attr struct {
	Name int32  // qname id in the document's QNamePool
	Val  string // attribute value
}

// DocView is the read interface over an encoded XML document. The
// staircase join, the XPath evaluator and the serializer operate purely on
// this interface, so they run unmodified on the read-only schema and on
// the paged updatable schema — exactly the property the paper obtains by
// rebuilding the pre/size/level view with memory mapping.
//
// Pre ranges over [0, Len()). Tuples with Level(p) == LevelUnused are free
// space and must be skipped; all other accessors are only meaningful on
// used tuples.
type DocView interface {
	// Len returns the number of tuples in the view, including unused ones.
	Len() Pre
	// LiveNodes returns the number of live (used) nodes.
	LiveNodes() int
	// Size returns the live descendant count of the node at p, or the
	// free-run length if p is unused.
	Size(p Pre) Size
	// Level returns the depth of the node at p, or LevelUnused.
	Level(p Pre) Level
	// Kind returns the node kind at p (undefined for unused tuples).
	Kind(p Pre) Kind
	// Name returns the interned qualified-name id at p, or NoName.
	Name(p Pre) int32
	// PageRun returns the columns of a run of consecutive tuples that
	// starts at p (0 <= p < Len()) and stays inside p's logical page: a
	// paged store returns the rest of the physical page behind it, a
	// store without pages the rest of its dense columns. Any length >= 1
	// is valid, so scans must not rely on run lengths: a free run's size
	// counts the unused tuples up to its page end, and a hop at offset i
	// may land past the returned run — the scan resumes at p+i, never at
	// p+len.
	PageRun(p Pre) Run
	// Value returns the textual content for text/comment/PI nodes ("" for
	// elements).
	Value(p Pre) string
	// NodeOf returns the immutable node id of the tuple at p, or NoNode.
	NodeOf(p Pre) NodeID
	// PreOf translates an immutable node id back to its current pre rank,
	// or NoPre if the node does not exist (deleted or never allocated).
	PreOf(n NodeID) Pre
	// Attrs returns the attributes of the element at p in document order.
	// The returned slice must not be modified.
	Attrs(p Pre) []Attr
	// AttrValue returns the value of the named attribute of the element at
	// p, if present.
	AttrValue(p Pre, name int32) (string, bool)
	// Names exposes the document's interned qualified names.
	Names() *QNamePool
	// Root returns the pre rank of the root element (the first used
	// tuple).
	Root() Pre
}

// PostOf computes the post rank of a used tuple under the classic
// equivalence post = pre + size - level. It is exact on stores without
// free space and is exercised by the Figure 2 property tests.
func PostOf(v DocView, p Pre) int32 {
	return p + v.Size(p) - int32(v.Level(p))
}

// IsUsed reports whether the tuple at p holds a live node.
func IsUsed(v DocView, p Pre) bool {
	return p >= 0 && p < v.Len() && v.Level(p) != LevelUnused
}

// SkipFree returns the first used tuple at or after p, hopping over free
// runs using their stored run lengths (the paper: "the size column holds
// the amount of directly following consecutive unused tuples. This allows
// the staircase-join to skip over unused tuples quickly."). It returns
// v.Len() if no used tuple remains.
func SkipFree(v DocView, p Pre) Pre {
	n := v.Len()
	for p < n && v.Level(p) == LevelUnused {
		p += v.Size(p) + 1
	}
	if p > n {
		p = n
	}
	return p
}

// PrevUsed returns the last used tuple strictly before p, or -1. Free runs
// are crossed one tuple at a time; runs are short (bounded by the logical
// page size), and backward steps are only taken by the parent/ancestor
// and preceding axes.
func PrevUsed(v DocView, p Pre) Pre {
	for p--; p >= 0; p-- {
		if v.Level(p) != LevelUnused {
			return p
		}
	}
	return -1
}
