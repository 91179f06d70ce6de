// Package rostore implements the paper's *original* read-only schema
// (Figure 5): dense pre/size/level columns with a virtual (void) pre
// column, and an attribute table that refers directly to pre values.
// It has no free space, no pageOffset indirection and no node/pos table —
// which is exactly why it cannot be updated, and why it serves as the
// 'ro' side of the Figure 9 experiment.
package rostore

import (
	"fmt"

	"mxq/internal/bat"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// Store is the immutable pre/size/level document store.
type Store struct {
	size  []int32
	level []int16
	kind  []uint8
	name  []int32
	text  []string

	// Attribute table sorted by owner pre, indexed CSR-style, with
	// values dictionary-encoded in prop (Figure 5).
	attrOff  []int32 // len = LiveNodes+1
	attrName []int32
	attrVal  []int32
	prop     *bat.Dict

	qn *xenc.QNamePool
}

// Build encodes a shredded tree. The tree must be a single-rooted
// document (shred.Parse guarantees that).
func Build(t *shred.Tree) (*Store, error) {
	n := len(t.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("rostore: cannot build a store from an empty tree")
	}
	s := &Store{
		size:  make([]int32, n),
		level: make([]int16, n),
		kind:  make([]uint8, n),
		name:  make([]int32, n),
		text:  make([]string, n),
		prop:  bat.NewDict(),
		qn:    xenc.NewQNamePool(),
	}
	s.attrOff = make([]int32, n+1)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		s.size[i] = nd.Size
		s.level[i] = nd.Level
		s.kind[i] = uint8(nd.Kind)
		s.text[i] = nd.Value
		switch nd.Kind {
		case xenc.KindElem, xenc.KindPI:
			s.name[i] = s.qn.Intern(nd.Name)
		default:
			s.name[i] = xenc.NoName
		}
		s.attrOff[i] = int32(len(s.attrName))
		for _, a := range nd.Attrs {
			s.attrName = append(s.attrName, s.qn.Intern(a.Name))
			s.attrVal = append(s.attrVal, s.prop.Put(a.Value))
		}
	}
	s.attrOff[n] = int32(len(s.attrName))
	return s, nil
}

// Len returns the number of tuples (== live nodes; there is no free
// space in the read-only schema).
func (s *Store) Len() xenc.Pre { return int32(len(s.size)) }

// LiveNodes returns the number of live nodes.
func (s *Store) LiveNodes() int { return len(s.size) }

// Size returns the descendant count at p.
func (s *Store) Size(p xenc.Pre) xenc.Size { return s.size[p] }

// Level returns the depth at p.
func (s *Store) Level(p xenc.Pre) xenc.Level { return s.level[p] }

// Kind returns the node kind at p.
func (s *Store) Kind(p xenc.Pre) xenc.Kind { return xenc.Kind(s.kind[p]) }

// Name returns the interned name id at p.
func (s *Store) Name(p xenc.Pre) int32 { return s.name[p] }

// PageRun returns the dense columns from p to the end of the plane.
func (s *Store) PageRun(p xenc.Pre) xenc.Run {
	return xenc.Run{Size: s.size[p:], Level: s.level[p:], Kind: s.kind[p:], Name: s.name[p:]}
}

// Value returns the text content at p.
func (s *Store) Value(p xenc.Pre) string { return s.text[p] }

// NodeOf returns the stable node id of p. In the read-only schema node
// ids are the pre ranks themselves (the document never changes).
func (s *Store) NodeOf(p xenc.Pre) xenc.NodeID { return p }

// PreOf translates a node id back to a pre rank (the identity here).
func (s *Store) PreOf(n xenc.NodeID) xenc.Pre {
	if n < 0 || n >= s.Len() {
		return xenc.NoPre
	}
	return n
}

// Attrs returns the attributes of the element at p.
func (s *Store) Attrs(p xenc.Pre) []xenc.Attr {
	lo, hi := s.attrOff[p], s.attrOff[p+1]
	if lo == hi {
		return nil
	}
	out := make([]xenc.Attr, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = xenc.Attr{Name: s.attrName[i], Val: s.prop.Get(s.attrVal[i])}
	}
	return out
}

// AttrValue returns the value of the named attribute of the element at p.
func (s *Store) AttrValue(p xenc.Pre, name int32) (string, bool) {
	for i := s.attrOff[p]; i < s.attrOff[p+1]; i++ {
		if s.attrName[i] == name {
			return s.prop.Get(s.attrVal[i]), true
		}
	}
	return "", false
}

// Names exposes the document's interned names.
func (s *Store) Names() *xenc.QNamePool { return s.qn }

// Root returns the pre rank of the root element.
func (s *Store) Root() xenc.Pre { return 0 }

var _ xenc.DocView = (*Store)(nil)
