// Package core implements the paper's contribution: an *updatable*
// pre/size/level XML store (Sections 3–3.2, Figures 4, 6 and 7).
//
// The physical table is pos/size/level: it is divided into logical pages,
// each logical page may contain unused tuples, and new logical pages are
// only ever appended. The pre/size/level view that queries run against is
// the physical table with its pages presented in *logical* order; the
// pageOffset tables (logToPhys / physToLog) carry that order. Because the
// pre column of the view is virtual (a void column — here: the slice
// index), all pre numbers after an insert point shift "at no update cost
// at all" when a page is spliced into the logical order.
//
// Every node carries an immutable NodeID; the node/pos table translates
// NodeIDs to physical positions, and the attribute table references
// NodeIDs, so attribute rows never need maintenance when tuples move
// (Figure 6). Translating a NodeID to a pre rank is the paper's swizzle:
// a positional lookup in node/pos followed by
// physToLog[pos>>pageBits]<<pageBits | pos&pageMask.
//
// Unused tuples have level == NULL (xenc.LevelUnused) and their size
// column holds the number of directly following consecutive unused tuples
// *within the same logical page*, so scans skip free space in O(1) per
// run and page splices can never corrupt a run.
//
// # Copy-on-write snapshots
//
// All columns are physically chunked per page: the pos/size/level table
// is a slice of *page chunks, and the NodeID-keyed tables (node/pos,
// parent, attributes) and the recycled-NodeID stack are chunks of the
// same granularity. Snapshot reproduces Section 3.2's "temporary view
// backed by a copy-on-write memory-map on the base table": it shares
// every chunk between the base store and the snapshot by bumping each
// chunk's reference count, so taking a snapshot is O(pages), not
// O(document), and never mutates base-private state. Every write path
// funnels through the dirtyPage / dirtyNodeChunk / dirtyFreeChunk hooks,
// which privately copy a chunk the first time it is written while shared
// (refs > 1) — "only those parts of the table that are actually updated
// get copied"; the base table is never altered through a snapshot. A
// transaction therefore materializes only the logical pages it touches,
// and commit — which replays the transaction's operations onto the base
// — likewise copies only the pages it writes, leaving the chunks shared
// with live snapshots untouched. Releasing a snapshot (Store.Release)
// decrements its chunks' reference counts; once a chunk's last sharer is
// gone, the surviving owner writes it in place again, so a snapshot's
// lifetime cost is bounded by the pages dirtied while it was live.
//
// The qualified-name pool and the attribute-value dictionary are shared
// between the base and all snapshots (both are append-only and internally
// synchronized); an aborted transaction can leave unreferenced dictionary
// entries behind, which CompactDictionaries reclaims offline the way
// Compact reclaims dead pages.
package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"mxq/internal/shred"
	"mxq/internal/xenc"
)

// DefaultPageSize is the logical page size in tuples. The paper sets the
// logical page to the virtual-memory mapping granularity; for an in-Go
// store the tuple count is the tunable that matters (ablation AB2).
const DefaultPageSize = 1024

// DefaultFillFactor is the fraction of each logical page the shredder
// fills; the remainder is left unused for future inserts. The Figure 9
// scenario keeps ~20% of the logical pages unused, i.e. fill factor 0.8.
const DefaultFillFactor = 0.8

// Options configure a paged store at build time.
type Options struct {
	// PageSize is the logical page size in tuples (power of two ≥ 8).
	// 0 means DefaultPageSize.
	PageSize int
	// FillFactor in (0,1] is the fraction of each page the shredder
	// fills. 0 means DefaultFillFactor.
	FillFactor float64
}

func (o Options) withDefaults() (Options, error) {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.FillFactor == 0 {
		o.FillFactor = DefaultFillFactor
	}
	if o.PageSize < 8 || o.PageSize&(o.PageSize-1) != 0 {
		return o, fmt.Errorf("core: page size %d is not a power of two ≥ 8", o.PageSize)
	}
	if o.FillFactor < 0 || o.FillFactor > 1 {
		return o, fmt.Errorf("core: fill factor %g out of (0,1]", o.FillFactor)
	}
	return o, nil
}

type attrRef struct {
	name int32 // qname id
	val  int32 // prop dictionary id
}

// page is one physical page's worth of the pos/size/level table (plus the
// kind/name/text/node columns).
//
// refs counts the stores referencing the chunk (the base plus every live
// snapshot sharing it). A chunk with refs == 1 is exclusively owned and
// may be written in place; a shared chunk (refs > 1) is immutable, and
// writers obtain a private copy through Store.dirtyPage, dropping their
// reference to the shared original. Store.Release decrements the refs of
// every chunk a snapshot holds, so once the last sharer is gone the
// remaining owner writes the chunk in place again — a cached snapshot
// that survives many commits therefore costs O(pages dirtied while it
// was live), never a permanent copy-on-every-write tax.
type page struct {
	refs  atomic.Int32
	hash  chunkHash // content address of the serialized chunk (see chunked.go)
	size  []int32
	level []int16
	kind  []uint8
	name  []int32
	text  []string
	node  []int32 // pos -> NodeID (NoNode on unused tuples)
}

func newPage(n int) *page {
	p := &page{
		size:  make([]int32, n),
		level: make([]int16, n),
		kind:  make([]uint8, n),
		name:  make([]int32, n),
		text:  make([]string, n),
		node:  make([]int32, n),
	}
	p.refs.Store(1)
	return p
}

func (p *page) clone() *page {
	c := &page{
		size:  append([]int32(nil), p.size...),
		level: append([]int16(nil), p.level...),
		kind:  append([]uint8(nil), p.kind...),
		name:  append([]int32(nil), p.name...),
		text:  append([]string(nil), p.text...),
		node:  append([]int32(nil), p.node...),
	}
	c.refs.Store(1)
	return c
}

// nodeChunk holds one page-sized chunk of the NodeID-keyed tables:
// node/pos, the parent column, and the attribute table (Figure 6). It is
// copy-on-write with the same refcount discipline as page.
type nodeChunk struct {
	refs   atomic.Int32
	hash   chunkHash
	pos    []int32     // NodeID -> Pos (-1 when the id is free)
	parent []int32     // NodeID -> parent NodeID (NoNode for a root)
	attrs  [][]attrRef // NodeID -> attribute refs
}

func newNodeChunk(n int) *nodeChunk {
	c := &nodeChunk{
		pos:    make([]int32, n),
		parent: make([]int32, n),
		attrs:  make([][]attrRef, n),
	}
	c.refs.Store(1)
	return c
}

func (c *nodeChunk) clone() *nodeChunk {
	n := &nodeChunk{
		pos:    append([]int32(nil), c.pos...),
		parent: append([]int32(nil), c.parent...),
		attrs:  append([][]attrRef(nil), c.attrs...),
	}
	n.refs.Store(1)
	return n
}

// freeChunk is one page-sized chunk of the recycled-NodeID stack, with
// the same copy-on-write refcount discipline as page. Chunking the free
// list bounds the cost of the first free-list mutation after a snapshot
// to one chunk, where a flat slice was once copied wholesale — the cost
// that used to make a 1-node transaction O(deleted nodes) after heavy
// deletes.
type freeChunk struct {
	refs atomic.Int32
	hash chunkHash
	ids  []int32
}

func newFreeChunk(n int) *freeChunk {
	c := &freeChunk{ids: make([]int32, n)}
	c.refs.Store(1)
	return c
}

func (c *freeChunk) clone() *freeChunk {
	n := &freeChunk{ids: append([]int32(nil), c.ids...)}
	n.refs.Store(1)
	return n
}

// Store is the paged updatable document store.
//
// A Store is safe for concurrent readers. Writes require external
// serialization (the transaction layer provides it); a Store obtained
// from Snapshot may be written by exactly one goroutine, which is what
// isolates a write transaction from the base.
type Store struct {
	pageBits uint
	pageMask int32
	pageSize int32

	// Physical pos/size/level table, chunked per physical page. A chunk
	// with refs == 1 is private to this store; shared chunks (refs > 1)
	// are frozen and must be copied via dirtyPage before the first write.
	pages []*page

	// pageOffset tables: logical page order over physical pages.
	logToPhys []int32
	physToLog []int32

	// NodeID-keyed tables, chunked at page granularity with the same
	// copy-on-write discipline. nodeLen is the number of NodeIDs ever
	// allocated (the tail of the last chunk is unallocated headroom).
	nodes   []*nodeChunk
	nodeLen int32

	// The recycled-NodeID stack, chunked at page granularity. freeLen is
	// the stack depth; popping only reads (the slot above freeLen is dead
	// to this store), so it never copies, while pushing dirties exactly
	// the tail chunk.
	freeChunks []*freeChunk
	freeLen    int32

	// The attribute-value dictionary (Figure 5) and the qualified-name
	// pool are shared between the base and every snapshot: both are
	// append-only and internally synchronized.
	prop *propDict
	qn   *xenc.QNamePool

	liveNodes int
}

// propDict is the attribute-value dictionary. It is append-only and safe
// for concurrent use: the base store and all its snapshots share one
// dictionary (ids handed to an aborted snapshot simply go unreferenced).
type propDict struct {
	mu   sync.RWMutex
	vals []string
	ids  map[string]int32
}

func newPropDict() *propDict { return &propDict{ids: make(map[string]int32)} }

func (d *propDict) put(s string) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.ids[s] = id
	return id
}

func (d *propDict) get(id int32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vals[id]
}

// count returns the number of dictionary entries.
func (d *propDict) count() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vals)
}

// values returns a point-in-time copy of the dictionary contents.
func (d *propDict) values() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.vals...)
}

// Build shreds a tree into a fresh paged store. Each page receives at
// most FillFactor*PageSize nodes; the page tail is left as an unused run.
func Build(t *shred.Tree, opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(t.Nodes) == 0 {
		return nil, fmt.Errorf("core: cannot build a store from an empty tree")
	}
	s := &Store{
		pageBits: uint(bits.TrailingZeros(uint(opts.PageSize))),
		pageMask: int32(opts.PageSize - 1),
		pageSize: int32(opts.PageSize),
		prop:     newPropDict(),
		qn:       xenc.NewQNamePool(),
	}
	perPage := int32(float64(opts.PageSize) * opts.FillFactor)
	if perPage < 1 {
		perPage = 1
	}
	n := int32(len(t.Nodes))
	for at := int32(0); at < n; at += perPage {
		chunk := t.Nodes[at:min32(at+perPage, n)]
		pg := s.appendPhysPage()
		s.logToPhys = append(s.logToPhys, pg)
		s.physToLog = append(s.physToLog, int32(len(s.logToPhys)-1))
		base := pg << s.pageBits
		for i := range chunk {
			s.writeNode(base+int32(i), &chunk[i], s.newNodeID())
		}
		s.markFreeRun(base+int32(len(chunk)), base+s.pageSize)
	}
	// Wire parent links from the shredded levels with a stack.
	var stack []xenc.NodeID
	for i := range t.Nodes {
		lvl := int(t.Nodes[i].Level)
		stack = stack[:lvl]
		id := xenc.NodeID(i)
		if lvl == 0 {
			s.setParent(id, xenc.NoNode)
		} else {
			s.setParent(id, stack[lvl-1])
		}
		stack = append(stack, id)
	}
	s.liveNodes = int(n)
	return s, nil
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// --- copy-on-write plumbing ----------------------------------------------

// dirtyPage is the copy-on-write hook of every physical write path: it
// returns a privately owned copy of physical page pg, copying the chunk
// first if it is still shared with the base or a snapshot (refs > 1) and
// dropping this store's reference to the shared original.
func (s *Store) dirtyPage(pg int32) *page {
	p := s.pages[pg]
	if p.refs.Load() != 1 {
		c := p.clone()
		p.refs.Add(-1)
		s.pages[pg] = c
		p = c
	}
	// The caller is about to write: whatever content hash the chunk had
	// cached no longer describes it. (A clone starts without one; the
	// shared original keeps its — still valid — hash.)
	p.hash.invalidate()
	return p
}

// dirtyNodeChunk is dirtyPage for the NodeID-keyed tables.
func (s *Store) dirtyNodeChunk(ch int32) *nodeChunk {
	c := s.nodes[ch]
	if c.refs.Load() != 1 {
		n := c.clone()
		c.refs.Add(-1)
		s.nodes[ch] = n
		c = n
	}
	c.hash.invalidate()
	return c
}

// dirtyFreeChunk is dirtyPage for the recycled-NodeID stack.
func (s *Store) dirtyFreeChunk(ch int32) *freeChunk {
	c := s.freeChunks[ch]
	if c.refs.Load() != 1 {
		n := c.clone()
		c.refs.Add(-1)
		s.freeChunks[ch] = n
		c = n
	}
	c.hash.invalidate()
	return c
}

// pushFree records a recycled NodeID. Only the tail chunk is dirtied, so
// the first free-list mutation after a snapshot costs one chunk copy no
// matter how deep the stack is.
func (s *Store) pushFree(id int32) {
	ch := s.freeLen >> s.pageBits
	if int(ch) == len(s.freeChunks) {
		s.freeChunks = append(s.freeChunks, newFreeChunk(int(s.pageSize)))
	}
	s.dirtyFreeChunk(ch).ids[s.freeLen&s.pageMask] = id
	s.freeLen++
}

// popFree takes the most recently recycled NodeID. Popping only reads:
// the slot above the shrunk freeLen is dead to this store, and a later
// push overwriting it goes through dirtyFreeChunk, so snapshots sharing
// the chunk are never disturbed.
func (s *Store) popFree() (int32, bool) {
	if s.freeLen == 0 {
		return 0, false
	}
	s.freeLen--
	return s.freeChunks[s.freeLen>>s.pageBits].ids[s.freeLen&s.pageMask], true
}

// forEachFree visits the recycled NodeIDs (testing and invariant checks).
func (s *Store) forEachFree(fn func(id int32)) {
	for i := int32(0); i < s.freeLen; i++ {
		fn(s.freeChunks[i>>s.pageBits].ids[i&s.pageMask])
	}
}

// Release drops this store's references to every chunk it shares, so the
// remaining owner (typically the base store) regains exclusive ownership
// and writes those chunks in place again instead of copying them. It is
// how a dropped snapshot stops taxing later commits.
//
// Release must be called at most once, and only when no goroutine will
// read the store again (the transaction manager's refcounted read views
// guarantee this for cached snapshots). It is safe to call concurrently
// with reads and writes of *other* stores sharing the same chunks. The
// store is unusable afterwards.
func (s *Store) Release() {
	for _, p := range s.pages {
		p.refs.Add(-1)
	}
	for _, c := range s.nodes {
		c.refs.Add(-1)
	}
	for _, c := range s.freeChunks {
		c.refs.Add(-1)
	}
	s.pages, s.nodes, s.freeChunks = nil, nil, nil
	s.logToPhys, s.physToLog = nil, nil
	s.nodeLen, s.freeLen, s.liveNodes = 0, 0, 0
}

// --- raw column access ----------------------------------------------------

func (s *Store) sizeAt(pos int32) int32  { return s.pages[pos>>s.pageBits].size[pos&s.pageMask] }
func (s *Store) levelAt(pos int32) int16 { return s.pages[pos>>s.pageBits].level[pos&s.pageMask] }
func (s *Store) kindAt(pos int32) uint8  { return s.pages[pos>>s.pageBits].kind[pos&s.pageMask] }
func (s *Store) nameAt(pos int32) int32  { return s.pages[pos>>s.pageBits].name[pos&s.pageMask] }
func (s *Store) textAt(pos int32) string { return s.pages[pos>>s.pageBits].text[pos&s.pageMask] }
func (s *Store) nodeAt(pos int32) int32  { return s.pages[pos>>s.pageBits].node[pos&s.pageMask] }

// posOf returns the physical position of a node id (-1 when free).
func (s *Store) posOf(id xenc.NodeID) int32 {
	return s.nodes[id>>s.pageBits].pos[id&s.pageMask]
}

func (s *Store) setPos(id xenc.NodeID, pos int32) {
	s.dirtyNodeChunk(id >> s.pageBits).pos[id&s.pageMask] = pos
}

// parentOf returns the parent node id (NoNode for roots).
func (s *Store) parentOf(id xenc.NodeID) xenc.NodeID {
	return s.nodes[id>>s.pageBits].parent[id&s.pageMask]
}

func (s *Store) setParent(id, parent xenc.NodeID) {
	s.dirtyNodeChunk(id >> s.pageBits).parent[id&s.pageMask] = parent
}

// attrRefs is the positional join into the attribute table. The returned
// slice may be shared with snapshots and must not be mutated in place.
func (s *Store) attrRefs(id xenc.NodeID) []attrRef {
	if id < 0 || id >= s.nodeLen {
		return nil
	}
	return s.nodes[id>>s.pageBits].attrs[id&s.pageMask]
}

func (s *Store) setAttrs(id xenc.NodeID, refs []attrRef) {
	s.dirtyNodeChunk(id >> s.pageBits).attrs[id&s.pageMask] = refs
}

// appendPhysPage grows the physical table by one (privately owned) page
// and returns the new physical page number.
func (s *Store) appendPhysPage() int32 {
	pg := int32(len(s.pages))
	s.pages = append(s.pages, newPage(int(s.pageSize)))
	return pg
}

// newNodeID allocates a node id, recycling freed ids first (the paper
// scans for NULL pos values before appending to node/pos).
func (s *Store) newNodeID() xenc.NodeID {
	if id, ok := s.popFree(); ok {
		return id
	}
	id := s.nodeLen
	ch := id >> s.pageBits
	if int(ch) == len(s.nodes) {
		s.nodes = append(s.nodes, newNodeChunk(int(s.pageSize)))
	}
	nc := s.dirtyNodeChunk(ch)
	off := id & s.pageMask
	nc.pos[off] = -1
	nc.parent[off] = xenc.NoNode
	nc.attrs[off] = nil
	s.nodeLen++
	return id
}

// writeNode materializes one shredded node at physical position pos.
func (s *Store) writeNode(pos int32, n *shred.Node, id xenc.NodeID) {
	wp := s.dirtyPage(pos >> s.pageBits)
	o := pos & s.pageMask
	wp.size[o] = n.Size
	wp.level[o] = n.Level
	wp.kind[o] = uint8(n.Kind)
	wp.text[o] = n.Value
	wp.node[o] = id
	s.setPos(id, pos)
	switch n.Kind {
	case xenc.KindElem, xenc.KindPI:
		wp.name[o] = s.qn.Intern(n.Name)
	default:
		wp.name[o] = xenc.NoName
	}
	if len(n.Attrs) > 0 {
		refs := make([]attrRef, len(n.Attrs))
		for i, a := range n.Attrs {
			refs[i] = attrRef{name: s.qn.Intern(a.Name), val: s.prop.put(a.Value)}
		}
		s.setAttrs(id, refs)
	}
}

// markFreeRun marks physical positions [from, to) as one unused run with
// descending run lengths ("size set to unite consecutive space"). Both
// bounds must lie within a single physical page.
func (s *Store) markFreeRun(from, to int32) {
	if from >= to {
		return
	}
	wp := s.dirtyPage(from >> s.pageBits)
	for pos := from; pos < to; pos++ {
		o := pos & s.pageMask
		wp.level[o] = xenc.LevelUnused
		wp.size[o] = to - pos - 1
		wp.kind[o] = 0
		wp.name[o] = 0
		wp.text[o] = ""
		wp.node[o] = xenc.NoNode
	}
}

// recomputeFreeRuns rebuilds the free-run lengths of one physical page.
func (s *Store) recomputeFreeRuns(physPage int32) {
	wp := s.dirtyPage(physPage)
	run := int32(0)
	for off := s.pageSize - 1; off >= 0; off-- {
		if wp.level[off] == xenc.LevelUnused {
			wp.size[off] = run
			run++
		} else {
			run = 0
		}
	}
}

// --- DocView -------------------------------------------------------------

// physOf translates a view rank (pre) to a physical position.
func (s *Store) physOf(p xenc.Pre) int32 {
	return s.logToPhys[p>>s.pageBits]<<s.pageBits | p&s.pageMask
}

// preOfPos translates a physical position to its view rank — the paper's
// pageOffset swizzle.
func (s *Store) preOfPos(pos int32) xenc.Pre {
	return s.physToLog[pos>>s.pageBits]<<s.pageBits | pos&s.pageMask
}

// Len returns the view length, including unused tuples.
func (s *Store) Len() xenc.Pre { return int32(len(s.pages)) << s.pageBits }

// LiveNodes returns the number of live nodes.
func (s *Store) LiveNodes() int { return s.liveNodes }

// Size returns the live descendant count (or free-run length) at p.
func (s *Store) Size(p xenc.Pre) xenc.Size { return s.sizeAt(s.physOf(p)) }

// Level returns the depth at p, or xenc.LevelUnused.
func (s *Store) Level(p xenc.Pre) xenc.Level { return s.levelAt(s.physOf(p)) }

// Kind returns the node kind at p.
func (s *Store) Kind(p xenc.Pre) xenc.Kind { return xenc.Kind(s.kindAt(s.physOf(p))) }

// Name returns the interned name id at p.
func (s *Store) Name(p xenc.Pre) int32 { return s.nameAt(s.physOf(p)) }

// PageRun returns the columns of the physical page behind p's logical
// page, from p to the page end.
func (s *Store) PageRun(p xenc.Pre) xenc.Run {
	pg := s.pages[s.logToPhys[p>>s.pageBits]]
	o := p & s.pageMask
	return xenc.Run{Size: pg.size[o:], Level: pg.level[o:], Kind: pg.kind[o:], Name: pg.name[o:]}
}

// Value returns the text content at p.
func (s *Store) Value(p xenc.Pre) string { return s.textAt(s.physOf(p)) }

// NodeOf returns the immutable node id at p.
func (s *Store) NodeOf(p xenc.Pre) xenc.NodeID { return s.nodeAt(s.physOf(p)) }

// PreOf translates a node id to its current view rank.
func (s *Store) PreOf(n xenc.NodeID) xenc.Pre {
	if n < 0 || n >= s.nodeLen {
		return xenc.NoPre
	}
	pos := s.posOf(n)
	if pos < 0 {
		return xenc.NoPre
	}
	return s.preOfPos(pos)
}

// Attrs returns the attributes of the element at p. Note the extra
// node/pos hop the updatable schema pays here, which the paper calls out
// as part of the measured overhead.
func (s *Store) Attrs(p xenc.Pre) []xenc.Attr {
	refs := s.attrRefs(s.NodeOf(p))
	if len(refs) == 0 {
		return nil
	}
	out := make([]xenc.Attr, len(refs))
	for i, r := range refs {
		out[i] = xenc.Attr{Name: r.name, Val: s.prop.get(r.val)}
	}
	return out
}

// AttrValue returns the value of the named attribute of the element at p.
func (s *Store) AttrValue(p xenc.Pre, name int32) (string, bool) {
	for _, r := range s.attrRefs(s.NodeOf(p)) {
		if r.name == name {
			return s.prop.get(r.val), true
		}
	}
	return "", false
}

// Names exposes the document's interned names.
func (s *Store) Names() *xenc.QNamePool { return s.qn }

// Root returns the view rank of the root element.
func (s *Store) Root() xenc.Pre { return xenc.SkipFree(s, 0) }

// Pages returns the number of logical pages.
func (s *Store) Pages() int { return len(s.logToPhys) }

// DirtyPages returns the number of physical page chunks exclusively
// owned by this store (refs == 1) — for a fresh snapshot, the pages its
// writes have materialized so far. It is the observable cost of the
// copy-on-write protocol. Note that ownership also returns when the
// *other* sharers release their references: once every snapshot sharing
// a chunk is dropped, the chunk counts as this store's again.
func (s *Store) DirtyPages() int {
	n := 0
	for _, p := range s.pages {
		if p.refs.Load() == 1 {
			n++
		}
	}
	return n
}

// FreeListStats reports the recycled-NodeID stack's depth, its chunk
// count, and how many of those chunks this store owns exclusively — the
// observable cost of free-list copy-on-write (testing hook).
func (s *Store) FreeListStats() (ids, chunks, ownedChunks int) {
	for _, c := range s.freeChunks {
		if c.refs.Load() == 1 {
			ownedChunks++
		}
	}
	return int(s.freeLen), len(s.freeChunks), ownedChunks
}

// PhysPage returns the physical page number backing the logical page that
// contains view rank p. Physical page numbers are stable for the lifetime
// of the store — splices only append new physical pages — which is why
// the transaction lock table uses them as lock names.
func (s *Store) PhysPage(p xenc.Pre) int32 { return s.logToPhys[p>>s.pageBits] }

// PageSize returns the logical page size in tuples.
func (s *Store) PageSize() int { return int(s.pageSize) }

var _ xenc.DocView = (*Store)(nil)
