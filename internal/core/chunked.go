package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"mxq/internal/chunkstore"
	"mxq/internal/xenc"
)

// This file is the content-addressed face of the store: the chunked
// column layout (store.go) serialized chunk-by-chunk instead of as one
// monolithic gob blob. Each page chunk, node chunk and free-list chunk
// has a deterministic binary encoding whose SHA-256 names it in a
// chunkstore.Store; a checkpoint image shrinks to a ChunkManifest — the
// list of those names in column order plus the store's scalars.
//
// The payoff is the COW layer's own bookkeeping reused as a dirty map:
// every write path funnels through the dirty* hooks, which invalidate
// the touched chunk's cached content hash. At save time an untouched
// chunk's hash is read from the cache (no serialization, no hashing)
// and — the store already holding a chunk of that name — no bytes move.
// A checkpoint after small churn therefore costs O(dirtied chunks) in
// both CPU and I/O, not O(document), and two stores that share content
// (a primary and its follower) dedupe chunk transfer the same way.
//
// Hash caching is safe under the COW protocol: a chunk shared with any
// snapshot (refs > 1) is frozen — writers clone it (the clone starts
// with no cached hash) — so a pinned checkpoint snapshot's chunks never
// change under the save. The one exception the encoding must dodge is
// the free-list stack: popFree shrinks freeLen without dirtying the
// tail chunk (the paper's "the slot above freeLen is dead" trick), so a
// partially-filled tail chunk's serialization — which depends on
// freeLen — is never hash-cached; only full free chunks, whose encoding
// is freeLen-independent, are.

// chunkHash caches a chunk's content address. The zero value is the
// "unknown" state; dirty* hooks reset to it before any write.
type chunkHash struct {
	p atomic.Pointer[chunkstore.Hash]
}

func (c *chunkHash) get() (chunkstore.Hash, bool) {
	if h := c.p.Load(); h != nil {
		return *h, true
	}
	return chunkstore.Hash{}, false
}

func (c *chunkHash) set(h chunkstore.Hash) { c.p.Store(&h) }
func (c *chunkHash) invalidate()           { c.p.Store(nil) }

// Chunk encoding kind tags (first byte of every chunk).
const (
	chunkKindPage = 1 // pos/size/level/kind/name/text/node columns of one page
	chunkKindNode = 2 // node/pos, parent and attribute columns of one chunk
	chunkKindFree = 3 // a run of the recycled-NodeID stack
	chunkKindDict = 4 // a group of dictionary strings (names or prop values)
)

// dictGroupSize is the number of dictionary strings per dict chunk.
// Dictionaries are append-only, so grouping keeps every group but the
// tail byte-stable across checkpoints — they dedupe like data chunks.
const dictGroupSize = 4096

// ChunkManifest is a checkpoint image in the content-addressed format:
// the store's scalars and offset tables inline, every bulk column as a
// list of chunk hashes (lowercase hex) in column order. A manifest is
// self-contained — it names every chunk of the full document, so
// recovery never mixes two images; "incremental" is purely a write-side
// property (chunks already in the store are not rewritten).
type ChunkManifest struct {
	PageBits  uint     `json:"pageBits"`
	LogToPhys []int32  `json:"logToPhys"`
	PhysToLog []int32  `json:"physToLog"`
	NodeLen   int32    `json:"nodeLen"`
	FreeLen   int32    `json:"freeLen"`
	LiveNodes int      `json:"liveNodes"`
	Pages     []string `json:"pages"`
	Nodes     []string `json:"nodes"`
	Free      []string `json:"free,omitempty"`
	Names     []string `json:"names,omitempty"`
	Props     []string `json:"props,omitempty"`
}

// TotalChunks returns the number of chunk references in the manifest.
func (m *ChunkManifest) TotalChunks() int {
	return len(m.Pages) + len(m.Nodes) + len(m.Free) + len(m.Names) + len(m.Props)
}

// ChunkHashes parses every chunk reference, in manifest order.
func (m *ChunkManifest) ChunkHashes() ([]chunkstore.Hash, error) {
	out := make([]chunkstore.Hash, 0, m.TotalChunks())
	for _, list := range [][]string{m.Pages, m.Nodes, m.Free, m.Names, m.Props} {
		for _, s := range list {
			h, err := chunkstore.ParseHash(s)
			if err != nil {
				return nil, fmt.Errorf("core: manifest is corrupt: %w", err)
			}
			out = append(out, h)
		}
	}
	return out, nil
}

// ChunkSaveStats reports what one SaveChunked actually moved — the
// observable incremental-checkpoint win (Stats surfaces it).
type ChunkSaveStats struct {
	ChunksTotal   int   // chunk references in the manifest
	ChunksWritten int   // chunks the store was missing (bytes moved)
	ChunksReused  int   // ChunksTotal - ChunksWritten
	BytesWritten  int64 // serialized bytes actually written
}

// --- deterministic chunk encoding ----------------------------------------

type chunkEnc struct{ b []byte }

func (e *chunkEnc) u8(v uint8)       { e.b = append(e.b, v) }
func (e *chunkEnc) u16(v uint16)     { e.b = append(e.b, byte(v), byte(v>>8)) }
func (e *chunkEnc) u32(v uint32)     { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *chunkEnc) i16(v int16)      { e.u16(uint16(v)) }
func (e *chunkEnc) i32(v int32)      { e.u32(uint32(v)) }
func (e *chunkEnc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *chunkEnc) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

// chunkDec decodes with a sticky error; every getter returns the zero
// value once the input is exhausted or malformed.
type chunkDec struct {
	b   []byte
	off int
	err error
}

func (d *chunkDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *chunkDec) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.b) || n < 0 {
		d.fail("core: chunk truncated at offset %d", d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *chunkDec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *chunkDec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *chunkDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *chunkDec) i16() int16 { return int16(d.u16()) }
func (d *chunkDec) i32() int32 { return int32(d.u32()) }

func (d *chunkDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("core: chunk has a malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *chunkDec) count(limit int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(limit) {
		d.fail("core: chunk count %d exceeds limit %d", v, limit)
		return 0
	}
	return int(v)
}

func (d *chunkDec) str() string {
	n := d.count(len(d.b)) // a string cannot be longer than the chunk
	return string(d.take(n))
}

// done fails on trailing garbage: a chunk's name covers every byte.
func (d *chunkDec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("core: chunk has %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

func encodePageChunk(p *page) []byte {
	e := &chunkEnc{b: make([]byte, 0, 16*len(p.size))}
	e.u8(chunkKindPage)
	e.uvarint(uint64(len(p.size)))
	for _, v := range p.size {
		e.i32(v)
	}
	for _, v := range p.level {
		e.i16(v)
	}
	e.b = append(e.b, p.kind...)
	for _, v := range p.name {
		e.i32(v)
	}
	for _, s := range p.text {
		e.str(s)
	}
	for _, v := range p.node {
		e.i32(v)
	}
	return e.b
}

func decodePageChunk(data []byte, pageSize int32) (*page, error) {
	d := &chunkDec{b: data}
	if k := d.u8(); d.err == nil && k != chunkKindPage {
		return nil, fmt.Errorf("core: chunk kind %d, want page (%d)", k, chunkKindPage)
	}
	if n := d.count(int(pageSize)); d.err == nil && int32(n) != pageSize {
		return nil, fmt.Errorf("core: page chunk holds %d tuples, store page size is %d", n, pageSize)
	}
	p := newPage(int(pageSize))
	for i := range p.size {
		p.size[i] = d.i32()
	}
	for i := range p.level {
		p.level[i] = d.i16()
	}
	copy(p.kind, d.take(int(pageSize)))
	for i := range p.name {
		p.name[i] = d.i32()
	}
	for i := range p.text {
		p.text[i] = d.str()
	}
	for i := range p.node {
		p.node[i] = d.i32()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return p, nil
}

func encodeNodeChunk(c *nodeChunk) []byte {
	e := &chunkEnc{b: make([]byte, 0, 9*len(c.pos))}
	e.u8(chunkKindNode)
	e.uvarint(uint64(len(c.pos)))
	for _, v := range c.pos {
		e.i32(v)
	}
	for _, v := range c.parent {
		e.i32(v)
	}
	for _, refs := range c.attrs {
		e.uvarint(uint64(len(refs)))
		for _, r := range refs {
			e.i32(r.name)
			e.i32(r.val)
		}
	}
	return e.b
}

func decodeNodeChunk(data []byte, pageSize int32) (*nodeChunk, error) {
	d := &chunkDec{b: data}
	if k := d.u8(); d.err == nil && k != chunkKindNode {
		return nil, fmt.Errorf("core: chunk kind %d, want node (%d)", k, chunkKindNode)
	}
	if n := d.count(int(pageSize)); d.err == nil && int32(n) != pageSize {
		return nil, fmt.Errorf("core: node chunk holds %d ids, store page size is %d", n, pageSize)
	}
	c := newNodeChunk(int(pageSize))
	for i := range c.pos {
		c.pos[i] = d.i32()
	}
	for i := range c.parent {
		c.parent[i] = d.i32()
	}
	for i := range c.attrs {
		n := d.count(len(d.b) / 8) // each attr ref costs 8 bytes
		if d.err != nil {
			break
		}
		if n == 0 {
			continue
		}
		refs := make([]attrRef, n)
		for j := range refs {
			refs[j] = attrRef{name: d.i32(), val: d.i32()}
		}
		c.attrs[i] = refs
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// encodeFreeChunk serializes the first count recycled ids of a chunk.
// For a full chunk count equals the page size and the encoding is
// independent of freeLen (hash-cacheable); the partial tail chunk is
// re-encoded every save because popFree shrinks freeLen without a
// dirty-hook call.
func encodeFreeChunk(c *freeChunk, count int32) []byte {
	e := &chunkEnc{b: make([]byte, 0, 4*count+8)}
	e.u8(chunkKindFree)
	e.uvarint(uint64(count))
	for _, v := range c.ids[:count] {
		e.i32(v)
	}
	return e.b
}

func decodeFreeChunk(data []byte, pageSize int32) ([]int32, error) {
	d := &chunkDec{b: data}
	if k := d.u8(); d.err == nil && k != chunkKindFree {
		return nil, fmt.Errorf("core: chunk kind %d, want free (%d)", k, chunkKindFree)
	}
	n := d.count(int(pageSize))
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = d.i32()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return ids, nil
}

func encodeDictChunk(vals []string) []byte {
	e := &chunkEnc{b: make([]byte, 0, 16*len(vals))}
	e.u8(chunkKindDict)
	e.uvarint(uint64(len(vals)))
	for _, s := range vals {
		e.str(s)
	}
	return e.b
}

func decodeDictChunk(data []byte) ([]string, error) {
	d := &chunkDec{b: data}
	if k := d.u8(); d.err == nil && k != chunkKindDict {
		return nil, fmt.Errorf("core: chunk kind %d, want dict (%d)", k, chunkKindDict)
	}
	n := d.count(len(d.b)) // each entry costs ≥ 1 byte
	vals := make([]string, n)
	for i := range vals {
		vals[i] = d.str()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return vals, nil
}

// --- save / load ----------------------------------------------------------

// chunkRef is one manifest chunk reference plus a way to (re)produce
// its bytes: data is non-nil when serialization already happened (cache
// miss), ser re-serializes on demand (cache hit whose bytes turn out to
// be needed after all — e.g. the chunk store lost the chunk).
type chunkRef struct {
	hash chunkstore.Hash
	data []byte
	ser  func() []byte
}

func (r *chunkRef) bytes() []byte {
	if r.data == nil {
		r.data = r.ser()
	}
	return r.data
}

// collectChunks computes the store's manifest, reading cached chunk
// hashes where the COW layer proves the chunk unchanged and serializing
// (then caching) the rest. The returned refs parallel the manifest's
// chunk references in order.
func (s *Store) collectChunks() (*ChunkManifest, []chunkRef) {
	m := &ChunkManifest{
		PageBits:  s.pageBits,
		LogToPhys: append([]int32(nil), s.logToPhys...),
		PhysToLog: append([]int32(nil), s.physToLog...),
		NodeLen:   s.nodeLen,
		FreeLen:   s.freeLen,
		LiveNodes: s.liveNodes,
	}
	refs := make([]chunkRef, 0, len(s.pages)+len(s.nodes)+len(s.freeChunks)+2)

	add := func(cache *chunkHash, ser func() []byte, list *[]string) {
		ref := chunkRef{ser: ser}
		if cache != nil {
			if h, ok := cache.get(); ok {
				ref.hash = h
			} else {
				ref.data = ser()
				ref.hash = chunkstore.Sum(ref.data)
				cache.set(ref.hash)
			}
		} else {
			ref.data = ser()
			ref.hash = chunkstore.Sum(ref.data)
		}
		*list = append(*list, ref.hash.String())
		refs = append(refs, ref)
	}

	for _, p := range s.pages {
		p := p
		add(&p.hash, func() []byte { return encodePageChunk(p) }, &m.Pages)
	}
	for _, c := range s.nodes {
		c := c
		add(&c.hash, func() []byte { return encodeNodeChunk(c) }, &m.Nodes)
	}
	nFree := int((s.freeLen + s.pageSize - 1) >> s.pageBits)
	for i := 0; i < nFree; i++ {
		c := s.freeChunks[i]
		count := s.pageSize
		cache := &c.hash
		if int32(i+1)<<s.pageBits > s.freeLen {
			// Partial tail: its encoding depends on freeLen, which popFree
			// moves without dirtying — never trust or populate the cache.
			count = s.freeLen & s.pageMask
			cache = nil
		}
		add(cache, func() []byte { return encodeFreeChunk(c, count) }, &m.Free)
	}
	addDict := func(vals []string, list *[]string) {
		for at := 0; at < len(vals); at += dictGroupSize {
			group := vals[at:min(at+dictGroupSize, len(vals))]
			add(nil, func() []byte { return encodeDictChunk(group) }, list)
		}
	}
	addDict(s.qn.NamesList(), &m.Names)
	addDict(s.prop.values(), &m.Props)
	return m, refs
}

// SaveChunked writes the store into cs in content-addressed form and
// returns the manifest describing it. Only chunks cs does not already
// hold are serialized in full and written — after small churn that is
// the dirtied chunks plus the dictionary tails, never the whole
// document. cs is synced before returning, so a caller may durably
// publish the manifest immediately.
//
// Like Save, SaveChunked requires the store to be free of concurrent
// writes; a pinned checkpoint snapshot satisfies that by construction.
func (s *Store) SaveChunked(cs chunkstore.Store) (*ChunkManifest, ChunkSaveStats, error) {
	m, refs := s.collectChunks()
	stats := ChunkSaveStats{ChunksTotal: len(refs)}

	// One existence probe per unique hash (a document full of identical
	// pages — fill pages, say — references one chunk many times).
	firstRef := make(map[chunkstore.Hash]int, len(refs))
	order := make([]chunkstore.Hash, 0, len(refs))
	for i := range refs {
		if _, ok := firstRef[refs[i].hash]; !ok {
			firstRef[refs[i].hash] = i
			order = append(order, refs[i].hash)
		}
	}
	have, err := cs.HasMany(order)
	if err != nil {
		return nil, stats, fmt.Errorf("core: probing chunk store: %w", err)
	}
	for j, h := range order {
		if have[j] {
			continue
		}
		data := refs[firstRef[h]].bytes()
		if err := cs.Put(h, data); err != nil {
			return nil, stats, fmt.Errorf("core: writing chunk %s: %w", h, err)
		}
		stats.ChunksWritten++
		stats.BytesWritten += int64(len(data))
	}
	stats.ChunksReused = stats.ChunksTotal - stats.ChunksWritten
	if err := cs.Sync(); err != nil {
		return nil, stats, fmt.Errorf("core: syncing chunk store: %w", err)
	}
	return m, stats, nil
}

// BuildManifest computes the store's manifest without writing anywhere
// and returns a resolver that serializes any referenced chunk on
// demand. The replication sender uses it to serve a chunked bootstrap
// straight from a pinned snapshot: the manifest ships first, then only
// the chunks the follower asks for — no chunk-store round trip, no GC
// race (the pin freezes every chunk the resolver closes over).
func (s *Store) BuildManifest() (*ChunkManifest, func(chunkstore.Hash) ([]byte, bool)) {
	m, refs := s.collectChunks()
	byHash := make(map[chunkstore.Hash]*chunkRef, len(refs))
	for i := range refs {
		if _, ok := byHash[refs[i].hash]; !ok {
			byHash[refs[i].hash] = &refs[i]
		}
	}
	return m, func(h chunkstore.Hash) ([]byte, bool) {
		r, ok := byHash[h]
		if !ok {
			return nil, false
		}
		return r.bytes(), true
	}
}

// LoadChunked materializes a store from a manifest, fetching every
// referenced chunk from cs. It is Load for the content-addressed
// format: same validation posture (structural checks here, a full
// CheckInvariants pass at the end), and chunk content is verified
// against its name by the chunk store itself, so a torn chunk file
// surfaces as a load error — recovery then degrades to an older image.
//
// Loaded chunks arrive with their content hashes already cached, so the
// first SaveChunked after a load (a follower's post-bootstrap
// checkpoint, a primary's first checkpoint after restart) re-serializes
// nothing that did not change.
func LoadChunked(m *ChunkManifest, cs chunkstore.Store) (*Store, error) {
	if m.PageBits < 3 || m.PageBits > 30 {
		return nil, fmt.Errorf("core: manifest is corrupt: page bits %d out of range [3,30]", m.PageBits)
	}
	pageSize := int32(1) << m.PageBits
	s := &Store{
		pageBits:  m.PageBits,
		pageMask:  pageSize - 1,
		pageSize:  pageSize,
		logToPhys: append([]int32(nil), m.LogToPhys...),
		physToLog: append([]int32(nil), m.PhysToLog...),
		prop:      newPropDict(),
		qn:        xenc.NewQNamePool(),
		liveNodes: m.LiveNodes,
	}
	fetch := func(hexHash string) (chunkstore.Hash, []byte, error) {
		h, err := chunkstore.ParseHash(hexHash)
		if err != nil {
			return h, nil, fmt.Errorf("core: manifest is corrupt: %w", err)
		}
		data, err := cs.Get(h)
		if err != nil {
			return h, nil, fmt.Errorf("core: manifest chunk: %w", err)
		}
		return h, data, nil
	}
	for _, hs := range m.Pages {
		h, data, err := fetch(hs)
		if err != nil {
			return nil, err
		}
		p, err := decodePageChunk(data, pageSize)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s: %w", h, err)
		}
		p.hash.set(h)
		s.pages = append(s.pages, p)
	}
	if m.NodeLen < 0 {
		return nil, fmt.Errorf("core: manifest is corrupt: negative node count %d", m.NodeLen)
	}
	if want := int((m.NodeLen + pageSize - 1) >> m.PageBits); len(m.Nodes) != want {
		return nil, fmt.Errorf("core: manifest is corrupt: %d node chunks for %d ids (want %d)", len(m.Nodes), m.NodeLen, want)
	}
	for _, hs := range m.Nodes {
		h, data, err := fetch(hs)
		if err != nil {
			return nil, err
		}
		c, err := decodeNodeChunk(data, pageSize)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s: %w", h, err)
		}
		c.hash.set(h)
		s.nodes = append(s.nodes, c)
	}
	s.nodeLen = m.NodeLen
	if m.FreeLen < 0 {
		return nil, fmt.Errorf("core: manifest is corrupt: negative free-list depth %d", m.FreeLen)
	}
	if want := int((m.FreeLen + pageSize - 1) >> m.PageBits); len(m.Free) != want {
		return nil, fmt.Errorf("core: manifest is corrupt: %d free chunks for depth %d (want %d)", len(m.Free), m.FreeLen, want)
	}
	for i, hs := range m.Free {
		h, data, err := fetch(hs)
		if err != nil {
			return nil, err
		}
		ids, err := decodeFreeChunk(data, pageSize)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s: %w", h, err)
		}
		wantCount := pageSize
		full := int32(i+1)<<m.PageBits <= m.FreeLen
		if !full {
			wantCount = m.FreeLen & s.pageMask
		}
		if int32(len(ids)) != wantCount {
			return nil, fmt.Errorf("core: chunk %s: free chunk holds %d ids, manifest implies %d", h, len(ids), wantCount)
		}
		for _, id := range ids {
			if id < 0 || id >= s.nodeLen {
				return nil, fmt.Errorf("core: manifest is corrupt: free node id %d out of range [0,%d)", id, s.nodeLen)
			}
		}
		c := newFreeChunk(int(pageSize))
		copy(c.ids, ids)
		if full {
			c.hash.set(h)
		}
		s.freeChunks = append(s.freeChunks, c)
	}
	s.freeLen = m.FreeLen
	loadDict := func(hashes []string, apply func(string)) error {
		for _, hs := range hashes {
			h, data, err := fetch(hs)
			if err != nil {
				return err
			}
			vals, err := decodeDictChunk(data)
			if err != nil {
				return fmt.Errorf("core: chunk %s: %w", h, err)
			}
			for _, v := range vals {
				apply(v)
			}
		}
		return nil
	}
	if err := loadDict(m.Names, func(v string) { s.qn.Intern(v) }); err != nil {
		return nil, err
	}
	var props []string
	if err := loadDict(m.Props, func(v string) { props = append(props, v) }); err != nil {
		return nil, err
	}
	s.prop.load(props)
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: manifest state is corrupt: %w", err)
	}
	return s, nil
}
