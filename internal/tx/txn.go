package tx

import (
	"fmt"

	"mxq/internal/core"
	"mxq/internal/shred"
	"mxq/internal/wal"
	"mxq/internal/xenc"
)

// Tx is a write transaction: a private copy-on-write image of the store
// plus the log of resolved operations that commit will replay onto the
// base. Tx implements xenc.DocView and the xupdate.Target mutation
// surface, so XPath queries and XUpdate modification lists run against it
// directly with read-your-writes semantics.
type Tx struct {
	m     *Manager
	clone *core.Store
	ops   []wal.Op
	pages map[int32]bool
	done  bool
	err   error
	lsn   uint64 // assigned at commit; 0 until then (or for no-op commits)
}

// CommitLSN returns the WAL LSN Commit assigned, 0 before Commit or for
// a commit that logged nothing (empty op list, or a volatile database).
// It is the token a client carries to read its own write on a replica.
func (t *Tx) CommitLSN() uint64 { return t.lsn }

// --- DocView over the private image ----------------------------------------

// Len returns the view length of the transaction image.
func (t *Tx) Len() xenc.Pre { return t.clone.Len() }

// LiveNodes returns the live node count of the transaction image.
func (t *Tx) LiveNodes() int { return t.clone.LiveNodes() }

// Size returns the size column value at p.
func (t *Tx) Size(p xenc.Pre) xenc.Size { return t.clone.Size(p) }

// Level returns the level column value at p.
func (t *Tx) Level(p xenc.Pre) xenc.Level { return t.clone.Level(p) }

// Kind returns the node kind at p.
func (t *Tx) Kind(p xenc.Pre) xenc.Kind { return t.clone.Kind(p) }

// Name returns the interned name id at p.
func (t *Tx) Name(p xenc.Pre) int32 { return t.clone.Name(p) }

// PageRun returns the columns of a run of the transaction image at p.
func (t *Tx) PageRun(p xenc.Pre) xenc.Run { return t.clone.PageRun(p) }

// Value returns the text content at p.
func (t *Tx) Value(p xenc.Pre) string { return t.clone.Value(p) }

// NodeOf returns the immutable node id at p.
func (t *Tx) NodeOf(p xenc.Pre) xenc.NodeID { return t.clone.NodeOf(p) }

// PreOf resolves a node id in the transaction image.
func (t *Tx) PreOf(n xenc.NodeID) xenc.Pre { return t.clone.PreOf(n) }

// Attrs returns the attributes at p.
func (t *Tx) Attrs(p xenc.Pre) []xenc.Attr { return t.clone.Attrs(p) }

// AttrValue returns the named attribute value at p.
func (t *Tx) AttrValue(p xenc.Pre, name int32) (string, bool) {
	return t.clone.AttrValue(p, name)
}

// Names returns the name pool of the transaction image.
func (t *Tx) Names() *xenc.QNamePool { return t.clone.Names() }

// Root returns the root element of the transaction image.
func (t *Tx) Root() xenc.Pre { return t.clone.Root() }

var _ xenc.DocView = (*Tx)(nil)

// --- mutations ---------------------------------------------------------------

func (t *Tx) check() error {
	if t.done {
		return ErrDone
	}
	return t.err
}

// fail poisons the transaction: after a lock conflict only Abort works.
func (t *Tx) fail(err error) error {
	if t.err == nil && err == ErrConflict {
		t.err = err
	}
	return err
}

// lockSpan write-locks the *physical* pages backing the view span
// [from, to] plus, in the root-locking ablation mode, the pages of all
// ancestors of anc. Physical page numbers are stable across page
// splices, so two transactions always agree on what a lock name means
// even after either of them has reshaped the logical order.
func (t *Tx) lockSpan(from, to xenc.Pre, anc xenc.Pre) error {
	if from < 0 {
		from = 0
	}
	last := t.clone.Len() - 1
	if to > last {
		to = last
	}
	var pages []int32
	step := xenc.Pre(t.m.store.PageSize())
	for p := from; ; p += step {
		if p > to {
			p = to
		}
		pages = append(pages, t.clone.PhysPage(p))
		if p == to {
			break
		}
	}
	pages = t.withAncestors(pages, anc)
	return t.fail(t.m.lockPages(t, pages))
}

// lockPoint write-locks the pages an insert at view rank `at` writes to:
// the page of the insert point and the page directly before it (whose
// unused tail may absorb the insert). Ancestor pages are deliberately
// NOT locked — their size maintenance happens through commutative delta
// increments, which is how the paper keeps the document root from
// becoming a locking bottleneck. The page before the insert point always
// lies inside the anchor's region (or is the anchor itself), so a
// concurrent delete of the anchor's subtree — which locks the whole
// region span — is always detected as a conflict.
func (t *Tx) lockPoint(at xenc.Pre, anc xenc.Pre) error {
	var pages []int32
	if at > 0 {
		pages = append(pages, t.clone.PhysPage(at-1))
	}
	if at < t.clone.Len() {
		pages = append(pages, t.clone.PhysPage(at))
	}
	pages = t.withAncestors(pages, anc)
	return t.fail(t.m.lockPages(t, pages))
}

// withAncestors adds the ancestor chain's pages in the root-locking
// ablation mode (the discipline absolute-value size updates would need).
func (t *Tx) withAncestors(pages []int32, anc xenc.Pre) []int32 {
	if t.m.lockAncestors && anc != xenc.NoPre {
		for a := anc; a != xenc.NoPre; a = t.clone.ParentPre(a) {
			pages = append(pages, t.clone.PhysPage(a))
		}
	}
	return pages
}

// regionEnd is the last view rank of p's region in the tx image.
func (t *Tx) regionEnd(p xenc.Pre) xenc.Pre {
	remaining := t.clone.Size(p)
	last := p
	q := p
	for remaining > 0 {
		q = xenc.SkipFree(t.clone, q+1)
		last = q
		remaining--
	}
	return last
}

func fragToWal(frag *shred.Tree) []wal.FragNode {
	out := make([]wal.FragNode, len(frag.Nodes))
	for i, n := range frag.Nodes {
		fn := wal.FragNode{
			Kind:  uint8(n.Kind),
			Level: n.Level,
			Size:  n.Size,
			Name:  n.Name,
			Value: n.Value,
		}
		for _, a := range n.Attrs {
			fn.Attrs = append(fn.Attrs, a.Name, a.Value)
		}
		out[i] = fn
	}
	return out
}

func walToFrag(ops []wal.FragNode) *shred.Tree {
	tr := &shred.Tree{Nodes: make([]shred.Node, len(ops))}
	for i, fn := range ops {
		n := shred.Node{
			Kind:  xenc.Kind(fn.Kind),
			Level: fn.Level,
			Size:  fn.Size,
			Name:  fn.Name,
			Value: fn.Value,
		}
		for j := 0; j+1 < len(fn.Attrs); j += 2 {
			n.Attrs = append(n.Attrs, shred.Attr{Name: fn.Attrs[j], Value: fn.Attrs[j+1]})
		}
		tr.Nodes[i] = n
	}
	return tr
}

// InsertBefore inserts the fragment before the node at target.
func (t *Tx) InsertBefore(target xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if err := t.lockPoint(target, t.clone.ParentPre(target)); err != nil {
		return nil, err
	}
	// The anchor node's immutable id survives the insert (it only moves),
	// so replay can re-resolve the insert point from it.
	tgtID := t.clone.NodeOf(target)
	ids, err := t.clone.InsertBefore(target, frag)
	if err != nil {
		return nil, err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpInsertBefore, Target: tgtID, Frag: fragToWal(frag), NewIDs: ids})
	return ids, nil
}

// InsertAfter inserts the fragment after the subtree at target.
func (t *Tx) InsertAfter(target xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	tgtID := t.clone.NodeOf(target)
	if err := t.lockPoint(t.regionEnd(target)+1, t.clone.ParentPre(target)); err != nil {
		return nil, err
	}
	ids, err := t.clone.InsertAfter(target, frag)
	if err != nil {
		return nil, err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpInsertAfter, Target: tgtID, Frag: fragToWal(frag), NewIDs: ids})
	return ids, nil
}

// AppendChild appends the fragment as last child(ren) of parent.
func (t *Tx) AppendChild(parent xenc.Pre, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	parentID := t.clone.NodeOf(parent)
	if err := t.lockPoint(t.regionEnd(parent)+1, parent); err != nil {
		return nil, err
	}
	ids, err := t.clone.AppendChild(parent, frag)
	if err != nil {
		return nil, err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpAppendChild, Target: parentID, Frag: fragToWal(frag), NewIDs: ids})
	return ids, nil
}

// InsertChildAt inserts the fragment as child number idx of parent.
func (t *Tx) InsertChildAt(parent xenc.Pre, idx int, frag *shred.Tree) ([]xenc.NodeID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	parentID := t.clone.NodeOf(parent)
	at := t.clone.NthChild(parent, idx)
	if at == xenc.NoPre {
		at = t.regionEnd(parent) + 1
	}
	if err := t.lockPoint(at, parent); err != nil {
		return nil, err
	}
	ids, err := t.clone.InsertChildAt(parent, idx, frag)
	if err != nil {
		return nil, err
	}
	t.ops = append(t.ops, wal.Op{
		Kind: wal.OpInsertChildAt, Target: parentID, Child: int32(idx),
		Frag: fragToWal(frag), NewIDs: ids,
	})
	return ids, nil
}

// Delete removes the subtree at target.
func (t *Tx) Delete(target xenc.Pre) error {
	if err := t.check(); err != nil {
		return err
	}
	tgtID := t.clone.NodeOf(target)
	if err := t.lockSpan(target, t.regionEnd(target), t.clone.ParentPre(target)); err != nil {
		return err
	}
	if err := t.clone.Delete(target); err != nil {
		return err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpDelete, Target: tgtID})
	return nil
}

// SetValue updates a text/comment/PI node's content.
func (t *Tx) SetValue(p xenc.Pre, val string) error {
	if err := t.check(); err != nil {
		return err
	}
	id := t.clone.NodeOf(p)
	if err := t.lockSpan(p, p, xenc.NoPre); err != nil {
		return err
	}
	if err := t.clone.SetValue(p, val); err != nil {
		return err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpSetValue, Target: id, Value: val})
	return nil
}

// Rename renames an element or PI node.
func (t *Tx) Rename(p xenc.Pre, name string) error {
	if err := t.check(); err != nil {
		return err
	}
	id := t.clone.NodeOf(p)
	if err := t.lockSpan(p, p, xenc.NoPre); err != nil {
		return err
	}
	if err := t.clone.Rename(p, name); err != nil {
		return err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpRename, Target: id, Name: name})
	return nil
}

// SetAttr adds or replaces an attribute.
func (t *Tx) SetAttr(p xenc.Pre, name, val string) error {
	if err := t.check(); err != nil {
		return err
	}
	id := t.clone.NodeOf(p)
	if err := t.lockSpan(p, p, xenc.NoPre); err != nil {
		return err
	}
	if err := t.clone.SetAttr(p, name, val); err != nil {
		return err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpSetAttr, Target: id, Name: name, Value: val})
	return nil
}

// RemoveAttr removes an attribute.
func (t *Tx) RemoveAttr(p xenc.Pre, name string) error {
	if err := t.check(); err != nil {
		return err
	}
	id := t.clone.NodeOf(p)
	if err := t.lockSpan(p, p, xenc.NoPre); err != nil {
		return err
	}
	if err := t.clone.RemoveAttr(p, name); err != nil {
		return err
	}
	t.ops = append(t.ops, wal.Op{Kind: wal.OpRemoveAttr, Target: id, Name: name})
	return nil
}

// --- commit / abort -----------------------------------------------------------

// Commit validates the new document image, writes the WAL record and
// replays the transaction's operations onto the base store under the
// global write lock (Figure 8's commit sequence).
func (t *Tx) Commit() error {
	if t.done {
		return ErrDone
	}
	if t.err != nil {
		t.Abort()
		return t.err
	}
	if len(t.ops) == 0 {
		t.Abort()
		return nil
	}
	if v := t.m.validator; v != nil {
		if err := v(t.clone); err != nil {
			t.Abort()
			return fmt.Errorf("tx: validation failed: %w", err)
		}
	}
	m := t.m
	m.mu.Lock()
	// Commit-time check: every op target must still exist in the base
	// (page locks make this unreachable for conflicting writers, but a
	// cheap check keeps replay failures impossible).
	for i := range t.ops {
		op := &t.ops[i]
		if op.Target == xenc.NoNode {
			continue
		}
		if !knownNewID(t.ops[:i], op.Target) && m.store.PreOf(op.Target) == xenc.NoPre {
			m.mu.Unlock()
			t.Abort()
			return fmt.Errorf("tx: %w: op %d target %d vanished", ErrConflict, i, op.Target)
		}
	}
	var lsn uint64
	if m.log != nil {
		var err error
		// Append inside the critical section (it assigns the LSN that
		// orders this commit), but do NOT fsync here: durability is
		// settled by the group-commit Sync below, outside the lock, so
		// concurrent committers share one fsync instead of queueing N of
		// them behind the global mutex.
		if lsn, err = m.log.Append(t.ops); err != nil {
			m.mu.Unlock()
			t.Abort()
			return err
		}
	}
	if err := ApplyOps(m.store, t.ops); err != nil {
		// The WAL record is already written; an apply failure here is an
		// invariant violation, not a user error.
		m.mu.Unlock()
		t.Abort()
		return fmt.Errorf("tx: applying committed ops: %w", err)
	}
	m.version.Add(1)
	m.commits++
	m.mu.Unlock()
	m.invalidateStale()
	// Wake read-your-writes waiters: the ops are applied and any snapshot
	// acquired from here on observes them. Durability is settled below —
	// the watermark is about visibility, and a waiter on this replica
	// already raced ahead of the fsync the moment the lock dropped.
	m.applied.advance(lsn)
	t.lsn = lsn
	m.unlockAll(t)
	t.done = true
	// Return the image's chunk references: pages the transaction did not
	// dirty go back to being base-owned (in-place writable) as soon as
	// no snapshot shares them.
	t.clone.Release()
	t.clone = nil
	if m.log != nil {
		// Group commit: the transaction is visible to new readers already
		// (early lock release), but Commit only returns once its record is
		// on stable storage — the leader/follower door in wal.Log.Sync
		// batches the fsyncs of every committer that raced through the
		// critical section since the last one. A Sync failure is a
		// half-state: applied and visible, durability unknown — reported
		// as ErrNotDurable, which the caller must not answer by retrying.
		if err := m.log.Sync(lsn); err != nil {
			return fmt.Errorf("%w: %w", ErrNotDurable, err)
		}
	}
	return nil
}

func knownNewID(prior []wal.Op, id xenc.NodeID) bool {
	for i := range prior {
		for _, n := range prior[i].NewIDs {
			if n == id {
				return true
			}
		}
	}
	return false
}

// Abort drops the transaction image and releases all locks.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.m.mu.Lock()
	t.m.aborts++
	t.m.mu.Unlock()
	t.m.unlockAll(t)
	t.done = true
	t.clone.Release()
	t.clone = nil
}

// ApplyOps replays resolved operations onto a store, mapping the
// transaction-local ids of inserted nodes to the ids the store hands out
// (recovery uses the same code path, which keeps replay deterministic).
func ApplyOps(store *core.Store, ops []wal.Op) error {
	idMap := make(map[xenc.NodeID]xenc.NodeID)
	resolve := func(id xenc.NodeID) xenc.NodeID {
		if mapped, ok := idMap[id]; ok {
			return mapped
		}
		return id
	}
	for i := range ops {
		op := &ops[i]
		var p xenc.Pre
		if op.Target != xenc.NoNode {
			p = store.PreOf(resolve(op.Target))
			if p == xenc.NoPre {
				return fmt.Errorf("tx: op %d: target node %d not found", i, op.Target)
			}
		}
		var newIDs []xenc.NodeID
		var err error
		switch op.Kind {
		case wal.OpInsertBefore:
			if op.Target == xenc.NoNode {
				return fmt.Errorf("tx: op %d: insert-before without anchor", i)
			}
			newIDs, err = store.InsertBefore(p, walToFrag(op.Frag))
		case wal.OpInsertAfter:
			newIDs, err = store.InsertAfter(p, walToFrag(op.Frag))
		case wal.OpAppendChild:
			newIDs, err = store.AppendChild(p, walToFrag(op.Frag))
		case wal.OpInsertChildAt:
			newIDs, err = store.InsertChildAt(p, int(op.Child), walToFrag(op.Frag))
		case wal.OpDelete:
			err = store.Delete(p)
		case wal.OpSetValue:
			err = store.SetValue(p, op.Value)
		case wal.OpRename:
			err = store.Rename(p, op.Name)
		case wal.OpSetAttr:
			err = store.SetAttr(p, op.Name, op.Value)
		case wal.OpRemoveAttr:
			err = store.RemoveAttr(p, op.Name)
		default:
			err = fmt.Errorf("unknown op kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("tx: op %d (%d): %w", i, op.Kind, err)
		}
		for j, id := range op.NewIDs {
			if j < len(newIDs) {
				idMap[id] = newIDs[j]
			}
		}
	}
	return nil
}
