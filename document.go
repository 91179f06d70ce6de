package mxq

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"mxq/internal/ckpt"
	"mxq/internal/repl"
	"mxq/internal/serialize"
	"mxq/internal/tx"
	"mxq/internal/wal"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
	"mxq/internal/xupdate"

	"mxq/internal/core"
)

// Document is one stored XML document.
type Document struct {
	name  string
	db    *Database
	store *core.Store
	mgr   *tx.Manager
	log   *wal.Log

	// Online durability (nil without Options.Dir): the checkpointer
	// streams LSN-pinned snapshots outside any lock; the auto goroutine
	// (only with Options.CheckpointEvery) runs it when the WAL tail
	// exceeds the policy.
	ckpter      *ckpt.Checkpointer
	autoC       chan struct{}
	stopC       chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
	checkpoints atomic.Uint64
	// lastCkptLSN is the LSN the newest checkpoint covers — the baseline
	// the auto policy (and Stats' WAL-tail figures) measure against, so
	// covered records parked in the never-pruned active segment don't
	// re-trigger checkpoint after checkpoint.
	lastCkptLSN atomic.Uint64

	// tracker registers live replication subscriptions (nil without a
	// durability directory). Its Barrier fences the checkpointer's WAL
	// prune: no segment a live follower still needs is ever deleted.
	tracker *repl.Tracker
}

// Name returns the document's name.
func (d *Document) Name() string { return d.name }

// read runs fn against the cached snapshot of the current committed
// version. No lock is held while fn runs — the view is an immutable
// copy-on-write snapshot leased from the transaction manager — so
// queries fully overlap commits, and repeated reads at an unchanged
// version reuse the same snapshot.
func (d *Document) read(fn func(v xenc.DocView) error) error {
	rv := d.mgr.AcquireRead()
	defer rv.Close()
	return fn(rv.View())
}

// Item is one materialized query result: results are copied out of the
// snapshot the query ran against, so they stay valid across later
// updates.
type Item struct {
	// Kind is "element", "text", "comment", "processing-instruction",
	// "attribute", "document", "number", "string" or "boolean".
	Kind string
	// Value is the item's string value.
	Value string
	// XML is the serialized form for element items ("" otherwise).
	XML string
}

// Result is a materialized query result sequence.
type Result []Item

// Strings returns the items' string values.
func (r Result) Strings() []string {
	out := make([]string, len(r))
	for i, it := range r {
		out[i] = it.Value
	}
	return out
}

// Query compiles and runs an XPath expression as a read-only transaction
// against the snapshot of the current committed version; evaluation
// holds no lock, so queries never block (and are never blocked by)
// concurrent commits.
func (d *Document) Query(q string) (Result, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	var res Result
	err = d.read(func(v xenc.DocView) error {
		var inner error
		res, inner = materialize(v, expr, nil)
		return inner
	})
	return res, err
}

// QueryVars runs a query with variable bindings (values are strings).
func (d *Document) QueryVars(q string, vars map[string]string) (Result, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	bound := make(map[string]xpath.Value, len(vars))
	for k, v := range vars {
		bound[k] = xpath.String(v)
	}
	var res Result
	err = d.read(func(v xenc.DocView) error {
		var inner error
		res, inner = materialize(v, expr, bound)
		return inner
	})
	return res, err
}

// Prepared is a compiled query bound to a document. Compiling once and
// running many times skips the parse on every execution; the compiled
// form is safe for concurrent use. Each Run evaluates against the
// snapshot of the version committed at that moment: a run before a
// commit sees the old data, a run after it sees the new — never a blend.
type Prepared struct {
	doc  *Document
	expr *xpath.Expr
}

// Prepare compiles a query for repeated execution against this document.
func (d *Document) Prepare(q string) (*Prepared, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{doc: d, expr: expr}, nil
}

// Run executes the prepared query; vars may be nil.
func (p *Prepared) Run(vars map[string]string) (Result, error) {
	var res Result
	bound := bindVars(vars)
	err := p.doc.read(func(v xenc.DocView) error {
		var inner error
		res, inner = materialize(v, p.expr, bound)
		return inner
	})
	return res, err
}

// RunSnapshot executes the prepared query against a pinned snapshot
// instead of the current committed version, so a cached plan and a held
// read version compose (a session's multi-request snapshot read reuses
// both). The snapshot should be of the document the query was prepared
// against.
func (p *Prepared) RunSnapshot(s *Snapshot, vars map[string]string) (Result, error) {
	var res Result
	bound := bindVars(vars)
	err := s.read(func(v xenc.DocView) error {
		var inner error
		res, inner = materialize(v, p.expr, bound)
		return inner
	})
	return res, err
}

// bindVars converts string bindings to XPath values (nil stays nil).
func bindVars(vars map[string]string) map[string]xpath.Value {
	if len(vars) == 0 {
		return nil
	}
	bound := make(map[string]xpath.Value, len(vars))
	for k, v := range vars {
		bound[k] = xpath.String(v)
	}
	return bound
}

// Source returns the query text.
func (p *Prepared) Source() string { return p.expr.Source() }

// Explain renders the compiled evaluation plan: one line per location
// step showing whether it runs as a sequence-level staircase scan
// ("seq", with context pruning and no per-step sort), a scan with a
// fused early-exit positional counter ("seq, early-exit pos=n"), or the
// node-at-a-time fallback ("per-node", kept for predicate shapes whose
// semantics need per-context numbering, like last() and positions on
// reverse axes). Collapsed descendant shorthands are marked "fused //".
func (p *Prepared) Explain() string { return p.expr.Explain() }

// QueryValue runs a query and returns its single string value.
func (d *Document) QueryValue(q string) (string, error) {
	res, err := d.Query(q)
	if err != nil {
		return "", err
	}
	if len(res) == 0 {
		return "", nil
	}
	return res[0].Value, nil
}

// Count returns the number of nodes a path selects.
func (d *Document) Count(q string) (int, error) {
	res, err := d.Query(q)
	if err != nil {
		return 0, err
	}
	return len(res), nil
}

func materialize(v xenc.DocView, expr *xpath.Expr, vars map[string]xpath.Value) (Result, error) {
	val, err := expr.EvalVars(v, vars)
	if err != nil {
		return nil, err
	}
	switch x := val.(type) {
	case xpath.NodeSet:
		res := make(Result, 0, len(x))
		for _, n := range x {
			res = append(res, materializeNode(v, n))
		}
		return res, nil
	case xpath.Number:
		return Result{{Kind: "number", Value: xpath.FormatNumber(float64(x))}}, nil
	case xpath.String:
		return Result{{Kind: "string", Value: string(x)}}, nil
	case xpath.Boolean:
		return Result{{Kind: "boolean", Value: fmt.Sprint(bool(x))}}, nil
	}
	return nil, fmt.Errorf("mxq: unexpected result type %T", val)
}

func materializeNode(v xenc.DocView, n xpath.Node) Item {
	if n.Pre == xpath.DocNodePre {
		return Item{Kind: "document", Value: xpath.StringValue(v, n)}
	}
	if n.Attr != xpath.NoAttr {
		return Item{Kind: "attribute", Value: xpath.StringValue(v, n)}
	}
	it := Item{Value: xpath.StringValue(v, n)}
	switch v.Kind(n.Pre) {
	case xenc.KindElem:
		it.Kind = "element"
		if s, err := serialize.String(v, n.Pre, serialize.Options{}); err == nil {
			it.XML = s
		}
	case xenc.KindText:
		it.Kind = "text"
	case xenc.KindComment:
		it.Kind = "comment"
	case xenc.KindPI:
		it.Kind = "processing-instruction"
	}
	return it
}

// Update parses an XUpdate modification list and applies it in a single
// transaction (parse → select → bulk structural updates → validate →
// WAL → commit).
func (d *Document) Update(xupdateXML string) (xupdate.Result, error) {
	mods, err := xupdate.ParseString(xupdateXML)
	if err != nil {
		return xupdate.Result{}, err
	}
	t := d.Begin()
	res, err := xupdate.Execute(t.inner, mods)
	if err != nil {
		t.Abort()
		return res, err
	}
	if err := t.Commit(); err != nil {
		return res, err
	}
	return res, nil
}

// Begin starts a write transaction.
func (d *Document) Begin() *Tx {
	return &Tx{inner: d.mgr.Begin(), doc: d}
}

// Version returns the document's committed version: the number of write
// transactions committed so far. Every query observes exactly one
// version; the counter is what keys the per-version snapshot cache.
func (d *Document) Version() uint64 { return d.mgr.Version() }

// SerializeTo writes the document as XML. Serialization runs against
// the current committed version's snapshot, so a slow writer never
// stalls commits.
func (d *Document) SerializeTo(w io.Writer, indent string) error {
	return d.read(func(v xenc.DocView) error {
		return serialize.Document(w, v, serialize.Options{Indent: indent})
	})
}

// XML returns the serialized document.
func (d *Document) XML() (string, error) {
	var b strings.Builder
	if err := d.SerializeTo(&b, ""); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Stats describe a document's storage state.
type Stats struct {
	LiveNodes int     // live nodes
	Tuples    int     // tuples including unused space
	Pages     int     // logical pages
	PageSize  int     // tuples per page
	Fill      float64 // live / total
	Names     int     // interned qualified names (see CompactDictionaries)
	Props     int     // attribute-value dictionary entries
	Commits   uint64  // committed write transactions
	Aborts    uint64  // aborted write transactions

	// Durability state (zero without a durability directory).
	Checkpoints uint64 // checkpoints completed this session (manual + auto)
	WALBytes    int64  // WAL bytes beyond the last checkpoint (approximate)
	WALRecords  int    // committed records beyond the last checkpoint

	// Incremental-checkpoint economics, cumulative over this session.
	// CkptChunksReused counts manifest references that resolved to chunks
	// already in the store; CkptDedupeRatio is reused/(written+reused) —
	// near 1.0 means checkpoints cost O(churn), not O(document).
	CkptBytesWritten  uint64  // chunk bytes actually written by checkpoints
	CkptChunksWritten uint64  // chunks written (missing from the store)
	CkptChunksReused  uint64  // chunks reused (already present)
	CkptDedupeRatio   float64 // reused / (written + reused)
}

// Stats returns storage statistics.
func (d *Document) Stats() Stats {
	var s Stats
	d.mgr.View(func(v xenc.DocView) error {
		s.LiveNodes = v.LiveNodes()
		s.Tuples = int(v.Len())
		s.Pages = d.store.Pages()
		s.PageSize = d.store.PageSize()
		s.Names, s.Props = d.store.DictStats()
		if s.Tuples > 0 {
			s.Fill = float64(s.LiveNodes) / float64(s.Tuples)
		}
		return nil
	})
	s.Commits, s.Aborts = d.mgr.Stats()
	if d.log != nil {
		s.Checkpoints = d.checkpoints.Load()
		s.WALBytes, s.WALRecords = d.log.TailStatsAbove(d.lastCkptLSN.Load())
	}
	if d.ckpter != nil {
		cs := d.ckpter.Stats()
		s.CkptBytesWritten = cs.BytesWritten
		s.CkptChunksWritten = cs.ChunksWritten
		s.CkptChunksReused = cs.ChunksReused
		if total := cs.ChunksWritten + cs.ChunksReused; total > 0 {
			s.CkptDedupeRatio = float64(cs.ChunksReused) / float64(total)
		}
	}
	return s
}

// Checkpoint writes an *online* checkpoint: a (snapshot, LSN) pair is
// pinned inside the commit critical section (an O(pages) refcount
// sweep), and the O(document) image streams from that immutable
// snapshot outside any lock — commits keep landing at full speed while
// it writes. Completion is published through a crash-safe manifest, and
// only WAL segments wholly below the pinned LSN are deleted, so a
// commit racing the checkpoint is never lost: its record lives in a
// segment the prune keeps. Requires a durability directory.
func (d *Document) Checkpoint() error {
	if d.ckpter == nil {
		return fmt.Errorf("mxq: document %q has no durability directory", d.name)
	}
	lsn, err := d.ckpter.Run()
	if err != nil {
		return err
	}
	// CAS-max: a manual Checkpoint racing the auto goroutine can finish
	// its lower-LSN Run later; the baseline must never regress or the
	// policy would re-trigger on work the newer image already absorbed.
	for {
		cur := d.lastCkptLSN.Load()
		if cur >= lsn || d.lastCkptLSN.CompareAndSwap(cur, lsn) {
			break
		}
	}
	d.checkpoints.Add(1)
	return nil
}

// maybeAutoCheckpoint nudges the background checkpointer when the WAL
// tail has outgrown the policy. Called after every commit; the
// non-blocking send coalesces bursts.
func (d *Document) maybeAutoCheckpoint() {
	if d.autoC == nil || !d.checkpointDue() {
		return
	}
	select {
	case d.autoC <- struct{}{}:
	default:
	}
}

// checkpointDue reports whether the WAL tail beyond the last checkpoint
// has outgrown the auto policy.
func (d *Document) checkpointDue() bool {
	bytes, records := d.log.TailStatsAbove(d.lastCkptLSN.Load())
	return d.db.opts.CheckpointEvery.exceeded(bytes, records)
}

// close shuts the document's durability machinery down in dependency
// order: the auto-checkpoint goroutine is drained first (it may be
// inside a Run; stopAuto waits it out without holding the checkpointer
// mutex, so there is no deadlock), then the checkpointer is closed —
// which waits out any in-flight *manual* Run, including its WAL prune —
// and only then is the WAL released. finalCkpt additionally writes one
// last checkpoint before closing, so a reopen recovers from the image
// alone (and a never-checkpointed document is not lost when its segments
// are detached).
func (d *Document) close(finalCkpt bool) error {
	d.stopAuto()
	var first error
	if d.ckpter != nil {
		if finalCkpt {
			if _, err := d.ckpter.Run(); err != nil && !errors.Is(err, ckpt.ErrClosed) {
				first = err
			}
		}
		d.ckpter.Close()
	}
	if d.log != nil {
		if err := d.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (d *Document) autoCheckpointLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stopC:
			return
		case <-d.autoC:
			// A commit landing while a checkpoint runs still measures
			// against the old baseline and nudges; the checkpoint that
			// just finished may already cover its records.
			if !d.checkpointDue() {
				continue
			}
			if err := d.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "mxq: auto-checkpoint of %q: %v\n", d.name, err)
			}
		}
	}
}

// View runs fn under the global read lock with direct access to the
// document view (advanced use: the view must not escape fn).
func (d *Document) View(fn func(v xenc.DocView) error) error {
	return d.mgr.View(fn)
}

// CompactDictionaries rebuilds the document's shared qualified-name
// pool and attribute-value dictionary, dropping entries that only
// aborted transactions ever referenced (aborts discard column data but
// the shared dictionaries are append-only, so their entries leak). It
// is an offline maintenance pass in the spirit of page compaction: run
// it when Stats shows Names or Props drifting above what the live
// document references. It blocks like a commit (exclusive lock) but
// never disturbs open snapshots or in-flight transactions, which keep
// their own dictionary references. It returns the number of dropped
// name and property entries.
func (d *Document) CompactDictionaries() (namesDropped, propsDropped int) {
	return d.mgr.CompactDictionaries()
}

// CheckInvariants validates the storage invariants (testing hook).
func (d *Document) CheckInvariants() error {
	var err error
	d.mgr.View(func(xenc.DocView) error {
		err = d.store.CheckInvariants()
		return nil
	})
	return err
}

// Tx is a write transaction over one document. It supports queries (with
// read-your-writes semantics) and XUpdate lists; Commit applies the
// Figure 8 protocol.
type Tx struct {
	inner *tx.Tx
	doc   *Document
}

// Query runs an XPath expression against the transaction image.
func (t *Tx) Query(q string) (Result, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return materialize(t.inner, expr, nil)
}

// Update applies an XUpdate modification list inside the transaction.
func (t *Tx) Update(xupdateXML string) (xupdate.Result, error) {
	mods, err := xupdate.ParseString(xupdateXML)
	if err != nil {
		return xupdate.Result{}, err
	}
	return xupdate.Execute(t.inner, mods)
}

// Commit makes the transaction durable and visible. Under load,
// concurrent commits share their WAL fsync (group commit), and a commit
// that pushes the WAL tail past Options.CheckpointEvery nudges the
// background checkpointer.
func (t *Tx) Commit() error {
	if err := t.inner.Commit(); err != nil {
		return err
	}
	t.doc.maybeAutoCheckpoint()
	return nil
}

// Abort discards the transaction.
func (t *Tx) Abort() { t.inner.Abort() }
