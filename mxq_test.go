package mxq

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq/internal/chunkstore"
	"mxq/internal/tx"
	"mxq/internal/validate"
)

const libDoc = `<lib><shelf id="s1"><book year="1999">Alpha</book><book year="2003">Beta</book></shelf></lib>`

const modsWrap = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">%BODY%</xupdate:modifications>`

func wrapMods(body string) string { return strings.Replace(modsWrap, "%BODY%", body, 1) }

func TestLoadQueryUpdateRoundTrip(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.QueryValue(`/lib/shelf/book[1]/text()`); got != "Alpha" {
		t.Fatalf("first book = %q", got)
	}
	if n, _ := doc.Count(`//book`); n != 2 {
		t.Fatalf("books = %d", n)
	}
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book year="2020">Gamma</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	if n, _ := doc.Count(`//book`); n != 3 {
		t.Fatalf("books after update = %d", n)
	}
	xml, err := doc.XML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, `<book year="2020">Gamma</book></shelf>`) {
		t.Fatalf("xml = %s", xml)
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResultMaterialization(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	res, err := doc.Query(`//book`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Kind != "element" || res[0].XML != `<book year="1999">Alpha</book>` {
		t.Fatalf("res = %+v", res)
	}
	res, err = doc.Query(`count(//book)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Kind != "number" || res[0].Value != "2" {
		t.Fatalf("count result = %+v", res)
	}
	res, err = doc.Query(`//book/@year`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Kind != "attribute" || res[0].Value != "1999" {
		t.Fatalf("attr result = %+v", res)
	}
	if got := res.Strings(); got[1] != "2003" {
		t.Fatalf("Strings() = %v", got)
	}
	res, err = doc.Query(`boolean(//book)`)
	if err != nil || res[0].Kind != "boolean" || res[0].Value != "true" {
		t.Fatalf("boolean result = %+v (%v)", res, err)
	}
}

func TestQueryVars(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	res, err := doc.QueryVars(`//book[@year = $y]/text()`, map[string]string{"y": "2003"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Value != "Beta" {
		t.Fatalf("res = %+v", res)
	}
}

func TestDocumentRegistry(t *testing.T) {
	db, _ := Open(Options{})
	if _, err := db.LoadXMLString("a", `<a/>`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("b", `<b/>`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("a", `<a2/>`); err == nil {
		t.Fatal("duplicate name accepted")
	}
	names := db.Documents()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("documents = %v", names)
	}
	if _, ok := db.Document("a"); !ok {
		t.Fatal("lookup failed")
	}
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("a"); err == nil {
		t.Fatal("double drop succeeded")
	}
	if _, ok := db.Document("a"); ok {
		t.Fatal("dropped document still present")
	}
}

func TestBadInputs(t *testing.T) {
	db, _ := Open(Options{})
	if _, err := db.LoadXMLString("bad", `<a><b></a>`); err == nil {
		t.Fatal("malformed XML accepted")
	}
	doc, _ := db.LoadXMLString("lib", libDoc)
	if _, err := doc.Query(`//book[`); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := doc.Update(`not xml`); err == nil {
		t.Fatal("bad update accepted")
	}
	if _, err := doc.Update(wrapMods(`<xupdate:remove select="/lib"/>`)); err == nil {
		t.Fatal("root removal committed")
	}
	// The failed update must not have leaked partial state.
	if n, _ := doc.Count(`/lib`); n != 1 {
		t.Fatal("document damaged by failed update")
	}
}

func TestExplicitTransaction(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	txn := doc.Begin()
	if _, err := txn.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>New</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	res, err := txn.Query(`count(//book)`)
	if err != nil || res[0].Value != "3" {
		t.Fatalf("tx sees %v (%v), want 3", res, err)
	}
	if n, _ := doc.Count(`//book`); n != 2 {
		t.Fatal("uncommitted change visible outside tx")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := doc.Count(`//book`); n != 3 {
		t.Fatal("commit lost")
	}

	txn2 := doc.Begin()
	txn2.Update(wrapMods(`<xupdate:remove select="//book"/>`))
	txn2.Abort()
	if n, _ := doc.Count(`//book`); n != 3 {
		t.Fatal("aborted change applied")
	}
	if err := txn2.Commit(); !errors.Is(err, tx.ErrDone) {
		t.Fatalf("commit after abort = %v", err)
	}
}

func TestSchemaValidationOnCommit(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	doc.SetSchema(validate.NewSchema().
		Elem("shelf", Rule()).
		Elem("book", validate.Rule{NoElements: true}))
	if _, err := doc.Update(wrapMods(`<xupdate:append select="//book[1]"><sub/></xupdate:append>`)); err == nil {
		t.Fatal("schema-violating update committed")
	}
	if n, _ := doc.Count(`//sub`); n != 0 {
		t.Fatal("invalid content leaked")
	}
	doc.SetSchema(nil)
	if _, err := doc.Update(wrapMods(`<xupdate:append select="//book[1]"><sub/></xupdate:append>`)); err != nil {
		t.Fatalf("after clearing schema: %v", err)
	}
}

// Rule is a tiny helper keeping the test readable.
func Rule() validate.Rule { return validate.Rule{} }

func TestStats(t *testing.T) {
	db, _ := Open(Options{PageSize: 16, FillFactor: 0.5})
	doc, _ := db.LoadXMLString("lib", libDoc)
	s := doc.Stats()
	if s.LiveNodes != 6 || s.PageSize != 16 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Fill <= 0 || s.Fill > 0.51 {
		t.Fatalf("fill = %v, want ~0.3", s.Fill)
	}
	doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>C</book></xupdate:append>`))
	s = doc.Stats()
	if s.Commits != 1 {
		t.Fatalf("commits = %d", s.Commits)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint plus three committed updates in the WAL.
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>W</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := doc.XML()
	db.Close()

	// "Crash" and reopen: the store must come back from ckpt + WAL.
	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, ok := db2.Document("lib")
	if !ok {
		t.Fatalf("document not recovered; dir: %v", ls(t, dir))
	}
	got, err := doc2.XML()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered xml differs:\nwant %s\ngot  %s", want, got)
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And it stays writable.
	if _, err := doc2.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>Z</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
}

func ls(t *testing.T, dir string) []string {
	t.Helper()
	ents, _ := os.ReadDir(dir)
	var out []string
	for _, e := range ents {
		out = append(out, filepath.Base(e.Name()))
	}
	return out
}

func TestSerializeToIndented(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", `<a><b/></a>`)
	var sb strings.Builder
	if err := doc.SerializeTo(&sb, "  "); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "<a>\n  <b/>\n</a>\n" {
		t.Fatalf("indented = %q", sb.String())
	}
}

func TestPreparedQueries(t *testing.T) {
	db, _ := Open(Options{})
	doc, _ := db.LoadXMLString("lib", libDoc)
	p, err := doc.Prepare(`//book[@year = $y]/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() == "" {
		t.Fatal("empty source")
	}
	for y, want := range map[string]string{"1999": "Alpha", "2003": "Beta"} {
		res, err := p.Run(map[string]string{"y": y})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Value != want {
			t.Fatalf("year %s: %+v", y, res)
		}
	}
	// Prepared queries see committed updates.
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book year="1999">Alpha2</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	res, _ := p.Run(map[string]string{"y": "1999"})
	if len(res) != 2 {
		t.Fatalf("after update: %+v", res)
	}
	if _, err := doc.Prepare(`bad[`); err == nil {
		t.Fatal("bad query prepared")
	}
}

// TestAutoCheckpointPolicy: with Options.CheckpointEvery set, the
// background goroutine must checkpoint once the WAL tail exceeds the
// policy, prune covered segments, and leave a recoverable manifest;
// Close must drain it cleanly.
func TestAutoCheckpointPolicy(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		Dir: dir, NoSync: true, WALSegmentBytes: 512,
		CheckpointEvery: CheckpointPolicy{Records: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>auto</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for doc.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-checkpointer never ran; stats = %+v", doc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, _ := doc.XML()
	db.Close() // drains the auto goroutine

	if _, err := os.Stat(filepath.Join(dir, "lib.manifest")); err != nil {
		t.Fatalf("no manifest after auto checkpoint: %v", err)
	}
	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, ok := db2.Document("lib")
	if !ok {
		t.Fatalf("document not recovered; dir: %v", ls(t, dir))
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	if n, _ := doc2.Count(`//book[text()="auto"]`); n != 12 {
		t.Fatalf("auto-checkpointed commits lost: %d of 12", n)
	}
}

// TestCheckpointOnlineKeepsCommitsDurable: commits landing after an
// explicit checkpoint stay in the (pruned) WAL and survive reopen —
// the root-API view of the lost-commit regression.
func TestCheckpointOnlineKeepsCommitsDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true, WALSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>pre</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Racing-commit shape: land right after the checkpoint published.
	if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>racing</book></xupdate:append>`)); err != nil {
		t.Fatal(err)
	}
	want, _ := doc.XML()
	db.Close()

	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc2, _ := db2.Document("lib")
	if got, _ := doc2.XML(); got != want {
		t.Fatalf("post-checkpoint commit lost:\nwant %s\ngot  %s", want, got)
	}
}

// TestDropSparesDashSiblingDocuments: dropping "a" must not delete the
// durability artifacts of "a-b" (whose name "a" prefixes).
func TestDropSparesDashSiblingDocuments(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	docA, err := db.LoadXMLString("a", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	docAB, err := db.LoadXMLString("a-b", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Document{docA, docAB} {
		if _, err := d.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>sib</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := docAB.XML()
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok := db2.Document("a"); ok {
		t.Fatal(`dropped document "a" came back`)
	}
	doc2, ok := db2.Document("a-b")
	if !ok {
		t.Fatalf(`dropping "a" destroyed "a-b"; dir: %v`, ls(t, dir))
	}
	if got, _ := doc2.XML(); got != want {
		t.Fatalf(`"a-b" damaged by Drop("a"):\nwant %s\ngot  %s`, want, got)
	}
}

// TestAutoCheckpointMeasuresBeyondLastCheckpoint: covered records parked
// in the never-pruned active segment must not re-trigger checkpoints —
// the policy measures the tail beyond the last checkpoint's LSN.
func TestAutoCheckpointMeasuresBeyondLastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Huge segments: nothing ever rotates, so every covered record stays
	// in the active segment and TailStats (total) keeps exceeding the
	// policy forever — only the beyond-checkpoint measure quiesces.
	db, err := Open(Options{
		Dir: dir, NoSync: true,
		CheckpointEvery: CheckpointPolicy{Records: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>q</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for doc.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-checkpointer never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Two more commits: beyond-checkpoint tail is 1-2 records, far under
	// the policy — no new checkpoint may trigger even though the active
	// segment still physically holds all 7 records.
	for i := 0; i < 2; i++ {
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>r</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	settled := doc.Stats().Checkpoints
	time.Sleep(150 * time.Millisecond)
	st := doc.Stats()
	if st.Checkpoints != settled {
		t.Fatalf("checkpoints kept firing on covered records: %d -> %d", settled, st.Checkpoints)
	}
	if st.WALRecords >= 4 {
		t.Fatalf("beyond-checkpoint tail = %d records, policy would re-trigger", st.WALRecords)
	}
}

// heldChunks holds the first chunk Put of a checkpoint open until
// released, signalling when it blocks.
type heldChunks struct {
	chunkstore.Store
	once          *sync.Once
	held, release chan struct{}
}

func (h *heldChunks) Put(hash chunkstore.Hash, data []byte) error {
	h.once.Do(func() {
		close(h.held)
		<-h.release
	})
	return h.Store.Put(hash, data)
}

// TestAutoCheckpointNoStaleNudge holds an auto checkpoint open while a
// commit lands. That commit still measures against the old baseline and
// nudges the checkpointer again, but the running checkpoint already
// covers all but one record when it finishes: exactly one checkpoint
// may run.
func TestAutoCheckpointNoStaleNudge(t *testing.T) {
	db, err := Open(Options{
		Dir: t.TempDir(), NoSync: true,
		CheckpointEvery: CheckpointPolicy{Records: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("lib", libDoc)
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	doc.ckpter.SetChunkWrapper(func(cs chunkstore.Store) chunkstore.Store {
		return &heldChunks{Store: cs, once: &once, held: held, release: release}
	})
	update := func() {
		t.Helper()
		if _, err := doc.Update(wrapMods(`<xupdate:append select="/lib/shelf"><book>n</book></xupdate:append>`)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		update() // the fourth commit reaches the policy and nudges
	}
	<-held // the auto checkpoint covering four records is mid-stream
	update()
	if len(doc.autoC) != 1 {
		t.Fatal("the commit during the checkpoint did not nudge the checkpointer")
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for len(doc.autoC) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-checkpointer never took the second nudge")
		}
		time.Sleep(time.Millisecond)
	}
	doc.stopAuto() // waits out whatever the nudge started
	if got := doc.Stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1: the stale nudge ran a checkpoint the records no longer needed", got)
	}
}
