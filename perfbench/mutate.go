package main

import (
	"fmt"
	"math/rand"

	"mxq/internal/xmark"
)

// The write mix. Markers are the only nodes the benchmark adds, and it
// removes only markers it added itself, so live nodes stay within
// maxLive markers of the generated document over any run length.
const (
	pctText   = 40 // update-text of an emailaddress or location
	pctAppend = 20 // append a marker to a person or item
	pctInsert = 10 // insert a marker before a person's or item's name
	// the remaining 30%: remove a marker added earlier
	maxLive = 256
)

const xuHead = `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">`
const xuTail = `</xupdate:modifications>`

// marker is a node the benchmark added: its id attribute and text are
// both id, and host is the child path of the person or item holding it.
type marker struct{ host, id string }

// writeOp is one XUpdate modification list and what acknowledging it
// changes in the benchmark's model of the document.
type writeOp struct {
	xu     string
	add    *marker // append or insert-before
	remove int     // index into live, or -1
	path   string  // update-text target
	text   string
}

// mutator generates a seeded write sequence over one document and keeps
// a model of what acknowledged writes changed, so reads can be checked
// and the durability gate knows how many markers must survive.
type mutator struct {
	rng    *rand.Rand
	counts xmark.Counts
	items  int
	prefix string // distinguishes the marker ids of concurrent writers
	seq    int

	live    []marker
	texts   map[string]string // update-text target -> acknowledged text
	paths   []string          // keys of texts, in first-write order
	adds    int
	removes int
	payload int64 // bytes of acknowledged modification lists
}

func newMutator(seed int64, counts xmark.Counts, prefix string) *mutator {
	items := 0
	for _, n := range counts.Items {
		items += n
	}
	return &mutator{
		rng: rand.New(rand.NewSource(seed)), counts: counts, items: items,
		prefix: prefix, texts: make(map[string]string),
	}
}

// host picks a person or an item uniformly and returns its child path
// and the name of its text field the update-text command rewrites.
func (m *mutator) host() (path, field string) {
	if m.rng.Intn(2) == 0 {
		return fmt.Sprintf("/site/people/person[%d]", 1+m.rng.Intn(m.counts.Persons)), "emailaddress"
	}
	i := m.rng.Intn(m.items)
	for r, n := range m.counts.Items {
		if i < n {
			return fmt.Sprintf("/site/regions/%s/item[%d]", xmark.Regions[r], i+1), "location"
		}
		i -= n
	}
	panic("unreachable: item index beyond the item counts")
}

// next returns the next write of the mix.
func (m *mutator) next() writeOp {
	r := m.rng.Intn(100)
	switch {
	case r < pctText:
		return m.textOp()
	case r >= pctText+pctAppend+pctInsert && len(m.live) > 0,
		len(m.live) >= maxLive:
		return m.removeOp()
	}
	m.seq++
	host, _ := m.host()
	mk := &marker{host: host, id: fmt.Sprintf("%sm%d", m.prefix, m.seq)}
	content := `<marker id="` + mk.id + `">` + mk.id + `</marker>`
	if r < pctText+pctAppend || r >= pctText+pctAppend+pctInsert {
		return writeOp{xu: xuHead + `<xupdate:append select="` + host + `">` + content + `</xupdate:append>` + xuTail, add: mk, remove: -1}
	}
	return writeOp{xu: xuHead + `<xupdate:insert-before select="` + host + `/name">` + content + `</xupdate:insert-before>` + xuTail, add: mk, remove: -1}
}

// textOp rewrites one emailaddress or location.
func (m *mutator) textOp() writeOp {
	m.seq++
	host, field := m.host()
	path := host + "/" + field
	text := fmt.Sprintf("%st%d", m.prefix, m.seq)
	return writeOp{xu: xuHead + `<xupdate:update select="` + path + `">` + text + `</xupdate:update>` + xuTail, path: path, text: text, remove: -1}
}

func (m *mutator) removeOp() writeOp {
	i := m.rng.Intn(len(m.live))
	mk := m.live[i]
	return writeOp{xu: xuHead + `<xupdate:remove select="` + mk.host + `/marker[@id='` + mk.id + `']"/>` + xuTail, remove: i}
}

// ack records that op committed.
func (m *mutator) ack(op writeOp) {
	m.payload += int64(len(op.xu))
	switch {
	case op.add != nil:
		m.live = append(m.live, *op.add)
		m.adds++
	case op.remove >= 0:
		last := len(m.live) - 1
		m.live[op.remove] = m.live[last]
		m.live = m.live[:last]
		m.removes++
	default:
		if _, seen := m.texts[op.path]; !seen {
			m.paths = append(m.paths, op.path)
		}
		m.texts[op.path] = op.text
	}
}

// read returns a selective query over something an acknowledged write
// changed, and the single string value it must return.
func (m *mutator) read() (query, want string) {
	if len(m.live) > 0 && (len(m.paths) == 0 || m.rng.Intn(2) == 0) {
		mk := m.live[m.rng.Intn(len(m.live))]
		return mk.host + "/marker[@id='" + mk.id + "']/text()", mk.id
	}
	if len(m.paths) > 0 {
		p := m.paths[m.rng.Intn(len(m.paths))]
		return p + "/text()", m.texts[p]
	}
	return "count(/site/people/person)", fmt.Sprint(m.counts.Persons)
}
