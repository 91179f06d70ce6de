package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mxq"
	"mxq/client"
	"mxq/internal/server"
)

const (
	servedSessions = 2 // one client connection per vCPU
	servedWritePct = 5
)

// servedReads are the served workload's prepared query texts. None of
// them reads what the write mix changes (markers, emailaddress,
// location), so every response must equal the in-process result
// computed once before the run.
var servedReads = []struct{ q, entity string }{
	{`/site/people/person[@id = $id]/name/text()`, "person"},
	{`count(/site/people/person[@id = $id]/watches/watch)`, "person"},
	{`/site/open_auctions/open_auction[@id = $id]/initial/text()`, "open_auction"},
	{`/site/categories/category[@id = $id]/name/text()`, "category"},
}

// served is an in-process server on a loopback listener and the
// benchmark's client sessions connected to it.
type served struct {
	srv     *server.Server
	ln      *countingListener
	done    chan error
	clients []*client.Client
}

func startServer(db *mxq.Database) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(server.Config{DB: db}), ln: &countingListener{Listener: l}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(s.ln) }()
	for i := 0; i < servedSessions; i++ {
		c, err := client.Dial(context.Background(), l.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// stop closes the sessions, drains the server and waits for its accept
// loop to return.
func (s *served) stop() {
	for _, c := range s.clients {
		c.Close()
	}
	s.srv.Shutdown(5 * time.Second)
	s.ln.Close() // in case Serve had not installed it yet
	<-s.done
}

// countingListener counts the bytes its connections carry, so the
// socket traffic can be told apart from file writes.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// entities counts the elements of each kind the served reads bind $id to.
func (b *bench) entities() map[string]int {
	return map[string]int{"person": b.counts.Persons, "open_auction": b.counts.OpenAuctions, "category": b.counts.Categories}
}

// readKey identifies one read request.
type readKey struct{ q, id string }

// expectedReads evaluates every served read with every binding
// in-process.
func (b *bench) expectedReads() (map[readKey]mxq.Result, error) {
	n := b.entities()
	want := make(map[readKey]mxq.Result)
	for _, r := range servedReads {
		p, err := b.doc.Prepare(r.q)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n[r.entity]; i++ {
			id := fmt.Sprintf("%s%d", r.entity, i)
			res, err := p.Run(map[string]string{"id": id})
			if err != nil {
				return nil, err
			}
			want[readKey{r.q, id}] = res
		}
	}
	return want, nil
}

// sessionResult is what one client session measured.
type sessionResult struct {
	reads, writes     latencies
	attempted, failed int64
	mismatches        []string
}

// session drives one client connection closed-loop for d.
func (b *bench) session(c *client.Client, m *mutator, rng *rand.Rand, want map[readKey]mxq.Result, d time.Duration) *sessionResult {
	ctx := context.Background()
	r := &sessionResult{}
	n := b.entities()
	tr := b.tr
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		r.attempted++
		if rng.Intn(100) < servedWritePct {
			op := m.next()
			t0 := time.Now()
			req := tr.root("client.update")
			_, err := c.Update(ctx, docName, op.xu)
			tr.end(req)
			if err != nil {
				r.failed++
				r.writes.fail()
				continue
			}
			r.writes.ok(time.Since(t0))
			m.ack(op)
			continue
		}
		q := servedReads[rng.Intn(len(servedReads))]
		id := fmt.Sprintf("%s%d", q.entity, rng.Intn(n[q.entity]))
		t0 := time.Now()
		req := tr.root("client.read")
		items, err := c.Query(ctx, docName, q.q, map[string]string{"id": id})
		tr.end(req)
		if err != nil {
			r.failed++
			r.reads.fail()
			continue
		}
		r.reads.ok(time.Since(t0))
		if !sameItems(items, want[readKey{q.q, id}]) && len(r.mismatches) < 5 {
			r.mismatches = append(r.mismatches, fmt.Sprintf("served %s with $id=%s: got %v, want %v", q.q, id, items, want[readKey{q.q, id}]))
		}
	}
	return r
}

func sameItems(got []client.Item, want mxq.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].Value != want[i].Value || got[i].XML != want[i].XML {
			return false
		}
	}
	return true
}

// runServed times the request mix of servedSessions concurrent client
// sessions against the in-process server.
func (b *bench) runServed() error {
	want, err := b.expectedReads()
	if err != nil {
		return err
	}
	rngs := make([]*rand.Rand, servedSessions)
	for i := range rngs {
		m := newMutator(b.cfg.seed+int64(i)*7919, b.counts, fmt.Sprintf("s%d", i))
		b.muts = append(b.muts, m)
		rngs[i] = rand.New(rand.NewSource(b.cfg.seed + int64(i)*104729))
	}
	if b.cfg.trace {
		if err := b.batteryProbe(); err != nil {
			return err
		}
	}
	reads, writes := &latencies{}, &latencies{}
	run := func(d time.Duration) (int64, error) {
		results := make([]*sessionResult, servedSessions)
		var wg sync.WaitGroup
		for i, c := range b.srv.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = b.session(c, b.muts[i], rngs[i], want, d)
			}()
		}
		wg.Wait()
		var ops int64
		for _, r := range results {
			ops += r.attempted - r.failed
			b.attempted += r.attempted
			b.failed += r.failed
			reads.merge(&r.reads)
			writes.merge(&r.writes)
			for _, s := range r.mismatches {
				b.mismatch("%s", s)
			}
		}
		return ops, nil
	}
	// Warm-up: fills the sessions' prepared-statement caches.
	if _, err := run(b.share(0.05)); err != nil {
		return err
	}
	*reads, *writes = latencies{}, latencies{}
	b.attempted, b.failed = 0, 0

	payload0 := b.payload()
	sock0 := b.srv.ln.n.Load()
	main, err := b.timedPhases(1, run)
	if err != nil {
		return err
	}
	wrote := main.written - (b.srv.ln.n.Load() - sock0)
	return b.endToEnd(main, reads, writes, wrote, b.payload()-payload0)
}

// payload is the modification-list bytes acknowledged so far.
func (b *bench) payload() int64 {
	var n int64
	for _, m := range b.muts {
		n += m.payload
	}
	return n
}
