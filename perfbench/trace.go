package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded layer call. Spans of one request share Req; a
// request's root span has Parent 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	id, parent, req uint64
	name            string
	start           time.Time
}

// root starts the first span of a new request.
func (t *tracer) root(name string) open {
	if t == nil {
		return open{}
	}
	id := t.ids.Add(1)
	return open{id: id, req: id, name: name, start: time.Now()}
}

// child starts a span caused by parent, in parent's request.
func (t *tracer) child(parent open, name string) open {
	if t == nil {
		return open{}
	}
	return open{id: t.ids.Add(1), parent: parent.id, req: parent.req, name: name, start: time.Now()}
}

func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	self  time.Duration // span durations minus the time their children cover
}

func (l layerTime) meanSelf() time.Duration { return l.self / time.Duration(l.count) }

// selfTimes derives per-name self time: each span's duration minus the
// part of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		curS, curE := int64(0), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		lt := out[s.Name]
		lt.count++
		lt.self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
