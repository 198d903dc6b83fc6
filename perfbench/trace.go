package main

import (
	"fmt"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Spans of one request share Req;
// Parent is the enclosing span (-1 for the request's root).
type span struct {
	Name   string
	Req    int
	Parent int
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory for the length of a run. A nil *tracer
// records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// timed runs f inside a span named name.
func (t *tracer) timed(req, parent int, name string, f func()) {
	id := t.begin(req, parent, name)
	f()
	t.end(id)
}

// selfTimes returns every span's self time — its duration minus the
// time its child spans cover — after checking the trace is consistent:
// every span closed, every child inside its parent, and for every
// request the self times of its spans summing to its root span.
func selfTimes(spans []span) ([]time.Duration, error) {
	self := make([]time.Duration, len(spans))
	children := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) of request %d never closed", i, s.Name, s.Req)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) lies outside its parent %s", i, s.Name, p.Name)
		}
		children[s.Parent] += s.End - s.Start
	}
	sum := map[int]time.Duration{}
	root := map[int]time.Duration{}
	for i, s := range spans {
		self[i] = s.End - s.Start - children[i]
		if self[i] < 0 {
			return nil, fmt.Errorf("span %d (%s): children cover %v of its %v", i, s.Name, children[i], s.End-s.Start)
		}
		sum[s.Req] += self[i]
		if s.Parent < 0 {
			root[s.Req] = s.End - s.Start
		}
	}
	for req, total := range sum {
		if total != root[req] {
			return nil, fmt.Errorf("request %d: layer self times sum to %v, request span is %v", req, total, root[req])
		}
	}
	return self, nil
}
