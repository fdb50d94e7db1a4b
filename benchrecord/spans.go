package main

import (
	"sync"
	"time"
)

// A span is one timed call across a layer boundary, recorded by the
// benchmark around a call into a module's public function. Spans of one
// request share its request ID; Parent is the index of the span that
// caused this one (-1 for a root). A derived span has no Start: its
// duration comes from a counter the program reports (the rex.WithTrace
// stage totals for match and merge, which have no public boundary).
type span struct {
	Request string
	Name    string
	Parent  int
	Start   time.Time
	Dur     time.Duration
}

// spanLog keeps every span of a run in memory; self times are computed
// when the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(req, name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Request: req, Name: name, Parent: parent, Start: time.Now()})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	now := time.Now()
	l.mu.Lock()
	l.spans[i].Dur = now.Sub(l.spans[i].Start)
	l.mu.Unlock()
}

// dur returns the duration of a finished span.
func (l *spanLog) dur(i int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[i].Dur
}

// add records a derived span: a duration the program reported, with no
// clock readings of its own.
func (l *spanLog) add(req, name string, parent int, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Request: req, Name: name, Parent: parent, Dur: d})
	return len(l.spans) - 1
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of the spans it caused.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		out[s.Name] += s.Dur - child[i]
	}
	return out
}
