package main

import (
	"fmt"
	"io"
	"time"
)

// spans records the benchmark's own calls into the program as timed
// spans, kept in memory and reported when the run ends. A nil *spans
// records nothing, so untraced runs pay one branch per call.
type spans struct {
	t0   time.Time
	list []span
}

type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at the root
	start, end time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{name: name, parent: parent, start: time.Since(s.t0)})
	return len(s.list) - 1
}

func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].end = time.Since(s.t0)
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// totals sums each span name's count, total and self time (total minus
// the time its child spans cover; children never overlap, since the
// benchmark makes its calls one at a time), in first-seen order.
func (s *spans) totals() []spanTotal {
	idx := map[string]int{}
	var out []spanTotal
	at := func(name string) *spanTotal {
		i, ok := idx[name]
		if !ok {
			i = len(out)
			idx[name] = i
			out = append(out, spanTotal{name: name})
		}
		return &out[i]
	}
	for _, sp := range s.list {
		d := sp.end - sp.start
		t := at(sp.name)
		t.count++
		t.total += d
		t.self += d
		if sp.parent >= 0 {
			at(s.list[sp.parent].name).self -= d
		}
	}
	return out
}

func (s *spans) report(out io.Writer) {
	if s == nil {
		return
	}
	for _, t := range s.totals() {
		fmt.Fprintf(out, "span %-22s n=%-5d total=%.4g ms self=%.4g ms\n", t.name, t.count, ms(t.total), ms(t.self))
	}
}
