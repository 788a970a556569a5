package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a request,
// a solve, a multiplication round) share Trace; Parent is the span that
// made the call, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass pays one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// tracerIf returns a tracer for the traced pass, nil otherwise.
func tracerIf(on bool) *tracer {
	if on {
		return &tracer{t0: time.Now()}
	}
	return nil
}

// newTrace returns a fresh operation id.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// open starts a span; close it with end.
func (t *tracer) open(name string, parent, trace int64) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.ids.Add(1), Parent: parent, Trace: trace, Name: name, Start: time.Since(t.t0).Nanoseconds()}
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.t0).Nanoseconds()
	t.add(*s)
}

// add records a finished span, for intervals measured elsewhere (the
// server's own queue and execution times).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// id and trace of a possibly nil span, for use as a parent.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

func (s *span) trace() int64 {
	if s == nil {
		return 0
	}
	return s.Trace
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (the two tcp
// halves, say) count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// selfByName gathers the self times of every span named name, in ns.
func selfByName(spans []span, self map[int64]int64, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// durByName gathers the durations of every span named name, in ns.
func durByName(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}
