package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded layer call: its name, interval (ns since the
// tracer started), the span that caused it, and the op it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span. A nil *active (an untraced op) ignores every
// call, so layer calls are written once for both modes.
type active struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  int64
}

// root opens the span of a new op.
func (t *tracer) root(name string) *active {
	if t == nil {
		return nil
	}
	return &active{t: t, id: t.next.Add(1), op: t.ops.Add(1), name: name, start: int64(time.Since(t.t0))}
}

// child opens a span caused by a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return &active{t: a.t, id: a.t.next.Add(1), parent: a.id, op: a.op, name: name, start: int64(time.Since(a.t.t0))}
}

// end closes the span and keeps it.
func (a *active) end() {
	if a == nil {
		return
	}
	s := span{ID: a.id, Parent: a.parent, Op: a.op, Name: a.name, Start: a.start, End: int64(time.Since(a.t.t0))}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// call runs fn inside a child span of parent named name.
func call[T any](parent *active, name string, fn func(*active) (T, error)) (T, error) {
	s := parent.child(name)
	defer s.end()
	return fn(s)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children (children that overlap, as the
// parallel runs of a collection do, are counted once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanStats holds the self times, in seconds, of the spans of one name.
type spanStats struct{ self []float64 }

func (s *spanStats) medianSelf() float64 { return median(s.self) }

// byName groups spans by name with their self times.
func byName(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.self = append(st.self, self[s.ID].Seconds())
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (NaN for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
