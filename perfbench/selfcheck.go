package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// selfCheck tests the benchmark's own arithmetic on fixed inputs and a
// tiny seeded run before every measurement: the tail-percentile rule, the
// attempted/failed accounting, and span self times.
func selfCheck() error {
	// Tail rule: the highest ladder rung with at least ten samples beyond.
	for _, c := range []struct {
		want float64
		n    int
		got  float64
	}{
		{99.9, 1_000_000, 99.9}, {99.9, 10_000, 99.9}, {99.9, 9_999, 99}, {99, 1_000, 99},
		{99, 999, 90}, {99, 100, 90}, {99, 99, 100}, {99, 7, 100},
	} {
		if p := tailPercentile(c.want, c.n); p != c.got {
			return fmt.Errorf("tailPercentile(%v, %d) = %v, want %v", c.want, c.n, p, c.got)
		}
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[100-i] = float64(i)
	}
	for p, want := range map[float64]float64{0: 0, 50: 50, 99: 99, 99.5: 99.5, 100: 100} {
		if got := percentile(xs, p); got != want {
			return fmt.Errorf("percentile(0..100, %v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		return errors.New("percentile of no samples is not NaN")
	}

	// Self time: overlapping children count once, and only inside the
	// parent's interval.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			return fmt.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}

	// A tiny traced run: every fifth op fails. Attempted must equal ok
	// plus failed, and for the sequential span tree of every op the self
	// times must add up to the op's duration exactly.
	r := newRunner("self-check", 7, 30*time.Millisecond, true, ".", io.Discard)
	r.drive(context.Background(), 2, nil, func(_ context.Context, _ int, seq int64, sp *active) (func() error, error) {
		for _, name := range []string{"x", "y"} {
			s := sp.child(name)
			s.child("z").end()
			s.end()
		}
		if seq%5 == 0 {
			return nil, errors.New("planned failure")
		}
		return nil, nil
	})
	attempted, failed := r.accounting()
	ok := int64(len(r.plain) + len(r.traced))
	if attempted < 10 || ok+failed != attempted || failed == 0 {
		return fmt.Errorf("accounting: %d ok + %d failed != %d attempted", ok, failed, attempted)
	}
	spans = r.tr.snapshot()
	self = selfTimes(spans)
	perOp := map[int64]time.Duration{}
	rootDur := map[int64]time.Duration{}
	for _, s := range spans {
		perOp[s.Op] += self[s.ID]
		if s.Parent == 0 {
			rootDur[s.Op] = s.dur()
		}
	}
	if len(rootDur) == 0 {
		return errors.New("the tiny traced run recorded no ops")
	}
	for op, d := range rootDur {
		if perOp[op] != d {
			return fmt.Errorf("op %d: self times add up to %v, the op took %v", op, perOp[op], d)
		}
	}
	return nil
}
