package daed

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dae/internal/flight"
)

// TestFlightMapCollapses: concurrent joins on one key, composed as the serve
// path composes them (a flight per key over execute), share a single
// pipeline execution. Every caller observes its result, the server counts
// one execution and the artifact is stored once.
func TestFlightMapCollapses(t *testing.T) {
	s := New(Config{Dir: t.TempDir(), Workers: 2})
	t.Cleanup(s.Close)
	var flights flight.Group[string, int]
	var execs atomic.Int32
	gate := make(chan struct{})
	run := func(context.Context) (int, error) {
		execs.Add(1)
		<-gate
		return 42, nil
	}
	storable := func(int) bool { return true }

	const callers = 17
	vals := make([]int, callers)
	leaders := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, leader := flights.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
				return execute(s, ctx, "k", run, storable)
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], leaders[i] = v, leader
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); flights.Waiters("k") != callers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers never joined the flight", callers)
		}
	}
	close(gate)
	wg.Wait()

	nLeaders := 0
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if n := execs.Load(); n != 1 || nLeaders != 1 {
		t.Fatalf("executions=%d leaders=%d, want exactly 1 of each", n, nLeaders)
	}
	if got := s.Stats().Executions; got != 1 {
		t.Errorf("server executions = %d, want 1", got)
	}
	if b, ok := s.store.Get("k"); !ok || string(b) != "42" {
		t.Errorf("stored artifact = %q, %t; want \"42\", true", b, ok)
	}
}
