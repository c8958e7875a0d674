package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dae/internal/fault"
)

// awaitJoined blocks until n callers are joined to the flight for key.
func awaitJoined[K comparable, V any](t *testing.T, g *Group[K, V], key K, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if g.Waiters(key) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers never joined the flight for %v", n, key)
		}
	}
}

// TestDoCollapsesConcurrent: N concurrent callers on one key execute fn
// exactly once and all observe its value; exactly one of them leads.
func TestDoCollapsesConcurrent(t *testing.T) {
	var g Group[string, int]
	var execs atomic.Int64
	gate := make(chan struct{})

	const n = 32
	vals := make([]int, n)
	leaders := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, leader := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				execs.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: unexpected error %v", i, err)
			}
			vals[i], leaders[i] = v, leader
		}(i)
	}
	awaitJoined(t, &g, "k", n)
	close(gate)
	wg.Wait()

	nLeaders := 0
	for i := 0; i < n; i++ {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if got := execs.Load(); got != 1 || nLeaders != 1 {
		t.Fatalf("executions=%d leaders=%d, want exactly 1 of each", got, nLeaders)
	}
}

// TestDoSharesError: followers of a failing flight see the same error, and
// the next call after completion computes afresh.
func TestDoSharesError(t *testing.T) {
	var g Group[int, string]
	errBoom := errors.New("boom")
	release := make(chan struct{})
	ctx := context.Background()

	go g.Do(ctx, 7, func(context.Context) (string, error) {
		<-release
		return "", errBoom
	})
	awaitJoined(t, &g, 7, 1)
	done := make(chan error, 1)
	go func() {
		_, err, leader := g.Do(ctx, 7, func(context.Context) (string, error) { return "fresh", nil })
		if leader {
			done <- errors.New("follower became leader while flight in progress")
			return
		}
		done <- err
	}()
	awaitJoined(t, &g, 7, 2)
	close(release)
	if err := <-done; !errors.Is(err, errBoom) {
		t.Fatalf("follower error = %v, want %v", err, errBoom)
	}

	v, err, leader := g.Do(ctx, 7, func(context.Context) (string, error) { return "fresh", nil })
	if err != nil || v != "fresh" || !leader {
		t.Fatalf("post-failure call = (%q, %v, leader=%t), want fresh leader", v, err, leader)
	}
}

// TestDoDistinctKeysIndependent: different keys never block each other.
func TestDoDistinctKeysIndependent(t *testing.T) {
	var g Group[int, int]
	blockerIn := make(chan struct{})
	defer close(blockerIn)
	go g.Do(context.Background(), 1, func(context.Context) (int, error) { <-blockerIn; return 0, nil })

	v, err, leader := g.Do(context.Background(), 2, func(context.Context) (int, error) { return 9, nil })
	if v != 9 || err != nil || !leader {
		t.Fatalf("key 2 = (%d, %v, %t), want (9, nil, true)", v, err, leader)
	}
}

// TestDoPanicReleasesWaiters: a panic in fn reaches every waiter as a typed
// panic fault, and the key is free for the next call.
func TestDoPanicReleasesWaiters(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	ctx := context.Background()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err, _ := g.Do(ctx, "p", func(context.Context) (int, error) {
				<-release
				panic("leader died")
			})
			errs <- err
		}()
	}
	awaitJoined(t, &g, "p", 2)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, fault.ErrPanic) {
			t.Fatalf("waiter %d error = %v, want a panic fault", i, err)
		}
	}

	v, err, leader := g.Do(ctx, "p", func(context.Context) (int, error) { return 5, nil })
	if v != 5 || err != nil || !leader {
		t.Fatalf("post-panic call = (%d, %v, %t), want fresh leader", v, err, leader)
	}
}

// TestDoLastLeaverCancels: when every joined caller abandons the flight,
// its context is canceled and the key is free at once — a new caller leads
// a fresh execution even before the doomed one has unwound.
func TestDoLastLeaverCancels(t *testing.T) {
	var g Group[string, int]
	canceled := make(chan struct{})
	unwind := make(chan struct{})
	defer close(unwind)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, leader := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
		<-fctx.Done()
		close(canceled)
		<-unwind
		return 0, fault.Wrap(fault.KindTimeout, fctx.Err())
	})
	if !leader || !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("abandoned Do = (%v, leader=%t), want a timeout as leader", err, leader)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not canceled by the last leaver")
	}

	v, err, leader := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if v != 7 || err != nil || !leader {
		t.Fatalf("fresh Do = (%d, %v, leader=%t), want a fresh leader", v, err, leader)
	}
}

// TestDoSurvivesOneLeaver: a flight with two joined callers keeps running
// when only one of them leaves.
func TestDoSurvivesOneLeaver(t *testing.T) {
	var g Group[string, int]
	gate := make(chan struct{})
	fn := func(fctx context.Context) (int, error) {
		<-gate
		if fctx.Err() != nil {
			return 0, errors.New("flight was canceled while a caller was still joined")
		}
		return 9, nil
	}

	leaverCtx, leave := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(leaverCtx, "k", fn)
		left <- err
	}()
	awaitJoined(t, &g, "k", 1)
	stayed := make(chan int, 1)
	go func() {
		v, err, _ := g.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("surviving waiter: %v", err)
		}
		stayed <- v
	}()
	awaitJoined(t, &g, "k", 2)

	leave()
	if err := <-left; !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("first leaver = %v, want timeout", err)
	}
	close(gate)
	if v := <-stayed; v != 9 {
		t.Fatalf("surviving waiter got %d, want 9", v)
	}
}

// TestDoRetriesForeignTimeout: a follower whose flight died of a deadline
// that was not its own — the execution's, here — retries once under its own
// context and completes on a fresh flight it leads.
func TestDoRetriesForeignTimeout(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	ctx := context.Background()
	go g.Do(ctx, "k", func(context.Context) (int, error) {
		<-release
		return 0, fault.New(fault.KindTimeout, "leader deadline expired")
	})
	awaitJoined(t, &g, "k", 1)

	var retries atomic.Int64
	done := make(chan error, 1)
	go func() {
		v, err, leader := g.Do(ctx, "k", func(context.Context) (int, error) {
			retries.Add(1)
			return 3, nil
		})
		if err == nil && (v != 3 || !leader) {
			err = errors.New("retry did not lead a fresh flight")
		}
		done <- err
	}()
	awaitJoined(t, &g, "k", 2)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("follower: %v", err)
	}
	if n := retries.Load(); n != 1 {
		t.Fatalf("follower executed %d times, want 1", n)
	}
}
