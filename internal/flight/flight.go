// Package flight provides in-process call deduplication (singleflight):
// concurrent callers asking for the same key share one execution of the
// underlying function instead of each computing it independently. It is the
// repository's only singleflight: the trace cache collapses concurrent
// misses on one run with it, and the daed server collapses concurrent
// identical requests on one pipeline execution.
//
// Unlike golang.org/x/sync/singleflight (not vendored here; the repo is
// dependency-free by policy), Group is generic over key and value types,
// reference-counts its waiters, and runs the shared function under a
// context of its own that dies only when the last waiter has left, so one
// impatient caller never aborts work another caller is still waiting for.
package flight

import (
	"context"
	"errors"
	"sync"

	"dae/internal/fault"
)

// call is one in-flight execution shared by every caller that joined it.
type call[V any] struct {
	cancel context.CancelFunc
	done   chan struct{}
	val    V
	err    error
	refs   int // waiters still joined; guarded by Group.mu
}

// Group deduplicates concurrent executions per key. The zero value is ready
// to use. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// Do returns the result of fn for key, running fn at most once for all the
// callers that ask for key while it is in flight. leader reports whether
// this caller started the execution; the others joined it.
//
// fn runs in its own goroutine under a context detached from every caller
// and canceled only when the last joined caller has left. A caller whose
// ctx dies leaves at once with a fault.KindTimeout error and cancels the
// execution only if nobody else is waiting; a canceled execution is
// unpublished at that moment, so no later caller can join it. A panic in fn
// reaches every waiter as a fault.KindPanic error. A follower whose flight
// failed with a timeout while its own ctx is alive retries once on a fresh
// flight: the deadline that killed the flight belonged to the execution, not
// to this caller. Completed results are never memoized; caching is the
// caller's concern.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, err error, leader bool) {
	v, err, leader = g.do(ctx, key, fn)
	if err != nil && !leader && errors.Is(err, fault.ErrTimeout) && ctx.Err() == nil {
		v, err, leader = g.do(ctx, key, fn)
	}
	return v, err, leader
}

// Waiters reports how many callers are joined to the flight for key now;
// 0 when none is in flight.
func (g *Group[K, V]) Waiters(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.m[key]; c != nil {
		return c.refs
	}
	return 0
}

// do joins the flight for key, starting one when none is running, and waits
// for it or for ctx.
func (g *Group[K, V]) do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error, bool) {
	g.mu.Lock()
	c, joined := g.m[key]
	if joined {
		c.refs++
	} else {
		if g.m == nil {
			g.m = make(map[K]*call[V])
		}
		fctx, cancel := context.WithCancel(context.Background())
		c = &call[V]{cancel: cancel, done: make(chan struct{}), refs: 1}
		g.m[key] = c
		go g.run(fctx, key, c, fn)
	}
	g.mu.Unlock()

	select {
	case <-c.done:
		g.leave(key, c)
		return c.val, c.err, !joined
	case <-ctx.Done():
		g.leave(key, c)
		var zero V
		return zero, fault.Wrap(fault.KindTimeout, ctx.Err()), !joined
	}
}

// run executes fn for c and publishes its result to every waiter.
func (g *Group[K, V]) run(ctx context.Context, key K, c *call[V], fn func(context.Context) (V, error)) {
	defer c.cancel()
	c.val, c.err = recovered(ctx, fn)
	g.mu.Lock()
	g.unpublish(key, c)
	g.mu.Unlock()
	close(c.done)
}

// recovered calls fn, converting a panic into a typed fault.
func recovered[V any](ctx context.Context, fn func(context.Context) (V, error)) (v V, err error) {
	defer fault.Recover(&err, "flight")
	return fn(ctx)
}

// leave drops one waiter; the last waiter of a still-running flight cancels
// and unpublishes it. The decision happens under the lock, so a concurrent
// caller either joins before it (and keeps the flight alive) or finds the
// key free and starts afresh.
func (g *Group[K, V]) leave(key K, c *call[V]) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c.refs--
	if c.refs > 0 {
		return
	}
	select {
	case <-c.done:
	default:
		c.cancel()
		g.unpublish(key, c)
	}
}

// unpublish removes c from the map unless a newer flight has replaced it.
// Callers hold g.mu.
func (g *Group[K, V]) unpublish(key K, c *call[V]) {
	if g.m[key] == c {
		delete(g.m, key)
	}
}
