package daed

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dae/internal/fault"
	"dae/internal/flight"
)

// artifactKind is one artifact endpoint — simulate, compile or trace — as
// the shared serve path sees it. The kind decodes and plans a request into
// a job, and decides whether a fresh artifact may enter the shared store;
// serve does everything else.
type artifactKind[A any] struct {
	// path is the endpoint, also the target when proxying to an owner.
	path string
	// plan decodes and validates one request; its errors are client errors
	// (400, class parse).
	plan func(r *http.Request) (*job[A], error)
	// storable reports whether a freshly executed artifact may enter the
	// shared store and replicate.
	storable func(A) bool
}

// job is one planned artifact request.
type job[A any] struct {
	key       string
	timeoutMs int64
	// req is the decoded request, forwarded as is when proxying.
	req any
	// isolated routes the request around the shared store and the flights:
	// it executes on its own and its artifact is never stored.
	isolated bool
	// run executes the pipeline; serve wraps it in execute.
	run func(ctx context.Context) (A, error)
	// respond builds the response to one successful request.
	respond func(art A, cacheHit, collapsed bool, elapsedMs float64) any
}

// serve returns the handler of one artifact kind. A request is planned and
// pinned, then answered by the first of: the local store (read-repairing
// lagging co-owners), a 421 redirect for a stale epoch-aware client, a pull
// from a co-owner, a proxy to the owners of a key this node does not own,
// and finally one execution shared by every concurrent identical request.
func serve[A any](s *Server, k artifactKind[A]) http.HandlerFunc {
	var flights flight.Group[string, A]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.stats.requests.Add(1)
		if s.draining.Load() {
			s.rejectDraining(w)
			return
		}
		j, err := k.plan(r)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Class: "parse"})
			return
		}
		// Pin the key for the life of the request: budget eviction must never
		// race an in-flight execution (or a hit being re-read) on this key.
		s.store.Pin(j.key)
		defer s.store.Unpin(j.key)
		ctx, cancel := context.WithTimeout(r.Context(), s.waitFor(j.timeoutMs))
		defer cancel()
		reply := func(art A, cacheHit, collapsed bool) {
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			s.stats.observe(ms)
			s.writeJSON(w, http.StatusOK, j.respond(art, cacheHit, collapsed, ms))
		}

		if j.isolated {
			art, err := execute(s, ctx, j.key, j.run, nil)
			if err != nil {
				s.writeError(w, r, err)
				return
			}
			reply(art, false, false)
			return
		}
		hit := func(b []byte) bool {
			var art A
			if json.Unmarshal(b, &art) != nil {
				return false
			}
			s.stats.storeHits.Add(1)
			reply(art, true, false)
			return true
		}
		v := s.clusterView() // pin the membership epoch for this request
		if b, ok := s.store.Get(j.key); ok && hit(b) {
			s.maybeReadRepair(v, j.key, b)
			return
		}
		// A stale epoch-aware client is redirected to the current view (421)
		// instead of served off-placement.
		if s.notOwnerRedirect(w, r, v, j.key) {
			return
		}
		// An owner that misses the envelope pulls it from a co-owner before
		// paying a pipeline execution (read-repair, pull direction).
		if b, ok := s.pullFromReplicas(ctx, v, j.key); ok && hit(b) {
			return
		}
		// A miss on a key this node does not own goes to the owners first: they
		// likely hold the artifact, and executing there keeps placement honest.
		// If no owner can serve, fall through and execute locally.
		if v != nil && s.proxy(w, r.WithContext(ctx), v, k.path, j.key, j.req) {
			return
		}
		art, err, leader := flights.Do(ctx, j.key, func(ctx context.Context) (A, error) {
			return execute(s, ctx, j.key, j.run, k.storable)
		})
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		if !leader {
			s.stats.collapsed.Add(1)
		}
		reply(art, false, !leader)
	}
}

// execute runs one pipeline execution under the admission-controlled queue,
// counted and bounded by MaxRunTime, with a panic converted into a typed
// fault. An artifact that storable approves (nil approves none) enters the
// shared store and replicates to the key's co-owners.
func execute[A any](s *Server, ctx context.Context, key string, run func(context.Context) (A, error), storable func(A) bool) (art A, err error) {
	if err := s.q.acquire(ctx); err != nil {
		return art, err
	}
	defer s.q.release()
	s.stats.executions.Add(1)
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	defer fault.Recover(&err, "daed")
	ctx, cancel := context.WithTimeout(ctx, s.cfg.MaxRunTime)
	defer cancel()

	if art, err = run(ctx); err != nil || storable == nil || !storable(art) {
		return art, err
	}
	if b, err := json.Marshal(art); err == nil {
		if err := s.store.Put(key, b); err != nil {
			s.cfg.Log.Printf("daed: artifact store write failed for %s: %v", key, err)
		}
		s.replicate(key, b)
	}
	return art, nil
}

// decode reads one JSON request body into req.
func decode(r *http.Request, req any) error {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(req); err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	return nil
}

// waitFor resolves a request's timeout_ms against the server's default and
// ceiling.
func (s *Server) waitFor(timeoutMs int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout)
}
