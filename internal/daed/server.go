package daed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dae/internal/analysis"
	"dae/internal/bench"
	daepass "dae/internal/dae"
	"dae/internal/daed/ring"
	"dae/internal/daed/store"
	"dae/internal/eval"
	"dae/internal/fault"
	"dae/internal/fault/inject"
)

// Config configures a Server.
type Config struct {
	// Dir is the root of the persistent store. Traces live under Dir/traces
	// (the eval.TraceCache envelope format — a directory shared with
	// daebench/daerun -cache-dir warms both ways), rendered artifacts under
	// Dir/artifacts. Empty means memory-only.
	Dir string
	// Workers bounds concurrent pipeline executions; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds how many executions may wait for a worker slot
	// before admission control starts rejecting with 429; < 0 means 0
	// (reject as soon as every worker is busy), 0 means the default 64.
	QueueDepth int
	// RunWorkers bounds the per-request collection parallelism (the three
	// run kinds of one app); <= 0 means 1, keeping one admitted request ≈
	// one busy worker so queue capacity stays an honest model of load.
	RunWorkers int
	// DefaultTimeout bounds a request's wait when it names none; 0 means
	// 60s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested waits; 0 means 5m.
	MaxTimeout time.Duration
	// MaxRunTime bounds one pipeline execution regardless of waiters; 0
	// means 10m. It is the server's hard defense against a pathological
	// workload outliving every client.
	MaxRunTime time.Duration
	// MaxSteps, when positive, caps (and defaults) every request's
	// interpreter step budget: a request asking for more (or for no budget
	// at all) is clamped to this ceiling.
	MaxSteps int64
	// StoreMaxBytes, when positive, is the artifact store's disk budget:
	// past it, least-recently-used artifacts are evicted (keys with requests
	// in flight are pinned and never evicted).
	StoreMaxBytes int64
	// Self is this node's advertised base URL (e.g. http://127.0.0.1:8081)
	// — its identity on the cluster ring. Empty (or no Peers) means
	// standalone.
	Self string
	// Peers lists the other cluster members' advertised base URLs. Every
	// member must be configured with the same total membership (its own
	// Self plus its Peers) for the rings to agree.
	Peers []string
	// Replicas is the replication factor R: each content key lives on its
	// ring primary plus R-1 replicas. <= 0 means DefaultReplicas, clamped
	// to the membership size.
	Replicas int
	// RingSeed seeds the consistent-hash ring; 0 means DefaultRingSeed.
	// All members and clients must agree.
	RingSeed uint64
	// RepairInterval is the anti-entropy period: how often the background
	// repair loop walks the local store, pushes under-replicated envelopes
	// to their owners, and releases keys this node no longer owns. 0 means
	// 30s; negative disables the loop.
	RepairInterval time.Duration
	// WarmKeys bounds how many hot keys a joining node streams per prior
	// owner during warmup; <= 0 means 64.
	WarmKeys int
	// DrainTimeout bounds the drain protocol a membership removal triggers
	// in the background (an admin leave); 0 means 30s. SIGTERM drains are
	// bounded by the caller's context instead.
	DrainTimeout time.Duration
	// Log receives serving events; nil discards them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RunWorkers <= 0 {
		c.RunWorkers = 1
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxRunTime <= 0 {
		c.MaxRunTime = 10 * time.Minute
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 30 * time.Second
	}
	if c.WarmKeys <= 0 {
		c.WarmKeys = drainHandoffKeys
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the daed service: an http.Handler serving the compile/simulate
// pipeline behind a content-addressed artifact store, request singleflight,
// an admission-controlled job queue, and per-tenant quarantine.
type Server struct {
	cfg      Config
	traces   *eval.TraceCache
	store    *store.Store
	q        *queue
	tenants  tenantRegistry
	stats    stats
	mux      *http.ServeMux
	cluster  *cluster
	draining atomic.Bool
	repWG    sync.WaitGroup // in-flight write-behind replications

	stop         chan struct{}  // closed by Close: stops repair/gossip/warmup
	loopWG       sync.WaitGroup // background loops (repair, gossip, warmup, leave-drain)
	closed       atomic.Bool
	warming      atomic.Bool // join warmup still streaming envelopes
	readRepaired sync.Map    // (epoch, key) pairs already read-repaired
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	traceDir, artifactDir := "", ""
	if cfg.Dir != "" {
		traceDir = cfg.Dir + "/traces"
		artifactDir = cfg.Dir + "/artifacts"
	}
	s := &Server{
		cfg:     cfg,
		traces:  eval.NewTraceCache(traceDir),
		store:   store.Open(store.Config{Dir: artifactDir, MaxBytes: cfg.StoreMaxBytes}),
		cluster: newCluster(cfg),
	}
	s.q = newQueue(cfg.Workers, cfg.QueueDepth, &s.stats)
	s.stop = make(chan struct{})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", serve(s, s.simulateKind()))
	s.mux.HandleFunc("POST /v1/compile", serve(s, s.compileKind()))
	s.mux.HandleFunc("POST /v1/trace", serve(s, s.traceKind()))
	s.mux.HandleFunc("PUT /v1/artifact", s.handleArtifactPut)
	s.mux.HandleFunc("GET /v1/artifact", s.handleArtifactGet)
	s.mux.HandleFunc("HEAD /v1/artifact", s.handleArtifactHead)
	s.mux.HandleFunc("GET /v1/keys", s.handleKeys)
	s.mux.HandleFunc("POST /v1/members", s.handleMembers)
	s.mux.HandleFunc("GET /v1/ring", s.handleRing)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("DELETE /v1/quarantine", s.handleClearQuarantine)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.cluster != nil && cfg.RepairInterval > 0 {
		s.loopWG.Add(1)
		go s.repairLoop()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the background loops (repair, gossip, warmup) and waits for
// them plus in-flight write-behind replication. It does not drain — call
// Drain first for a graceful exit. Idempotent.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	s.loopWG.Wait()
	s.repWG.Wait()
}

// clusterView returns the membership view a request pins at entry (nil on a
// standalone server).
func (s *Server) clusterView() *ring.View {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.current()
}

// boundedCtx returns a context bounded by d that is also canceled when the
// server closes, so background loops never outlive Close.
func (s *Server) boundedCtx(d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	stopper := make(chan struct{})
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
		close(stopper)
	}()
	return ctx, func() { cancel(); <-stopper }
}

// Stats returns a point-in-time snapshot of the serving counters.
func (s *Server) Stats() StatsSnapshot {
	snap := s.stats.snapshot(s.tenants.tenants())
	snap.Store = s.store.Stats()
	snap.Draining = s.draining.Load()
	if c := s.cluster; c != nil {
		v := c.current()
		snap.Ring = &RingSnapshot{
			Epoch:     v.Epoch,
			Self:      c.self,
			Members:   v.Members(),
			Replicas:  c.replicasFor(v),
			Ownership: v.Fractions(),
			Warming:   s.warming.Load(),
		}
	}
	return snap
}

// tenantOf resolves the requesting tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// writeJSON renders one JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a pipeline failure to its HTTP shape and counts it: 429 +
// Retry-After for admission rejections (already counted by the queue), 504
// for deadline/cancellation (counted canceled), 500 with the fault taxonomy
// class otherwise (counted faults).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var sat *saturatedError
	switch {
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", strconv.Itoa(int((sat.retryAfter+time.Second-1)/time.Second)))
		s.writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: err.Error(), Class: "saturated", RetryAfterMs: sat.retryAfter.Milliseconds(),
		})
	case errors.Is(err, fault.ErrTimeout):
		s.stats.canceled.Add(1)
		if r.Context().Err() != nil {
			// The client is gone; nothing we write is deliverable. Let the
			// connection close.
			return
		}
		s.writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Class: fault.ClassOf(err)})
	default:
		s.stats.faults.Add(1)
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Class: fault.ClassOf(err)})
	}
}

// clampSteps applies the server's step-budget ceiling to a request budget.
func (s *Server) clampSteps(req int64) int64 {
	if s.cfg.MaxSteps > 0 && (req <= 0 || req > s.cfg.MaxSteps) {
		return s.cfg.MaxSteps
	}
	return req
}

// simulateKind is the POST /v1/simulate endpoint. A request carrying fault
// injection, or arriving from a tenant with quarantine history for the app,
// takes the isolated tenant-scoped route: it still shares the trace cache
// (healthy traces are injection-invariant and degraded traces are never
// cached, so the shared cache cannot be poisoned), but it never touches the
// shared store in either direction, and its quarantines are recorded against
// this tenant only.
func (s *Server) simulateKind() artifactKind[simArtifact] {
	return artifactKind[simArtifact]{
		path: "/v1/simulate",
		plan: func(r *http.Request) (*job[simArtifact], error) {
			var req SimulateRequest
			if err := decode(r, &req); err != nil {
				return nil, err
			}
			req.MaxSteps = s.clampSteps(req.MaxSteps)
			p, err := req.plan()
			if err != nil {
				return nil, err
			}
			tenant := tenantOf(r)
			prior := s.tenants.quarantined(tenant, p.app.Name)
			return &job[simArtifact]{
				key:       p.key,
				timeoutMs: req.TimeoutMs,
				req:       &req,
				isolated:  len(p.rules) > 0 || len(prior) > 0,
				run:       func(ctx context.Context) (simArtifact, error) { return s.runSimulate(ctx, p) },
				respond: func(art simArtifact, cacheHit, collapsed bool, elapsedMs float64) any {
					return s.simulateResponse(art, p.key, tenant, prior, cacheHit, collapsed, elapsedMs)
				},
			}, nil
		},
		storable: func(art simArtifact) bool { return len(art.Quarantined) == 0 },
	}
}

// simulateResponse builds one successful simulate response. The run's
// quarantines are recorded under the requesting tenant and merged with the
// tenant's prior history for the app.
func (s *Server) simulateResponse(art simArtifact, key, tenant string, prior map[string]string, cacheHit, collapsed bool, elapsedMs float64) *SimulateResponse {
	if len(art.Quarantined) > 0 {
		s.tenants.record(tenant, art.App, art.Quarantined)
	}
	merged := make(map[string]string, len(prior)+len(art.Quarantined))
	for k, v := range prior {
		merged[k] = v
	}
	for k, v := range art.Quarantined {
		merged[k] = v
	}
	resp := &SimulateResponse{
		App:         art.App,
		Report:      art.Report,
		Degraded:    len(merged) > 0,
		Quarantined: merged,
		CacheHit:    cacheHit,
		Collapsed:   collapsed,
		Key:         key,
		ElapsedMs:   elapsedMs,
	}
	if resp.Degraded {
		s.stats.degraded.Add(1)
	}
	return resp
}

// runSimulate executes the collect+evaluate pipeline for one plan.
func (s *Server) runSimulate(ctx context.Context, p *simPlan) (simArtifact, error) {
	opts := eval.CollectOptions{Workers: s.cfg.RunWorkers, Cache: s.traces}
	if p.refine {
		opts.Refine = &eval.RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
	}
	if len(p.rules) > 0 {
		// Injection must observe a real collection: a warm shared trace
		// cache would serve the healthy trace and the fault would never
		// fire. Injected requests collect uncached — and never write, so
		// their degraded traces cannot reach other tenants either.
		opts.Cache = nil
		in := inject.New(p.rules...)
		opts.Inject = in.Hook()
		opts.InjectPhase = in.PhaseFunc()
	}
	data, err := eval.CollectWith(ctx, p.app, p.cfg, opts)
	if err != nil {
		return simArtifact{}, err
	}
	art := simArtifact{App: p.app.Name, Report: eval.FormatRunReport(data, p.machine)}
	for _, row := range eval.DegradationRows([]*eval.AppData{data}) {
		for task, kind := range row.Quarantined {
			if art.Quarantined == nil {
				art.Quarantined = make(map[string]string)
			}
			art.Quarantined[task] = kind
		}
	}
	return art, nil
}

// compileKind is the POST /v1/compile endpoint. Compilation is
// deterministic, so every artifact enters the shared store.
func (s *Server) compileKind() artifactKind[compileArtifact] {
	return artifactKind[compileArtifact]{
		path: "/v1/compile",
		plan: func(r *http.Request) (*job[compileArtifact], error) {
			var req CompileRequest
			if err := decode(r, &req); err != nil {
				return nil, err
			}
			app, err := bench.AppByName(req.App)
			if err != nil {
				return nil, err
			}
			key := req.compileKey()
			return &job[compileArtifact]{
				key:       key,
				timeoutMs: req.TimeoutMs,
				req:       &req,
				run:       func(context.Context) (compileArtifact, error) { return runCompile(app, req.Refine) },
				respond: func(art compileArtifact, cacheHit, collapsed bool, elapsedMs float64) any {
					return &CompileResponse{
						App:        art.App,
						Strategies: art.Strategies,
						Purity:     art.Purity,
						Modules:    art.Modules,
						CacheHit:   cacheHit,
						Collapsed:  collapsed,
						Key:        key,
						ElapsedMs:  elapsedMs,
					}
				},
			}, nil
		},
		storable: func(compileArtifact) bool { return true },
	}
}

// runCompile builds one app and renders its static artifacts: the
// generation-decision report, per-task purity verdicts, and the generated
// access variants' IR listings.
func runCompile(app bench.App, refine bool) (compileArtifact, error) {
	b, err := app.Build(bench.Auto)
	if err != nil {
		return compileArtifact{}, err
	}
	if refine {
		if _, err := b.Refine(daepass.DefaultRefine(), 4); err != nil {
			return compileArtifact{}, err
		}
	}
	art := compileArtifact{
		App:        app.Name,
		Strategies: eval.FormatStrategies([]*eval.AppData{{Name: app.Name, Results: b.Results}}),
		Modules:    make(map[string]string),
	}
	names := make([]string, 0, len(b.Results))
	for n := range b.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res := b.Results[n]
		if res.Access == nil {
			art.Purity += fmt.Sprintf("task @%s: no access version (%s)\n", n, res.Reason)
			continue
		}
		diags := analysis.VerifyAccessPurity(res.Access)
		if analysis.HasErrors(diags) {
			art.Purity += fmt.Sprintf("task @%s: purity FAIL\n%s", n, analysis.Format(diags))
		} else {
			art.Purity += fmt.Sprintf("task @%s: purity PASS (strategy=%s)\n", n, res.Strategy)
		}
		art.Modules[n] = res.Access.String()
	}
	return art, nil
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// handleClearQuarantine serves DELETE /v1/quarantine: it lifts every
// quarantine recorded for the requesting tenant (an explicit admin action,
// mirroring how runtime quarantine is monotone within a trace). Quarantine
// is per-node process state, so on a cluster member the lift fans out to
// every peer — one DELETE unblocks the tenant cluster-wide.
func (s *Server) handleClearQuarantine(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	n := s.tenants.clear(tenant)
	n += s.clearQuarantinePeers(r, tenant)
	s.writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "cleared": n})
}
