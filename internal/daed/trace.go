package daed

import (
	"context"
	"net/http"

	daepass "dae/internal/dae"
	"dae/internal/eval"
)

// TraceRequest asks the server for one app's full collected trace set (the
// coupled, manual-DAE and compiler-DAE traces plus compiler result
// summaries). It is the bulk-data sibling of SimulateRequest: instead of a
// rendered report, the client gets the traces themselves and evaluates any
// number of policies locally — this is how a remote daebench reproduces
// every experiment from one round-trip per app.
type TraceRequest struct {
	App string `json:"app"`
	// Cores is the simulated core count; 0 means the default 4.
	Cores int `json:"cores,omitempty"`
	// Refine applies profile-guided prefetch pruning before tracing.
	Refine bool `json:"refine,omitempty"`
	// MaxSteps, Degrade and Engine are as in SimulateRequest.
	MaxSteps int64  `json:"max_steps,omitempty"`
	Degrade  string `json:"degrade,omitempty"`
	Engine   string `json:"engine,omitempty"`
	// TimeoutMs bounds the wait (QoS, not content).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// TraceResponse is the wire response of POST /v1/trace.
type TraceResponse struct {
	Data *eval.AppDataWire `json:"data"`
	// Degraded marks a trace set collected through a degraded pipeline
	// (runtime quarantines fired). Degraded sets are never stored.
	Degraded  bool    `json:"degraded,omitempty"`
	CacheHit  bool    `json:"cache_hit"`
	Collapsed bool    `json:"collapsed"`
	Key       string  `json:"key"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// traceArtifact is the stored part of a trace response.
type traceArtifact struct {
	Data     *eval.AppDataWire `json:"data"`
	Degraded bool              `json:"degraded,omitempty"`
}

// traceKeyPrefix namespaces trace artifacts. v2 carries binary-encoded
// traces; an artifact written under v1 (inline JSON traces) is never read.
const traceKeyPrefix = "trace/v2;"

// plan projects the trace request onto the simulate planner — same
// validation, same defaults — then rekeys the plan under the trace/
// namespace (traces are frequency-independent, so ZeroLatency never
// appears here).
func (req *TraceRequest) plan() (*simPlan, error) {
	sr := SimulateRequest{
		App: req.App, Cores: req.Cores, Refine: req.Refine,
		MaxSteps: req.MaxSteps, Degrade: req.Degrade, Engine: req.Engine,
	}
	p, err := sr.plan()
	if err != nil {
		return nil, err
	}
	p.key = traceKeyPrefix + p.key
	return p, nil
}

// Key returns the request's content key (see SimulateRequest.Key).
func (req *TraceRequest) Key() (string, error) {
	p, err := req.plan()
	if err != nil {
		return "", err
	}
	return p.key, nil
}

// traceKind is the POST /v1/trace endpoint. Trace requests carry no
// injection and no tenant route. Clean trace sets enter the shared store and
// replicate; degraded sets (transient runtime faults) are returned but never
// stored, mirroring the trace cache's own rule.
func (s *Server) traceKind() artifactKind[traceArtifact] {
	return artifactKind[traceArtifact]{
		path: "/v1/trace",
		plan: func(r *http.Request) (*job[traceArtifact], error) {
			var req TraceRequest
			if err := decode(r, &req); err != nil {
				return nil, err
			}
			req.MaxSteps = s.clampSteps(req.MaxSteps)
			p, err := req.plan()
			if err != nil {
				return nil, err
			}
			return &job[traceArtifact]{
				key:       p.key,
				timeoutMs: req.TimeoutMs,
				req:       &req,
				run:       func(ctx context.Context) (traceArtifact, error) { return s.runTrace(ctx, p) },
				respond: func(art traceArtifact, cacheHit, collapsed bool, elapsedMs float64) any {
					if art.Degraded {
						s.stats.degraded.Add(1)
					}
					return &TraceResponse{
						Data:      art.Data,
						Degraded:  art.Degraded,
						CacheHit:  cacheHit,
						Collapsed: collapsed,
						Key:       p.key,
						ElapsedMs: elapsedMs,
					}
				},
			}, nil
		},
		storable: func(art traceArtifact) bool { return !art.Degraded },
	}
}

// runTrace collects one app's trace set and encodes it for the wire.
func (s *Server) runTrace(ctx context.Context, p *simPlan) (traceArtifact, error) {
	opts := eval.CollectOptions{Workers: s.cfg.RunWorkers, Cache: s.traces}
	if p.refine {
		opts.Refine = &eval.RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
	}
	data, err := eval.CollectWith(ctx, p.app, p.cfg, opts)
	if err != nil {
		return traceArtifact{}, err
	}
	wire, err := eval.EncodeAppData(data)
	if err != nil {
		return traceArtifact{}, err
	}
	art := traceArtifact{Data: wire}
	for _, row := range eval.DegradationRows([]*eval.AppData{data}) {
		if len(row.Quarantined) > 0 || row.FailedTasks > 0 {
			art.Degraded = true
		}
	}
	return art, nil
}
