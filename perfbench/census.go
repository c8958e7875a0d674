package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"dae/internal/bench"
)

// perLayer lists the per-layer metrics every traced run prints, in the
// order of BENCHMARK.json. METHOD.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []struct{ name, unit string }{
	{"taskc.parse_us", "us"},
	{"taskc.check_us", "us"},
	{"taskc.src_kb_per_s", "KB/s"},
	{"lower.lower_us", "us"},
	{"lower.ir_instrs", "count"},
	{"passes.optimize_us", "us"},
	{"passes.ir_instrs", "count"},
	{"passes.rewrites", "count"},
	{"dae.generate_us", "us"},
	{"dae.strategy.affine", "count"},
	{"dae.strategy.skeleton", "count"},
	{"dae.strategy.none", "count"},
	{"dae.access_instrs", "count"},
	{"dae.refine_ms", "ms"},
	{"analysis.purity_us", "us"},
	{"analysis.wcec_us", "us"},
	{"analysis.workload_bounds_ms", "ms"},
	{"bench.build_ms", "ms"},
	{"bench.verify_ms", "ms"},
	{"rt.run_ms", "ms"},
	{"interp.ops", "count"},
	{"interp.mops_per_s", "Mop/s"},
	{"mem.events", "count"},
	{"mem.mevents_per_s", "Mevent/s"},
	{"mem.exec_load_miss_ratio", "ratio"},
	{"rt.dvfs_transitions", "count"},
	{"rt.evaluate_us", "us"},
	{"eval.render_ms", "ms"},
	{"eval.collect_ms", "ms"},
	{"eval.pool_speedup", "ratio"},
	{"eval.wire_decode_us", "us"},
	{"daed.simulate_hit_us", "us"},
	{"daed.trace_hit_us", "us"},
	{"daed.proxied_us", "us"},
	{"daed.exec_ms", "ms"},
	{"daed.store_hit_ratio", "ratio"},
	{"daed.collapse_ratio", "ratio"},
	{"daed.proxied_ratio", "ratio"},
	{"daed.executions", "count"},
	{"daed.replicated_out", "count"},
	{"daed.rejected", "count"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.payload_kb", "KB"},
	{"client.retries", "count"},
	{"client.failovers", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// miniature is a workload at its smallest size, one app and a window of
// about a second.
type miniature struct {
	name   string
	window time.Duration
	run    func(ctx context.Context, r *runner) error
}

func miniatures() []miniature {
	cg, _ := bench.AppByName("CG")
	return []miniature{
		{"paper-cold", time.Second, func(ctx context.Context, r *runner) error {
			return paperColdWorkload(ctx, r, []bench.App{cg})
		}},
		{"compile-corpus", 500 * time.Millisecond, func(ctx context.Context, r *runner) error {
			return compileCorpusWorkload(ctx, r, 8, 8, []bench.App{cg})
		}},
		{"svc-hot", 500 * time.Millisecond, func(ctx context.Context, r *runner) error {
			return svcHotWorkload(ctx, r, []string{"CG"})
		}},
		{"svc-cluster-mixed", time.Second, func(ctx context.Context, r *runner) error {
			return svcClusterWorkload(ctx, r, []string{"CG"}, 1)
		}},
	}
}

// runCensus completes a traced run's per-layer metrics. Every traced run
// prints every per-layer metric, but each workload exercises only some
// layers; the rest are measured by the miniatures of the other workloads,
// run traced after the main window. A metric the workload measured itself
// is never replaced. A constant placeholder, as the end-to-end quality
// ratios print, will not do here: a time that reads the same in every run
// is refused, so every layer time must be measured.
func runCensus(ctx context.Context, r *runner, measured map[string]float64) {
	for _, mini := range miniatures() {
		if mini.name == r.name {
			continue
		}
		s := r.sub(mini.name, mini.window)
		if err := mini.run(ctx, s); err != nil {
			s.failf("%v", err)
		}
		s.cleanup()
		for _, msg := range s.checks {
			r.failf("census %s: %s", mini.name, msg)
		}
		if err := s.tr.write(filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d-census-%s.json", r.name, r.seed, mini.name))); err != nil {
			r.failf("writing census spans: %v", err)
		}
		for k, v := range s.layer {
			if _, ok := measured[k]; !ok {
				measured[k] = v
			}
		}
	}
}
