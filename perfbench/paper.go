package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"dae/internal/analysis/wcec"
	"dae/internal/bench"
	"dae/internal/dae"
	"dae/internal/dvfs"
	"dae/internal/eval"
	"dae/internal/mem"
	"dae/internal/rt"
)

// evaluation is the product of one paper evaluation: the plain and the
// profile-refined trace sets and the rendering of every experiment.
type evaluation struct {
	plain, refined []*eval.AppData
	report         string
	collect        time.Duration // wall time of both collections
}

// paperConfig is daebench's default trace configuration.
func paperConfig() rt.TraceConfig {
	cfg := rt.DefaultTraceConfig()
	cfg.Degrade = rt.DegradeAccess
	return cfg
}

func refineSpec() *eval.RefineSpec {
	return &eval.RefineSpec{Options: dae.DefaultRefine(), PerTask: 4}
}

// evaluate does the work of `daebench -exp all` without a persistent cache:
// the plain collection and the refined one share one in-process trace
// cache, then every experiment renders, with nproc workers throughout.
// Traced, the collections are made from their layer calls instead (see
// collectTraced) so each build, trace run and verification is a span.
func evaluate(ctx context.Context, apps []bench.App, sp *active) (*evaluation, error) {
	ev := &evaluation{}
	t0 := time.Now()
	var err error
	if sp == nil {
		opts := eval.CollectOptions{Workers: nproc(), Cache: eval.NewTraceCache("")}
		all := len(apps) == len(bench.Apps())
		collect := func(o eval.CollectOptions) ([]*eval.AppData, error) {
			if all {
				return eval.CollectAllWith(ctx, paperConfig(), o)
			}
			var out []*eval.AppData
			for _, a := range apps {
				d, err := eval.CollectWith(ctx, a, paperConfig(), o)
				if err != nil {
					return nil, err
				}
				out = append(out, d)
			}
			return out, nil
		}
		if ev.plain, err = collect(opts); err != nil {
			return nil, err
		}
		opts.Refine = refineSpec()
		if ev.refined, err = collect(opts); err != nil {
			return nil, err
		}
	} else {
		if ev.plain, ev.refined, err = collectTraced(ctx, apps, sp); err != nil {
			return nil, err
		}
	}
	ev.collect = time.Since(t0)
	rs := sp.child("eval.render")
	ev.report = render(ev.plain, ev.refined)
	rs.end()
	for _, set := range [][]*eval.AppData{ev.plain, ev.refined} {
		if rows := eval.DegradationRows(set); len(rows) > 0 {
			return nil, fmt.Errorf("collection completed degraded: %s", eval.FormatDegradation(rows))
		}
	}
	return ev, nil
}

// runJob is one (app, kind) trace collection of collectTraced.
type runJob struct {
	app     bench.App
	variant bench.Variant
	decoupl bool
	refine  bool
}

// collectTraced is eval.CollectAllWith, plain then refined over a shared
// cache, rebuilt from the calls it makes: per (app, kind) a build, for the
// refined compiler-DAE run a refinement, a trace run and the output
// verification, fanned out over nproc workers. The refined collection
// re-runs only the compiler-DAE traces, as the shared cache does.
func collectTraced(ctx context.Context, apps []bench.App, sp *active) (plain, refined []*eval.AppData, err error) {
	var jobs []runJob
	for _, a := range apps {
		jobs = append(jobs,
			runJob{app: a, variant: bench.Auto},
			runJob{app: a, variant: bench.Manual, decoupl: true},
			runJob{app: a, variant: bench.Auto, decoupl: true})
	}
	plainCol := sp.child("eval.collect")
	out, results, err := runJobs(ctx, jobs, plainCol)
	plainCol.end()
	if err != nil {
		return nil, nil, err
	}
	var refJobs []runJob
	for _, a := range apps {
		refJobs = append(refJobs, runJob{app: a, variant: bench.Auto, decoupl: true, refine: true})
	}
	refCol := sp.child("eval.collect")
	refOut, _, err := runJobs(ctx, refJobs, refCol)
	refCol.end()
	if err != nil {
		return nil, nil, err
	}
	for i, a := range apps {
		plain = append(plain, &eval.AppData{Name: a.Name, CAE: out[3*i], Manual: out[3*i+1], Auto: out[3*i+2], Results: results[3*i]})
		refined = append(refined, &eval.AppData{Name: a.Name, CAE: out[3*i], Manual: out[3*i+1], Auto: refOut[i], Results: results[3*i]})
	}
	return plain, refined, nil
}

func runJobs(ctx context.Context, jobs []runJob, parent *active) ([]*rt.Trace, []map[string]*dae.Result, error) {
	traces := make([]*rt.Trace, len(jobs))
	results := make([]map[string]*dae.Result, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(nproc(), len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				traces[i], results[i], errs[i] = runOne(ctx, jobs[i], parent)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return traces, results, errors.Join(errs...)
}

func runOne(ctx context.Context, j runJob, parent *active) (*rt.Trace, map[string]*dae.Result, error) {
	sp := parent.child("eval.run")
	defer sp.end()
	b, err := call(sp, "bench.build", func(*active) (*bench.Built, error) { return j.app.Build(j.variant) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", j.app.Name, err)
	}
	if j.refine {
		spec := refineSpec()
		if _, err := call(sp, "dae.refine", func(*active) (int, error) { return b.Refine(spec.Options, spec.PerTask) }); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", j.app.Name, err)
		}
	}
	cfg := paperConfig()
	cfg.Decoupled = j.decoupl
	tr, err := call(sp, "rt.run", func(*active) (*rt.Trace, error) { return rt.RunContext(ctx, b.W, cfg) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", j.app.Name, err)
	}
	if _, err := call(sp, "bench.verify", func(*active) (struct{}, error) { return struct{}{}, b.Verify() }); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", j.app.Name, err)
	}
	return tr, b.Results, nil
}

// render produces daebench's `-exp all` output for the two trace sets,
// rendering the experiments concurrently and concatenating them in order.
func render(data, refined []*eval.AppData) string {
	m := rt.DefaultMachine()
	fig3 := func(w io.Writer, set []*eval.AppData, mach rt.Machine, metrics []string, label string) {
		rows := eval.Fig3(set, mach)
		for _, metric := range metrics {
			fmt.Fprint(w, eval.FormatFig3(rows, metric), "\n")
		}
		fmt.Fprint(w, eval.FormatHeadline(eval.ComputeHeadline(rows), label), "\n")
	}
	exps := []func(w io.Writer){
		func(w io.Writer) { fmt.Fprint(w, eval.FormatTable1(eval.Table1(data, m)), "\n") },
		func(w io.Writer) { fig3(w, data, m, []string{"Time", "Energy", "EDP"}, "headline (500ns transitions)") },
		func(w io.Writer) {
			for _, d := range data {
				switch d.Name {
				case "Cholesky", "FFT", "LibQ":
					fmt.Fprint(w, eval.FormatFig4(eval.Fig4(d, m)), "\n")
				}
			}
		},
		func(w io.Writer) {
			ideal := m
			ideal.DVFS = dvfs.Ideal()
			fig3(w, data, ideal, []string{"EDP"}, "headline (zero-latency transitions)")
		},
		func(w io.Writer) { fig3(w, refined, m, []string{"EDP"}, "headline (refined, 500ns)") },
		func(w io.Writer) { fmt.Fprint(w, eval.FormatStrategies(data)) },
	}
	bufs := make([]bytes.Buffer, len(exps))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(nproc(), len(exps)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				exps[i](&bufs[i])
			}
		}()
	}
	for i := range exps {
		next <- i
	}
	close(next)
	wg.Wait()
	var out bytes.Buffer
	for i := range bufs {
		out.Write(bufs[i].Bytes())
	}
	return out.String()
}

// workCounts sums the simulated work of every trace of an evaluation: the
// interpreted ops and the simulated memory events.
func workCounts(ev *evaluation) (ops, events int64) {
	add := func(tr *rt.Trace) {
		for _, rec := range tr.Records {
			for _, w := range []struct {
				c int64
				m mem.Stats
			}{{rec.AccessWork.Counts.Total(), rec.AccessWork.Mem}, {rec.ExecWork.Counts.Total(), rec.ExecWork.Mem}} {
				ops += w.c
				for k := range w.m.At {
					events += w.m.Total(mem.AccessKind(k))
				}
			}
		}
	}
	for i, d := range ev.plain {
		add(d.CAE)
		add(d.Manual)
		add(d.Auto)
		add(ev.refined[i].Auto)
	}
	return ops, events
}

// simQuality records the deterministic outputs of an evaluation: the Fig. 3
// G.Mean of Compiler DAE (Optimal f.) over CAE at fmax, and the simulated
// counters behind it.
func simQuality(r *runner, ev *evaluation) {
	rows := eval.Fig3(ev.plain, rt.DefaultMachine())
	gm := rows[len(rows)-1]
	for name, v := range map[string]float64{
		"sim_edp_ratio":    gm.EDP[eval.AutoOptimal],
		"sim_time_ratio":   gm.Time[eval.AutoOptimal],
		"sim_energy_ratio": gm.Energy[eval.AutoOptimal],
	} {
		r.setE2E(name, v)
		r.setDet(name, v)
	}
	ops, events := workCounts(ev)
	r.setDet("interp.ops", float64(ops))
	r.setDet("mem.events", float64(events))
	var loads, beyond int64
	transitions := 0
	m := rt.DefaultMachine()
	for _, d := range ev.plain {
		for _, rec := range d.Auto.Records {
			loads += rec.ExecWork.Mem.Total(mem.Load)
			beyond += rec.ExecWork.Mem.MissesBeyond(mem.Load, mem.L3)
		}
		transitions += rt.Evaluate(d.Auto, m, rt.PolicyOptimalEDP).Transitions
	}
	r.setDet("mem.exec_load_miss_ratio", float64(beyond)/float64(loads))
	r.setDet("rt.dvfs_transitions", float64(transitions))
	if r.tr != nil {
		r.setLayer("interp.ops", float64(ops))
		r.setLayer("mem.events", float64(events))
		r.setLayer("mem.exec_load_miss_ratio", float64(beyond)/float64(loads))
		r.setLayer("rt.dvfs_transitions", float64(transitions))
	}
}

func runPaperCold(ctx context.Context, r *runner) error {
	// daebench runs with this GC pace (its trace buffers live to the end
	// of the process anyway); the workload measures the same process.
	debug.SetGCPercent(400)
	return paperColdWorkload(ctx, r, bench.Apps())
}

// paperColdWorkload runs full evaluations back to back with one client.
// The set-up is one untraced evaluation: it warms the process and its
// report is the reference every later evaluation must match byte for byte.
func paperColdWorkload(ctx context.Context, r *runner, apps []bench.App) error {
	r.tailPct = 99
	r.detKey = fmt.Sprintf("paper-cold-%d-apps", len(apps)) // the inputs do not depend on the seed
	ref, err := setup(r, func() (*evaluation, error) { return evaluate(ctx, apps, nil) }, func(*evaluation) {})
	if err != nil {
		return err
	}
	simQuality(r, ref)
	var mu sync.Mutex
	var collects []float64
	var lastTraced *evaluation
	r.drive(ctx, 1, nil, func(ctx context.Context, _ int, _ int64, sp *active) (func() error, error) {
		ev, err := evaluate(ctx, apps, sp)
		if err != nil {
			return nil, err
		}
		traced := sp != nil
		return func() error {
			if ev.report != ref.report {
				return errors.New("the rendered evaluation differs from the reference evaluation")
			}
			simQuality(r, ev)
			mu.Lock()
			defer mu.Unlock()
			if traced {
				lastTraced = ev
			} else {
				collects = append(collects, float64(ev.collect)/float64(time.Millisecond))
			}
			return nil
		}, nil
	})
	if r.tr != nil && lastTraced != nil {
		paperLayers(r, apps, lastTraced, median(collects))
	}
	return nil
}

// paperLayers reports the evaluation layers of a traced run: self times of
// the traced evaluations' spans, simulator rates, the pool speed-up, and
// probes of the calls the evaluation makes inside rendering (rt.Evaluate,
// rt.WorkloadBounds), timed after the window on the last traced
// evaluation.
func paperLayers(r *runner, apps []bench.App, ev *evaluation, collectMs float64) {
	probe := r.tr.root("paper-cold.probe")
	m := rt.DefaultMachine()
	for _, d := range ev.plain {
		for _, tr := range []*rt.Trace{d.CAE, d.Manual, d.Auto} {
			for _, pol := range []rt.FreqPolicy{rt.PolicyFixed, rt.PolicyMinMax, rt.PolicyOptimalEDP} {
				_, _ = call(probe, "rt.evaluate", func(*active) (rt.Metrics, error) { return rt.Evaluate(tr, m, pol), nil })
			}
		}
	}
	model := wcec.NewCostModel(m.CPU)
	for _, a := range apps {
		b, err := a.Build(bench.Auto)
		if err != nil {
			r.failf("%s: %v", a.Name, err)
			continue
		}
		_, _ = call(probe, "analysis.workload_bounds", func(*active) (*rt.BoundSet, error) {
			return rt.WorkloadBounds(b.W, wcec.New(model)), nil
		})
	}
	probe.end()

	spans := r.tr.snapshot()
	st := byName(spans)
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		r.failf("no %s spans were recorded", name)
		return &spanStats{}
	}
	r.setLayer("bench.build_ms", get("bench.build").medianSelf()*1e3)
	r.setLayer("bench.verify_ms", get("bench.verify").medianSelf()*1e3)
	r.setLayer("rt.run_ms", get("rt.run").medianSelf()*1e3)
	r.setLayer("dae.refine_ms", get("dae.refine").medianSelf()*1e3)
	r.setLayer("eval.render_ms", get("eval.render").medianSelf()*1e3)
	r.setLayer("rt.evaluate_us", get("rt.evaluate").medianSelf()*1e6)
	r.setLayer("analysis.workload_bounds_ms", get("analysis.workload_bounds").medianSelf()*1e3)
	r.setLayer("eval.collect_ms", collectMs)

	// Per traced evaluation: the summed wall time of its (app, kind) runs
	// and the self time of its trace runs.
	runWall := map[int64]float64{}
	runSelf := map[int64]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "eval.run":
			runWall[s.Op] += s.dur().Seconds()
		case "rt.run":
			runSelf[s.Op] += self[s.ID].Seconds()
		}
	}
	var walls, selfs []float64
	for op, w := range runWall {
		walls = append(walls, w)
		selfs = append(selfs, runSelf[op])
	}
	r.setLayer("eval.pool_speedup", median(walls)*1e3/collectMs)
	var strategies [3]int
	accessInstrs := 0
	for _, d := range ev.plain {
		for _, res := range d.Results {
			strategies[res.Strategy]++
			if res.Access != nil {
				accessInstrs += res.Access.NumInstrs()
			}
		}
	}
	for k, name := range []string{"none", "affine", "skeleton"} {
		r.setLayer("dae.strategy."+name, float64(strategies[k]))
		r.setDet("dae.strategy."+name, float64(strategies[k]))
	}
	r.setLayer("dae.access_instrs", float64(accessInstrs))
	r.setDet("dae.access_instrs", float64(accessInstrs))
	ops, events := workCounts(ev)
	r.setLayer("interp.mops_per_s", float64(ops)/median(selfs)/1e6)
	r.setLayer("mem.mevents_per_s", float64(events)/median(selfs)/1e6)
}
