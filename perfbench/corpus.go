package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dae/internal/analysis"
	"dae/internal/analysis/wcec"
	"dae/internal/bench"
	"dae/internal/dae"
	"dae/internal/fuzzgen"
	"dae/internal/interp"
	"dae/internal/ir"
	"dae/internal/lower"
	"dae/internal/passes"
	"dae/internal/rt"
	"dae/internal/taskc"
)

// corpusFuzz is the number of seeded fuzzgen tasks in the compile corpus.
// One pass over them takes about 4s on the reference host, so a window
// compiles the corpus several times and the per-seed median compile time
// is taken over enough programs to stay within a few percent across seeds.
const corpusFuzz = 800

// corpusRef is the number of reference fuzz tasks, fuzzgen seeds 0 to
// corpusRef-1, that every corpus holds whatever its seed. The
// generated-code ratios are taken over them and the apps, so they do not
// vary with the seed and any two runs can be compared on them.
const corpusRef = 400

// corpusPool bounds the fuzzgen seeds of the corpus: the seeded tasks are
// drawn from seeds corpusRef to corpusPool-1. The benchmark measures the
// compiler on programs it compiles correctly; fuzzing beyond the pool is
// the fuzz tests' work, and larger fuzzgen seeds reach known compiler
// defects (see METHOD.md) that would fail a run.
const corpusPool = 4096

// Fuzz hints and call arguments, as the fuzz tests use them.
var fuzzHints = map[string]int64{"n": fuzzgen.N, "p": 13, "q": -7}

// program is one corpus entry: a fuzz task source or a paper app.
type program struct {
	src   string     // fuzz source; empty for an app
	fseed int64      // the fuzzgen seed of src
	ref   bool       // a reference task, the same for every seed
	app   *bench.App // nil for a fuzz task
}

func (p program) name() string {
	if p.app != nil {
		return p.app.Name
	}
	return fmt.Sprintf("fuzz task of fuzzgen seed %d", p.fseed)
}

// compiled is the outcome of compiling one program.
type compiled struct {
	mod     *ir.Module
	results map[string]*dae.Result
	built   *bench.Built // apps only
}

// signature is what must repeat exactly every time a program is compiled.
type signature struct {
	tasks, withAccess int
	// accessInstrs and accessTaskInstrs count the IR instructions of the
	// access versions and of the optimized tasks they were generated for.
	accessInstrs, accessTaskInstrs int
	strategies                     [3]int
}

func (c *compiled) signature() signature {
	var s signature
	for _, res := range c.results {
		s.tasks++
		s.strategies[res.Strategy]++
		if res.Access != nil {
			s.withAccess++
			s.accessInstrs += res.Access.NumInstrs()
			s.accessTaskInstrs += res.Task.NumInstrs()
		}
	}
	return s
}

type corpus struct {
	progs []program
	mu    sync.Mutex
	first []*compiled // first compile of each program
	sigs  []signature
	done  int // programs compiled at least once
}

// newCorpus generates nRef reference fuzz tasks, nFuzz fuzz tasks drawn
// with the seed from the rest of the pool, and the given apps, and
// shuffles them with the seed.
func newCorpus(seed int64, nRef, nFuzz int, apps []bench.App) *corpus {
	c := &corpus{}
	for i := 0; i < nRef; i++ {
		c.progs = append(c.progs, program{src: fuzzgen.New(int64(i)).Task(), fseed: int64(i), ref: true})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(corpusPool - nRef)[:nFuzz] {
		fseed := int64(nRef + k)
		c.progs = append(c.progs, program{src: fuzzgen.New(fseed).Task(), fseed: fseed})
	}
	for i := range apps {
		c.progs = append(c.progs, program{app: &apps[i]})
	}
	rng.Shuffle(len(c.progs), func(i, j int) { c.progs[i], c.progs[j] = c.progs[j], c.progs[i] })
	c.first = make([]*compiled, len(c.progs))
	c.sigs = make([]signature, len(c.progs))
	return c
}

func fuzzOptions() dae.Options {
	opts := dae.Defaults()
	opts.ParamHints = fuzzHints
	return opts
}

// compile runs one program through the compiler. Untraced, it makes the
// same calls a user of the library makes (lower.Compile and
// dae.GenerateModule, or bench.App.Build); traced, it makes the calls
// those are built from, each in its own span.
func compileProgram(p program, sp *active) (*compiled, error) {
	if p.app != nil {
		b, err := call(sp, "bench.build", func(*active) (*bench.Built, error) { return p.app.Build(bench.Auto) })
		if err != nil {
			return nil, err
		}
		return &compiled{mod: b.W.Module, results: b.Results, built: b}, nil
	}
	if sp == nil {
		m, err := lower.Compile(p.src, "fuzz")
		if err != nil {
			return nil, err
		}
		res, err := dae.GenerateModule(m, fuzzOptions())
		if err != nil {
			return nil, err
		}
		return &compiled{mod: m, results: res}, nil
	}
	m, _, err := compileTraced(p.src, sp)
	if err != nil {
		return nil, err
	}
	res, err := generateTraced(m, sp)
	if err != nil {
		return nil, err
	}
	return &compiled{mod: m, results: res}, nil
}

// compileTraced is lower.Compile split into its layer calls. It also
// returns the lowered instruction count.
func compileTraced(src string, sp *active) (*ir.Module, int, error) {
	file, err := call(sp, "taskc.parse", func(*active) (*taskc.File, error) { return taskc.Parse(src) })
	if err != nil {
		return nil, 0, err
	}
	info, err := call(sp, "taskc.check", func(*active) (*taskc.Info, error) { return taskc.Check(file) })
	if err != nil {
		return nil, 0, err
	}
	m, err := call(sp, "lower.lower", func(*active) (*ir.Module, error) { return lower.File(file, info, "fuzz") })
	if err != nil {
		return nil, 0, err
	}
	return m, moduleInstrs(m), nil
}

// generateTraced is dae.GenerateModule split into its layer calls.
func generateTraced(m *ir.Module, sp *active) (map[string]*dae.Result, error) {
	if _, err := call(sp, "passes.optimize", func(*active) (passes.Stats, error) { return passes.OptimizeModule(m) }); err != nil {
		return nil, err
	}
	out := make(map[string]*dae.Result)
	for _, f := range m.Tasks() {
		res, err := call(sp, "dae.generate", func(*active) (*dae.Result, error) { return dae.Generate(f, fuzzOptions()) })
		if err != nil {
			return nil, err
		}
		out[f.Name] = res
		for _, a := range []*ir.Func{res.Access, res.AccessFull} {
			if a != nil {
				m.RemoveFunc(a.Name)
				m.AddFunc(a)
			}
		}
	}
	return out, nil
}

func moduleInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// record keeps a program's first compile and checks that every later
// compile of it, traced or not, produces the same code.
func (c *corpus) record(i int, out *compiled) error {
	sig := out.signature()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first[i] == nil {
		c.first[i], c.sigs[i] = out, sig
		c.done++
		return nil
	}
	if c.sigs[i] != sig {
		return fmt.Errorf("determinism: program %s compiled to %+v, earlier to %+v", c.progs[i].name(), sig, c.sigs[i])
	}
	return nil
}

func (c *corpus) complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done == len(c.progs)
}

func runCompileCorpus(ctx context.Context, r *runner) error {
	return compileCorpusWorkload(ctx, r, corpusRef, corpusFuzz, bench.Apps())
}

// compileCorpusWorkload compiles a seeded corpus closed-loop with one
// client, one program per op. The window is extended, if need be, until
// every program has been compiled once, because the output checks and the
// generated-code metrics cover every program.
func compileCorpusWorkload(ctx context.Context, r *runner, nRef, nFuzz int, apps []bench.App) error {
	r.tailPct = 99
	c, err := setup(r, func() (*corpus, error) { return newCorpus(r.seed, nRef, nFuzz, apps), nil }, func(*corpus) {})
	if err != nil {
		return err
	}
	r.drive(ctx, 1, func() bool { return !c.complete() }, func(ctx context.Context, _ int, seq int64, sp *active) (func() error, error) {
		i := int(seq % int64(len(c.progs)))
		out, err := compileProgram(c.progs[i], sp)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", c.progs[i].name(), err)
		}
		return func() error { return c.record(i, out) }, nil
	})
	if !c.complete() {
		return errors.New("the corpus was not compiled completely")
	}
	c.check(r)
	c.ratios(r)
	if r.tr != nil {
		c.layers(r)
	}
	return nil
}

// ratios reports the generated-code metrics over the reference tasks and
// the apps, the part of the corpus that does not depend on the seed: the
// share of tasks that received an access version, and the size of those
// access versions relative to their tasks. The strategy and access-size
// counters are taken over the whole corpus.
func (c *corpus) ratios(r *runner) {
	var tot, ref signature
	for i, s := range c.sigs {
		tot.accessInstrs += s.accessInstrs
		for k := range s.strategies {
			tot.strategies[k] += s.strategies[k]
		}
		if c.progs[i].ref || c.progs[i].app != nil {
			ref.tasks += s.tasks
			ref.withAccess += s.withAccess
			ref.accessInstrs += s.accessInstrs
			ref.accessTaskInstrs += s.accessTaskInstrs
		}
	}
	taskRatio := float64(ref.withAccess) / float64(ref.tasks)
	// Over the tasks that received an access version only: over all tasks
	// the ratio would mostly count how many of the rare fuzz tasks did,
	// which access_task_ratio already reports.
	sizeRatio := float64(ref.accessInstrs) / float64(ref.accessTaskInstrs)
	r.setE2E("access_task_ratio", taskRatio)
	r.setE2E("access_size_ratio", sizeRatio)
	r.setDet("access_task_ratio", taskRatio)
	r.setDet("access_size_ratio", sizeRatio)
	for k, name := range []string{"none", "affine", "skeleton"} {
		r.setDet("dae.strategy."+name, float64(tot.strategies[k]))
		r.setLayer("dae.strategy."+name, float64(tot.strategies[k]))
	}
	r.setLayer("dae.access_instrs", float64(tot.accessInstrs))
	r.setDet("dae.access_instrs", float64(tot.accessInstrs))
}

// check runs the output checks on every program's first compile, outside
// the timed window: every function verifies, every access version is pure
// by analysis and in fact (one interpreted call stores nothing and leaves
// memory unchanged), and every fuzz task computes the same result
// optimized as unoptimized.
func (c *corpus) check(r *runner) {
	for i, out := range c.first {
		name := c.progs[i].name()
		if err := out.mod.Verify(); err != nil {
			r.failf("%s: %v", name, err)
			continue
		}
		for task, res := range out.results {
			if res.Access == nil {
				continue
			}
			if ds := analysis.VerifyAccessPurity(res.Access); analysis.HasErrors(ds) {
				r.failf("%s: access version of %s is impure: %s", name, task, analysis.Format(ds))
			}
			if err := checkAccessRun(c.progs[i], out, task, res.Access); err != nil {
				r.failf("%s: access version of %s: %v", name, task, err)
			}
		}
		if c.progs[i].app == nil {
			if err := checkOptimizer(c.progs[i].src, c.progs[i].fseed); err != nil {
				r.failf("%s: %v", name, err)
			}
		}
	}
}

// checkSteps bounds every interpreted call of the output checks. The
// corpus's tasks and access versions run in well under a million steps; a
// call that exceeds the budget does not terminate (the fuzz generator
// guarantees its tasks do, and access versions must as well) and fails its
// check instead of hanging the benchmark.
const checkSteps = 50_000_000

// storeCounter counts the stores an interpreted call makes.
type storeCounter struct{ stores int }

func (s *storeCounter) Load(int64)     {}
func (s *storeCounter) Store(int64)    { s.stores++ }
func (s *storeCounter) Prefetch(int64) {}

// fuzzState is the memory a fuzz task can touch, filled from a seed.
type fuzzState struct {
	h       *interp.Heap
	a, b, i *interp.Seg
}

func newFuzzState(seed int64) *fuzzState {
	s := &fuzzState{h: interp.NewHeap()}
	s.a = s.h.AllocFloat("A", fuzzgen.N)
	s.b = s.h.AllocFloat("B", fuzzgen.N)
	s.i = s.h.AllocInt("I", fuzzgen.N)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < fuzzgen.N; k++ {
		s.a.F[k] = float64(rng.Intn(2000))/100 - 10
		s.b.F[k] = float64(rng.Intn(2000))/100 - 10
		s.i.I[k] = int64(rng.Intn(4096))
	}
	return s
}

func (s *fuzzState) args() []interp.Value {
	return []interp.Value{
		interp.Ptr(s.a), interp.Ptr(s.b), interp.Ptr(s.i),
		interp.Int(fuzzgen.N), interp.Int(fuzzHints["p"]), interp.Int(fuzzHints["q"]),
	}
}

// heapImage copies every non-stack segment's data.
func heapImage(h *interp.Heap) [][]uint64 {
	var img [][]uint64
	for _, s := range h.Segs() {
		if s.Stack {
			continue
		}
		words := make([]uint64, 0, len(s.F)+len(s.I))
		for _, f := range s.F {
			words = append(words, math.Float64bits(f))
		}
		for _, v := range s.I {
			words = append(words, uint64(v))
		}
		img = append(img, words)
	}
	return img
}

func sameImage(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkAccessRun interprets one call of an access version — on fuzz memory
// seeded with the task's fuzzgen seed, so a task is checked on the same
// memory in every corpus, or on an app's own heap with the first instance
// of the task — and requires zero stores and unchanged memory.
func checkAccessRun(p program, out *compiled, task string, access *ir.Func) error {
	var h *interp.Heap
	var args []interp.Value
	if p.app == nil {
		st := newFuzzState(p.fseed)
		h, args = st.h, st.args()
	} else {
		h = out.built.Heap
	found:
		for _, batch := range out.built.W.Batches {
			for _, t := range batch {
				if t.Name == task {
					args = t.Args
					break found
				}
			}
		}
		if args == nil {
			return nil // the app never instantiates this task
		}
	}
	before := heapImage(h)
	sc := &storeCounter{}
	env := interp.NewEnv(interp.NewProgram(out.mod), sc)
	env.SetMaxSteps(checkSteps)
	if _, err := env.Call(access, args...); err != nil {
		return fmt.Errorf("interpreted call: %w", err)
	}
	if sc.stores != 0 {
		return fmt.Errorf("made %d stores", sc.stores)
	}
	if !sameImage(before, heapImage(h)) {
		return errors.New("changed memory")
	}
	return nil
}

// checkOptimizer compiles the fuzz task twice, optimizes one copy, runs
// both on identical memory and requires bit-identical final memory.
func checkOptimizer(src string, seed int64) error {
	runOnce := func(optimize bool) ([][]uint64, error) {
		m, err := lower.Compile(src, "fuzz")
		if err != nil {
			return nil, err
		}
		f := m.Func("fuzz")
		if optimize {
			if _, err := passes.Optimize(f); err != nil {
				return nil, err
			}
		}
		st := newFuzzState(seed)
		env := interp.NewEnv(interp.NewProgram(m), nil)
		env.SetMaxSteps(checkSteps)
		if _, err := env.Call(f, st.args()...); err != nil {
			return nil, err
		}
		return heapImage(st.h), nil
	}
	ref, err := runOnce(false)
	if err != nil {
		return fmt.Errorf("unoptimized run: %w", err)
	}
	opt, err := runOnce(true)
	if err != nil {
		return fmt.Errorf("optimized run: %w", err)
	}
	if !sameImage(ref, opt) {
		return errors.New("optimization changed the task's result")
	}
	return nil
}

// layers reports the compile layers of a traced run. After the window it
// makes one more traced pass over the corpus, which counts instructions
// and rewrites for every fuzz task and times the static analyses the
// compile path does not call (purity proof, WCEC bound). Times are medians
// over every traced call, in the window's traced ops and in this pass.
func (c *corpus) layers(r *runner) {
	probe := r.tr.root("compile-corpus.probe")
	var lowered, optimized, rewrites, fuzz, srcBytes float64
	model := wcec.NewCostModel(rt.DefaultMachine().CPU)
	for i, p := range c.progs {
		for _, res := range c.first[i].results {
			if res.Access != nil {
				_, _ = call(probe, "analysis.purity", func(*active) ([]analysis.Diagnostic, error) {
					return analysis.VerifyAccessPurity(res.Access), nil
				})
			}
		}
		if p.app != nil {
			continue
		}
		m, n, err := compileTraced(p.src, probe)
		if err != nil {
			r.failf("%s: %v", p.name(), err)
			continue
		}
		st, err := passes.OptimizeModule(m)
		if err != nil {
			r.failf("%s: %v", p.name(), err)
			continue
		}
		fuzz++
		srcBytes += float64(len(p.src))
		lowered += float64(n)
		optimized += float64(moduleInstrs(m))
		rewrites += float64(st.Inlined + st.Promoted + st.Folded + st.CSEed + st.Hoisted + st.DCEed + st.CFGChanges)
		for _, res := range c.first[i].results {
			f := res.Task
			_, _ = call(probe, "analysis.wcec", func(*active) (*wcec.Bound, error) {
				return wcec.New(model).BoundFunc(f, fuzzHints), nil
			})
		}
	}
	probe.end()
	for _, d := range []struct {
		name string
		v    float64
	}{{"lower.ir_instrs", lowered / fuzz}, {"passes.ir_instrs", optimized / fuzz}, {"passes.rewrites", rewrites / fuzz}} {
		r.setLayer(d.name, d.v)
		r.setDet(d.name, d.v)
	}
	st := byName(r.tr.snapshot())
	us := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.medianSelf() * 1e6
		}
		return math.NaN()
	}
	for _, name := range []string{"taskc.parse", "taskc.check", "lower.lower", "passes.optimize", "dae.generate", "analysis.purity", "analysis.wcec"} {
		r.setLayer(name+"_us", us(name))
	}
	if s := st["bench.build"]; s != nil {
		r.setLayer("bench.build_ms", s.medianSelf()*1e3)
	}
	// Front-end throughput over the probe pass, which parses and checks
	// every fuzz source once.
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	frontEnd := 0.0
	for _, s := range spans {
		if s.Op == probe.op && (s.Name == "taskc.parse" || s.Name == "taskc.check") {
			frontEnd += self[s.ID].Seconds()
		}
	}
	r.setLayer("taskc.src_kb_per_s", srcBytes/1024/frontEnd)
}
