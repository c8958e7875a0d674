package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run performs its workload's set-up at least setupReps times, and a
// cheap set-up is repeated until the set-ups have taken setupMinTotal
// together, at most setupMaxReps times, so that its median is not one
// noisy fraction of a second. setup_s adds the median to the process's
// start-up time; only the last instance is measured.
const (
	setupReps     = 3
	setupMaxReps  = 15
	setupMinTotal = time.Second
)

// processStart is taken while the main package initialises. run.sh passes
// the time it started the process in PERFBENCH_EXEC_NS, which also covers
// loading the binary and initialising the other packages.
var processStart = time.Now()

// runner carries one workload run: its configuration, the tracer (nil when
// untraced), the op samples of the measured window, and the metrics and
// check failures the workload reports.
type runner struct {
	name   string
	seed   int64
	window time.Duration
	out    string
	log    io.Writer
	tr     *tracer

	// tailPct is the workload's tail percentile (see tailPercentile).
	tailPct float64
	// detKey names the determinism record; runs of one build with the same
	// key must report identical deterministic values.
	detKey string
	// build identifies the running binary; determinism records of other
	// builds are never compared.
	build string

	startS    float64   // process start to the first set-up, s
	setupS    []float64 // every set-up, s
	plain     []float64 // untraced op latencies, ms
	traced    []float64 // traced op latencies, ms
	attempted atomic.Int64
	wall      time.Duration
	cpu       time.Duration

	mu       sync.Mutex
	checks   []string
	e2e      map[string]float64 // workload-specific end-to-end values
	layer    map[string]float64 // per-layer metrics (traced runs)
	det      map[string]float64 // deterministic values checked for drift
	tmpDirs  []string
	cleanups []func()
	census   bool // a miniature run feeding a traced run's layer metrics
}

func newRunner(name string, seed int64, window time.Duration, traced bool, out string, log io.Writer) *runner {
	r := &runner{
		name: name, seed: seed, window: window, out: out, log: log,
		detKey: fmt.Sprintf("%s-seed%d", name, seed),
		e2e:    map[string]float64{}, layer: map[string]float64{}, det: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// sub returns a miniature runner sharing r's output directory and
// tracing mode; the census uses it to measure layers r's workload does not
// exercise.
func (r *runner) sub(name string, window time.Duration) *runner {
	s := newRunner(name, r.seed, window, r.tr != nil, r.out, r.log)
	s.census = true
	return s
}

// failf records a failed output check; any failure makes the run incorrect.
func (r *runner) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.checks) < 20 {
		fmt.Fprintln(r.log, "perfbench: check failed:", msg)
	}
	r.checks = append(r.checks, msg)
}

func (r *runner) setE2E(name string, v float64) {
	r.mu.Lock()
	r.e2e[name] = v
	r.mu.Unlock()
}

func (r *runner) setLayer(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

// setDet records a deterministic value; it must repeat exactly within the
// run (every call with one name), across runs with the same detKey, and
// between traced and untraced runs.
func (r *runner) setDet(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.det[name]; ok && old != v && !(math.IsNaN(old) && math.IsNaN(v)) {
		r.mu.Unlock()
		r.failf("determinism: %s drifted within the run: %v then %v", name, old, v)
		r.mu.Lock()
		return
	}
	r.det[name] = v
}

// scratchDir returns a fresh directory under the run's output directory;
// cleanup removes it.
func (r *runner) scratchDir(prefix string) (string, error) {
	base := filepath.Join(r.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.tmpDirs = append(r.tmpDirs, d)
	r.mu.Unlock()
	return d, nil
}

func (r *runner) onCleanup(f func()) {
	r.mu.Lock()
	r.cleanups = append(r.cleanups, f)
	r.mu.Unlock()
}

// cleanup stops everything the run started and removes its scratch
// directories.
func (r *runner) cleanup() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
	r.cleanups = nil
	for _, d := range r.tmpDirs {
		os.RemoveAll(d)
	}
	r.tmpDirs = nil
}

// setup performs the workload's set-up, setupReps times or more (once in a
// census run, which reports no set-up time), and returns the last instance;
// every earlier instance is closed.
func setup[T any](r *runner, newInst func() (T, error), closeFn func(T)) (T, error) {
	var total time.Duration
	for i := 1; ; i++ {
		t0 := time.Now()
		v, err := newInst()
		d := time.Since(t0)
		r.setupS = append(r.setupS, d.Seconds())
		total += d
		if err != nil || r.census || i >= setupMaxReps || (i >= setupReps && total >= setupMinTotal) {
			return v, err
		}
		closeFn(v)
	}
}

// opFunc performs one op for client c. root is the op's span (nil when
// the op is untraced). The op's latency is the time opFunc takes; the
// check it returns, if any, verifies the op's output outside that time.
type opFunc func(ctx context.Context, c int, seq int64, root *active) (check func() error, err error)

// drive runs clients closed-loop until the window has elapsed and, when
// more is non-nil, until more reports false. In a traced run every second
// op of each client is traced, so traced and untraced latencies interleave
// under the same conditions and their difference is the tracing overhead.
func (r *runner) drive(ctx context.Context, clients int, more func() bool, op opFunc) {
	start := time.Now()
	deadline := start.Add(r.window)
	cpu0 := cpuTime()
	plain := make([][]float64, clients)
	traced := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := int64(0); ; seq++ {
				if !time.Now().Before(deadline) && (more == nil || !more()) {
					return
				}
				var root *active
				if r.tr != nil && seq%2 == 1 {
					root = r.tr.root(r.name + ".op")
				}
				t0 := time.Now()
				check, err := op(ctx, c, seq, root)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				root.end()
				r.attempted.Add(1)
				if err == nil && check != nil {
					err = check()
				}
				if err != nil {
					r.failf("op %d of client %d: %v", seq, c, err)
					continue
				}
				if root != nil {
					traced[c] = append(traced[c], ms)
				} else {
					plain[c] = append(plain[c], ms)
				}
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	for c := range plain {
		r.plain = append(r.plain, plain[c]...)
		r.traced = append(r.traced, traced[c]...)
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// finish assembles the result line: end-to-end metrics for an untraced run,
// per-layer metrics (topped up by the census) for a traced one. It also
// writes the spans and checks the determinism record.
func (r *runner) finish(ctx context.Context) result {
	res := result{Metrics: map[string]metric{}}
	if r.tr == nil {
		r.endToEndMetrics(res.Metrics)
	} else {
		r.layerMetrics(ctx, res.Metrics)
	}
	r.checkDeterminism()
	res.Attempted, res.Failed = r.accounting()
	res.Correct = len(r.checks) == 0
	return res
}

// accounting returns the attempted and failed op counts. Every failed op
// records a check failure, and a failed output check counts as a failed
// op too — work whose result was wrong — so failed is the number of
// failures, capped at the ops attempted.
func (r *runner) accounting() (attempted, failed int64) {
	attempted = r.attempted.Load()
	if attempted < 1 {
		attempted = 1
		if len(r.checks) == 0 {
			r.failf("no op completed")
		}
	}
	failed = int64(len(r.checks))
	if failed > attempted {
		failed = attempted
	}
	return attempted, failed
}

func (r *runner) endToEndMetrics(m map[string]metric) {
	ops, failed := r.accounting()
	n := float64(ops)
	base := map[string]float64{
		"setup_s":          r.startS + median(r.setupS),
		"throughput_ops_s": float64(ops) / r.wall.Seconds(),
		"latency_p50_ms":   percentile(r.plain, 50),
		"latency_tail_ms":  r.tailLatency(r.plain),
		"cpu_ms_per_op":    float64(r.cpu) / float64(time.Millisecond) / n,
		"ok_ratio":         float64(ops-failed) / n,
		"peak_rss_mb":      peakRSSMB(),
	}
	for k, v := range r.e2e {
		base[k] = v
	}
	for _, e := range endToEnd {
		v, ok := base[e.name]
		if !ok {
			// A quality ratio the workload does not produce (simulated
			// EDP on a compile-only workload, say) is printed as the
			// neutral ratio 1 so every run carries every metric name.
			v = 1
		}
		m[e.name] = metric{Value: v, Unit: e.unit}
	}
	fmt.Fprintf(r.log, "perfbench: %s seed %d: %d ops (%d failed) in %.2fs, tail is p%g of %d samples, start-up %.4fs, set-ups %.4v s\n",
		r.name, r.seed, ops, failed, r.wall.Seconds(), tailPercentile(r.tailPct, len(r.plain)), len(r.plain), r.startS, r.setupS)
}

// tailPercentile returns the percentile latency_tail_ms reports for n
// samples: the highest rung of the 99.9 → 99 → 90 ladder, at most want,
// with at least ten samples beyond it; 100 (the slowest op) when even p90
// has fewer than ten beyond.
func tailPercentile(want float64, n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact in binary
			return p
		}
	}
	return 100
}

func (r *runner) tailLatency(xs []float64) float64 {
	return percentile(xs, tailPercentile(r.tailPct, len(xs)))
}

// layerMetrics computes the traced run's per-layer metrics: the workload's
// own, the span-derived self times, the tracing overhead, and — for every
// layer the workload does not exercise — the census's.
func (r *runner) layerMetrics(ctx context.Context, m map[string]metric) {
	pt, pp := percentile(r.traced, 50), percentile(r.plain, 50)
	r.setLayer("trace.overhead_pct", 100*(pt-pp)/pp)
	r.setLayer("trace.spans", float64(r.tr.len()))
	if err := r.tr.write(filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.json", r.name, r.seed))); err != nil {
		r.failf("writing spans: %v", err)
	}
	if r.census {
		return
	}
	measured := map[string]float64{}
	for k, v := range r.layer {
		measured[k] = v
	}
	runCensus(ctx, r, measured)
	for _, l := range perLayer {
		v, ok := measured[l.name]
		if !ok {
			r.failf("per-layer metric %s was not measured", l.name)
		}
		m[l.name] = metric{Value: v, Unit: l.unit}
	}
}

// detRecord is the on-disk determinism record of one build and detKey.
type detRecord map[string]float64

// buildID is the SHA-256 of the running binary. It keys the determinism
// records, so a change that moves a deterministic value on purpose is
// never compared with the records its parent left in the same directory.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDeterminism compares this run's deterministic values with the record
// left by earlier runs of the same build with the same key (traced or not)
// and extends it.
func (r *runner) checkDeterminism() {
	if r.census || len(r.det) == 0 {
		return
	}
	path := filepath.Join(r.out, "determinism", r.build, r.detKey+".json")
	rec := detRecord{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rec); err != nil {
			r.failf("determinism record %s is unreadable: %v", path, err)
			return
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		r.failf("determinism record: %v", err)
		return
	}
	keys := make([]string, 0, len(r.det))
	for k := range r.det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := r.det[k]
		if old, ok := rec[k]; ok && old != v {
			r.failf("determinism: %s is %v, an earlier run with %s recorded %v", k, v, r.detKey, old)
			continue
		}
		rec[k] = v
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		r.failf("determinism record: %v", err)
	}
}
