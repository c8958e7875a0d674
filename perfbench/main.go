// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed number of seconds from a seed, checks the
// program's outputs, and prints one JSON result object as the last line of
// standard output:
//
//	perfbench -workload paper-cold -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured with no
// spans recorded. With -trace 1 the benchmark alternates traced and untraced
// operations, records a span around every call it makes into a layer of the
// program, writes the spans out, and reports per-layer self times and
// counters plus the tracing overhead (see METHOD.md beside this file).
//
// perfbench/run.sh builds this package from the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workloadFunc runs one workload at full size. It records set-up time,
// op samples and metrics on r.
type workloadFunc func(ctx context.Context, r *runner) error

var workloads = map[string]workloadFunc{
	"paper-cold":        runPaperCold,
	"compile-corpus":    runCompileCorpus,
	"svc-hot":           runSvcHot,
	"svc-cluster-mixed": runSvcCluster,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-cold, compile-corpus, svc-hot, svc-cluster-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for spans, scratch stores and determinism records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %v, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	// The process's own start-up counts toward setup_s; the benchmark's
	// self-check and build hash that follow do not.
	startS := time.Since(processStart).Seconds()
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_EXEC_NS"), 10, 64); err == nil {
		startS = time.Since(time.Unix(0, ns)).Seconds()
	}
	if err := selfCheck(); err != nil {
		fmt.Fprintln(stderr, "perfbench: self-check:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	build, err := buildID()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: identifying the build:", err)
		return 1
	}
	r := newRunner(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, stderr)
	defer r.cleanup()
	r.build = build
	r.startS = startS
	ctx := context.Background()
	if err := w(ctx, r); err != nil {
		r.failf("%s: %v", *name, err)
	}
	rep := r.finish(ctx)
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a failed run leaves a metric unmeasured.
			r.failf("metric %s was not measured", k)
			m.Value = 0
			rep.Metrics[k] = m
			rep.Correct = false
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every untraced run prints, in the
// order of BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"sim_edp_ratio", "ratio"},
	{"sim_time_ratio", "ratio"},
	{"sim_energy_ratio", "ratio"},
	{"access_task_ratio", "ratio"},
	{"access_size_ratio", "ratio"},
}

// nproc is the client and worker count: the host's usable CPUs.
func nproc() int { return runtime.GOMAXPROCS(0) }
