package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dae/internal/fault"
	"dae/internal/fault/inject"

	"dae/internal/bench"
	"dae/internal/rt"
)

// TestTraceCacheDiskRoundtrip: a cache directory written by one cache
// instance serves a fresh instance (a later process) without re-simulation,
// reproducing identical traces and the Table 1 / strategy summaries.
func TestTraceCacheDiskRoundtrip(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()

	first, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("cache dir holds %d entries, want 3 (one per run)", len(entries))
	}

	// A fresh cache over the same directory simulates a new process.
	second, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.CAE, second.CAE) ||
		!reflect.DeepEqual(first.Manual, second.Manual) ||
		!reflect.DeepEqual(first.Auto, second.Auto) {
		t.Error("disk-loaded traces differ from the originals")
	}
	if len(second.Results) != len(first.Results) {
		t.Fatalf("disk-loaded results have %d tasks, want %d", len(second.Results), len(first.Results))
	}
	for name, r := range first.Results {
		lr := second.Results[name]
		if lr == nil {
			t.Fatalf("missing loaded result for %s", name)
		}
		if lr.Strategy != r.Strategy || lr.AffineLoops != r.AffineLoops ||
			lr.TotalLoops != r.TotalLoops || lr.Classes != r.Classes ||
			lr.MergedNests != r.MergedNests || lr.NConvUn != r.NConvUn ||
			lr.NOrig != r.NOrig || lr.Reason != r.Reason {
			t.Errorf("%s: loaded summary differs from original", name)
		}
	}

	// The loaded data must feed the downstream evaluation identically.
	m := rt.DefaultMachine()
	a := Fig3([]*AppData{first}, m)
	b := Fig3([]*AppData{second}, m)
	if !reflect.DeepEqual(a, b) {
		t.Error("Fig3 rows differ between fresh and disk-loaded data")
	}
	if FormatStrategies([]*AppData{first}) != FormatStrategies([]*AppData{second}) {
		t.Error("strategy report differs between fresh and disk-loaded data")
	}
}

// TestTraceCacheFreshEntryLoads: every entry a collection just wrote must
// load back with a valid checksum. Guards against checksumming a different
// byte form than the one stored — that bug silently degrades every warm run
// to a full re-simulation, which no output-equality test can catch.
func TestTraceCacheFreshEntryLoads(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	if _, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)}); err != nil {
		t.Fatal(err)
	}
	tc := NewTraceCache(dir) // fresh instance: memory empty, disk only
	for _, kind := range []runKind{runCAE, runManual, runAuto} {
		key := runKey("LibQ", kind, cfg, nil)
		out, err := tc.load(key)
		if err != nil {
			t.Errorf("load(%s) failed on a just-written entry: %v", kind, err)
		} else if out == nil {
			t.Errorf("load(%s) missed a just-written entry", kind)
		}
	}
}

// TestTraceCacheCorruptEntry: unreadable cache files degrade to a miss and
// are overwritten, never an error.
func TestTraceCacheCorruptEntry(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	if _, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(dir+"/"+e.Name(), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)}); err != nil {
		t.Fatalf("corrupt cache entries must be treated as misses, got: %v", err)
	}
}

// TestRunKeyDistinguishesConfigs: the content key must change whenever a
// field that influences the trace changes.
func TestRunKeyDistinguishesConfigs(t *testing.T) {
	base := rt.DefaultTraceConfig()
	keys := map[string]string{}
	add := func(label, key string) {
		for prev, pk := range keys {
			if pk == key {
				t.Errorf("key collision between %q and %q: %s", prev, label, key)
			}
		}
		keys[label] = key
	}
	add("base", runKey("LU", runAuto, base, nil))
	add("other-app", runKey("FFT", runAuto, base, nil))
	add("other-kind", runKey("LU", runCAE, base, nil))
	c := base
	c.Cores = 8
	add("cores", runKey("LU", runAuto, c, nil))
	c = base
	c.Hierarchy.L1.SizeBytes *= 2
	add("l1", runKey("LU", runAuto, c, nil))
	c = base
	c.Place = rt.PlaceLeastLoaded
	add("place", runKey("LU", runAuto, c, nil))
	r := &RefineSpec{PerTask: 4}
	add("refined", runKey("LU", runAuto, base, r))
	r2 := &RefineSpec{PerTask: 8}
	add("refined-8", runKey("LU", runAuto, base, r2))

	// Refinement must NOT influence the coupled/manual keys: those runs are
	// identical with and without it, which is what the refined experiment's
	// cache reuse relies on.
	if runKey("LU", runCAE, base, r) != runKey("LU", runCAE, base, nil) {
		t.Error("refine options must not key the coupled run")
	}
	if runKey("LU", runManual, base, r) != runKey("LU", runManual, base, nil) {
		t.Error("refine options must not key the manual run")
	}
}

// TestTraceCacheChecksumMismatch: an envelope whose content no longer
// matches its recorded checksum — valid JSON, silently rotted payload — is
// classified fault.ErrCacheCorrupt by load and degraded to a cache miss;
// the recollection reproduces the original traces exactly.
func TestTraceCacheChecksumMismatch(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	first, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}

	// Replace each entry's checksum with a wrong-but-well-formed value, so
	// the JSON still parses and only the content validation can catch it.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]any
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatal(err)
		}
		env["sum"] = strings.Repeat("ab", 32)
		keys = append(keys, env["key"].(string))
		nb, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nb, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// load must classify the damage as cache corruption...
	tc := NewTraceCache(dir)
	for _, key := range keys {
		if _, err := tc.load(key); !errors.Is(err, fault.ErrCacheCorrupt) {
			t.Errorf("load(%q) = %v, want ErrCacheCorrupt", key, err)
		}
	}

	// ...and the collection path must treat it as a miss and re-simulate to
	// identical traces.
	second, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatalf("checksum mismatch must degrade to a miss, got: %v", err)
	}
	if !reflect.DeepEqual(first.Auto, second.Auto) || !reflect.DeepEqual(first.CAE, second.CAE) {
		t.Error("recollected traces differ from the originals")
	}
}

// TestTraceCachePreBinaryEnvelopeIsCleanMiss: an entry written before the
// binary trace format (cache version 4, the trace inline as JSON, a valid
// checksum) is a stale entry, not a corrupt one: load reports a plain miss,
// and the collection recomputes and overwrites it in the current format.
func TestTraceCachePreBinaryEnvelopeIsCleanMiss(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	first, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	type preBinaryEnvelope struct {
		Version int                      `json:"version"`
		Key     string                   `json:"key"`
		Sum     string                   `json:"sum"`
		Trace   json.RawMessage          `json:"trace"`
		Results map[string]ResultSummary `json:"results,omitempty"`
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatal(err)
		}
		tr, err := rt.DecodeTrace(env.Trace)
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := rt.SaveTrace(&js, tr); err != nil {
			t.Fatal(err)
		}
		old := preBinaryEnvelope{Version: 4, Key: env.Key, Trace: bytes.TrimSpace(js.Bytes()), Results: env.Results}
		if old.Sum, err = contentSum(old.Trace, old.Results); err != nil {
			t.Fatal(err)
		}
		nb, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nb, 0o644); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, env.Key)
	}
	if len(keys) != 3 {
		t.Fatalf("rewrote %d entries, want 3", len(keys))
	}
	tc := NewTraceCache(dir)
	for _, key := range keys {
		if out, err := tc.load(key); out != nil || err != nil {
			t.Errorf("load(%q) = (%v, %v), want a clean miss", key, out, err)
		}
	}
	second, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: tc})
	if err != nil {
		t.Fatalf("pre-binary entries must be treated as misses, got: %v", err)
	}
	if !reflect.DeepEqual(first.Auto, second.Auto) || !reflect.DeepEqual(first.CAE, second.CAE) {
		t.Error("recollected traces differ from the originals")
	}
	fresh := NewTraceCache(dir)
	for _, key := range keys {
		if out, err := fresh.load(key); out == nil || err != nil {
			t.Errorf("load(%q) after recollection = (%v, %v), want the rewritten entry", key, out, err)
		}
	}
}

// TestTraceCacheTruncatedEntry: a torn write (file cut mid-envelope) is
// also a clean miss, via the injection harness's corruption helper.
func TestTraceCacheTruncatedEntry(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	first, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	n, err := inject.CorruptCacheDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("corrupted %d entries, want 3", n)
	}
	second, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatalf("truncated cache entries must be treated as misses, got: %v", err)
	}
	if !reflect.DeepEqual(first.Auto, second.Auto) {
		t.Error("recollected traces differ from the originals")
	}
}

// smallOutput builds a minimal but valid cache entry for write-path tests.
func smallOutput(t *testing.T) *runOutput {
	t.Helper()
	return &runOutput{Trace: &rt.Trace{Workload: "write-test", Cores: 1}}
}

// TestTraceCacheWriteRetry: a transient failure of the first disk-save
// attempt is retried, and the retried write lands on disk (a fresh cache
// instance — a later process — gets a hit).
func TestTraceCacheWriteRetry(t *testing.T) {
	dir := t.TempDir()
	tc := NewTraceCache(dir)
	failed := 0
	tc.saveFault = func(attempt int) error {
		if attempt == 0 {
			failed++
			return errors.New("transient write failure")
		}
		return nil
	}
	tc.put("retry-key", smallOutput(t))
	if failed != 1 {
		t.Fatalf("first save attempt consulted %d times, want 1", failed)
	}
	if _, ok := NewTraceCache(dir).get("retry-key"); !ok {
		t.Fatal("retried write did not persist the entry")
	}
}

// TestTraceCacheWriteFailureDegradesToMemory: when every save attempt
// fails, the entry stays usable in memory and nothing lands on disk — the
// cache degrades instead of failing the collection.
func TestTraceCacheWriteFailureDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	tc := NewTraceCache(dir)
	attempts := 0
	tc.saveFault = func(int) error {
		attempts++
		return errors.New("disk gone")
	}
	tc.put("doomed-key", smallOutput(t))
	if attempts != saveAttempts {
		t.Fatalf("save tried %d times, want %d", attempts, saveAttempts)
	}
	if _, ok := tc.get("doomed-key"); !ok {
		t.Error("entry lost from memory after disk-save failure")
	}
	if _, ok := NewTraceCache(dir).get("doomed-key"); ok {
		t.Error("failed write left a disk entry")
	}
}

// TestTraceCachePutRace: two goroutines racing put on the same key must not
// corrupt the entry (write-then-rename keeps each write atomic). Run under
// -race in tier 1.
func TestTraceCachePutRace(t *testing.T) {
	dir := t.TempDir()
	tc := NewTraceCache(dir)
	out := smallOutput(t)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc.put("raced-key", out)
		}()
	}
	wg.Wait()
	fresh := NewTraceCache(dir)
	got, ok := fresh.get("raced-key")
	if !ok {
		t.Fatal("racing puts lost the entry")
	}
	if got.Trace == nil || got.Trace.Workload != "write-test" {
		t.Fatalf("racing puts corrupted the entry: %+v", got)
	}
}
