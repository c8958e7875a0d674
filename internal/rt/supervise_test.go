package rt

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"dae/internal/fault"
)

// faultNthAccess returns a PhaseHook that faults the nth access-phase entry
// (0-based) with the given error, leaving every other phase untouched.
func faultNthAccess(n int, err error) func(string, bool) error {
	calls := 0
	return func(task string, access bool) error {
		if !access {
			return nil
		}
		calls++
		if calls-1 == n {
			return err
		}
		return nil
	}
}

// TestSupervisorQuarantinesAccessFault: an access-phase trap under
// DegradeAccess quarantines the task type, the faulted task and every later
// instance run coupled, the collection completes, and the answer is right.
func TestSupervisorQuarantinesAccessFault(t *testing.T) {
	w, h := buildStream(t, 4096, 256) // 16 instances of one task type
	cfg := DefaultTraceConfig()
	cfg.Degrade = DegradeAccess
	cfg.PhaseHook = faultNthAccess(3, fault.NewTrap(fault.TrapOutOfBounds, "triad_access", "", "injected"))
	tr, err := RunContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if len(tr.Records) != 16 {
		t.Fatalf("records = %d, want 16", len(tr.Records))
	}
	if got := tr.Quarantined["triad"]; got != "trap" {
		t.Errorf("Quarantined[triad] = %q, want \"trap\"", got)
	}
	if !tr.Degraded() {
		t.Error("trace does not report itself degraded")
	}
	for i, rec := range tr.Records {
		healthy := i < 3
		if healthy && (!rec.HasAccess || rec.Degraded || rec.FaultKind != "") {
			t.Errorf("record %d should be healthy: %+v", i, rec)
		}
		if !healthy && (rec.HasAccess || !rec.Degraded || rec.FaultKind != "trap") {
			t.Errorf("record %d should be degraded coupled: %+v", i, rec)
		}
		if rec.Failed {
			t.Errorf("record %d marked failed by an access fault", i)
		}
	}
	// The degraded tasks still computed: every element is right.
	a := h.Segs()[0]
	for i := 0; i < 4096; i++ {
		want := float64(i) + 2.5*float64(2*i)
		if math.Abs(a.F[i]-want) > 1e-9 {
			t.Fatalf("A[%d] = %g, want %g (coupled replay missing?)", i, a.F[i], want)
		}
	}
}

// TestSupervisorRecoversAccessPanic: a crashing access phase degrades the
// same way a clean fault does — the run completes with the right answer.
func TestSupervisorRecoversAccessPanic(t *testing.T) {
	w, h := buildStream(t, 2048, 256)
	cfg := DefaultTraceConfig()
	cfg.Degrade = DegradeAccess
	calls := 0
	cfg.PhaseHook = func(task string, access bool) error {
		if access {
			calls++
			if calls == 1 {
				panic("injected access crash")
			}
		}
		return nil
	}
	tr, err := RunContext(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if got := tr.Quarantined["triad"]; got != "panic" {
		t.Errorf("Quarantined[triad] = %q, want \"panic\"", got)
	}
	a := h.Segs()[0]
	for i := 0; i < 2048; i += 101 {
		want := float64(i) + 2.5*float64(2*i)
		if math.Abs(a.F[i]-want) > 1e-9 {
			t.Fatalf("A[%d] = %g, want %g", i, a.F[i], want)
		}
	}
}

// TestDegradeOffAbortsOnAccessFault: without supervision the first access
// fault still aborts the whole trace (the legacy contract).
func TestDegradeOffAbortsOnAccessFault(t *testing.T) {
	w, _ := buildStream(t, 1024, 256)
	cfg := DefaultTraceConfig()
	cfg.PhaseHook = faultNthAccess(0, fault.NewTrap(fault.TrapNilDeref, "triad_access", "", "injected"))
	tr, err := RunContext(context.Background(), w, cfg)
	if err == nil || !errors.Is(err, fault.ErrTrap) {
		t.Fatalf("DegradeOff swallowed the fault: tr=%v err=%v", tr, err)
	}
}

// TestExecuteFaultNeverSilentlyDegraded: the supervisor replays only
// store-free access phases. An injected execute-phase trap must surface as a
// run failure under DegradeOff and DegradeAccess, and even DegradeFull must
// return the fault alongside the completed trace.
func TestExecuteFaultNeverSilentlyDegraded(t *testing.T) {
	inject := func() func(string, bool) error {
		calls := 0
		return func(task string, access bool) error {
			if !access {
				calls++
				if calls == 2 {
					return fault.NewTrap(fault.TrapDivByZero, "triad", "", "injected exec fault")
				}
			}
			return nil
		}
	}
	for _, mode := range []DegradeMode{DegradeOff, DegradeAccess} {
		w, _ := buildStream(t, 1024, 256)
		cfg := DefaultTraceConfig()
		cfg.Degrade = mode
		cfg.PhaseHook = inject()
		_, err := RunContext(context.Background(), w, cfg)
		if !errors.Is(err, fault.ErrTrap) {
			t.Errorf("%v: execute fault not surfaced: %v", mode, err)
		}
	}

	// DegradeFull: the batch completes, exactly one task is marked failed,
	// and the fault is still returned — containment, not masking.
	w, _ := buildStream(t, 1024, 256)
	cfg := DefaultTraceConfig()
	cfg.Degrade = DegradeFull
	cfg.PhaseHook = inject()
	tr, err := RunContext(context.Background(), w, cfg)
	if !errors.Is(err, fault.ErrTrap) {
		t.Fatalf("DegradeFull masked the execute fault: %v", err)
	}
	if tr == nil {
		t.Fatal("DegradeFull did not return the completed trace")
	}
	if len(tr.Records) != 4 {
		t.Fatalf("batch did not complete: %d records, want 4", len(tr.Records))
	}
	failed := 0
	for i, rec := range tr.Records {
		if rec.Failed {
			failed++
			if rec.FaultKind != "trap" {
				t.Errorf("record %d FaultKind = %q, want \"trap\"", i, rec.FaultKind)
			}
		}
	}
	if failed != 1 {
		t.Errorf("failed records = %d, want exactly 1", failed)
	}
	if !tr.Degraded() {
		t.Error("trace with a failed task does not report itself degraded")
	}
}

// TestSupervisionIdleOnHealthyRun: turning the supervisor on must not change
// a fault-free trace — records stay identical to an unsupervised run.
func TestSupervisionIdleOnHealthyRun(t *testing.T) {
	w1, _ := buildStream(t, 2048, 256)
	plain, err := Run(w1, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := buildStream(t, 2048, 256)
	cfg := DefaultTraceConfig()
	cfg.Degrade = DegradeFull
	supervised, err := RunContext(context.Background(), w2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Records) != len(supervised.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(plain.Records), len(supervised.Records))
	}
	for i := range plain.Records {
		if plain.Records[i] != supervised.Records[i] {
			t.Fatalf("record %d differs under supervision:\n%+v\n%+v",
				i, plain.Records[i], supervised.Records[i])
		}
	}
	if len(supervised.Quarantined) != 0 {
		t.Errorf("healthy run grew a quarantine set: %v", supervised.Quarantined)
	}
}

// TestEvaluateDegradedPinnedAtFixedFreq: degraded records forfeit the DVFS
// benefit — under any policy they are charged at Machine.FixedFreq, so a
// fully-degraded trace evaluated with PolicyMinMax matches the same coupled
// work under PolicyFixed.
func TestEvaluateDegradedPinnedAtFixedFreq(t *testing.T) {
	w, _ := buildStream(t, 2048, 256)
	cfg := DefaultTraceConfig()
	cfg.Decoupled = false
	coupled, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	baseline := Evaluate(coupled, m, PolicyFixed)

	degraded := *coupled
	degraded.Records = append([]TaskRecord(nil), coupled.Records...)
	for i := range degraded.Records {
		degraded.Records[i].Degraded = true
		degraded.Records[i].FaultKind = "trap"
	}
	for _, pol := range []FreqPolicy{PolicyMinMax, PolicyOptimalEDP, PolicyOnline} {
		got := Evaluate(&degraded, m, pol)
		if math.Abs(got.Time-baseline.Time) > 1e-12 || math.Abs(got.Energy-baseline.Energy) > 1e-12 {
			t.Errorf("policy %v not pinned: T=%g vs %g, E=%g vs %g",
				pol, got.Time, baseline.Time, got.Energy, baseline.Energy)
		}
		if got.DegradedTasks != len(degraded.Records) {
			t.Errorf("policy %v DegradedTasks = %d, want %d", pol, got.DegradedTasks, len(degraded.Records))
		}
	}

	// A failed record contributes nothing at all.
	failed := *coupled
	failed.Records = append([]TaskRecord(nil), coupled.Records...)
	failed.Records[0].Failed = true
	got := Evaluate(&failed, m, PolicyFixed)
	if got.FailedTasks != 1 {
		t.Errorf("FailedTasks = %d, want 1", got.FailedTasks)
	}
	// The makespan is a max over cores, so dropping one task's work may not
	// move it — but the energy must drop (idle power < busy power).
	if got.Energy >= baseline.Energy {
		t.Errorf("failed task still charged: E=%g, baseline %g", got.Energy, baseline.Energy)
	}
}

// TestTraceJSONRoundTripsSupervisionFields: quarantine set and per-record
// degradation flags survive Save/Load (trace format v2).
func TestTraceJSONRoundTripsSupervisionFields(t *testing.T) {
	tr := &Trace{
		Workload: "x", Decoupled: true, Cores: 2, NumBatches: 1,
		Records: []TaskRecord{
			{Name: "a", Core: 0, Batch: 0, Degraded: true, FaultKind: "trap"},
			{Name: "b", Core: 1, Batch: 0, Failed: true, FaultKind: "panic"},
		},
		Quarantined: map[string]string{"a": "trap"},
	}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Quarantined["a"] != "trap" {
		t.Errorf("quarantine set lost: %v", got.Quarantined)
	}
	if !got.Records[0].Degraded || got.Records[0].FaultKind != "trap" {
		t.Errorf("degraded flags lost: %+v", got.Records[0])
	}
	if !got.Records[1].Failed || got.Records[1].FaultKind != "panic" {
		t.Errorf("failed flags lost: %+v", got.Records[1])
	}
}

// TestFingerprintCoversDegradeMode: supervision participates in the cache
// key — a supervised trace must never be served from an unsupervised one.
func TestFingerprintCoversDegradeMode(t *testing.T) {
	a := DefaultTraceConfig()
	b := DefaultTraceConfig()
	b.Degrade = DegradeAccess
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprints identical despite different Degrade modes")
	}
}
