package rt

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dae/internal/cpu"
	"dae/internal/interp"
	"dae/internal/mem"
)

// supervisedTrace exercises every optional field of the binary format:
// degraded, failed and fault-kind records, access work, and a quarantine
// set of three task types.
func supervisedTrace() *Trace {
	work := func(n int64) cpu.PhaseWork {
		var w cpu.PhaseWork
		w.Counts.Int, w.Counts.Loads, w.Counts.Calls = n, 2*n, -n
		w.Mem.At[mem.Load][mem.L1] = 3 * n
		w.Mem.At[mem.Prefetch][mem.Mem] = 1 << 40
		return w
	}
	return &Trace{
		Workload: "supervised", Decoupled: true, Cores: 3, NumBatches: 2,
		Records: []TaskRecord{
			{Name: "zeta", Core: 0, Batch: 0, HasAccess: true, AccessWork: work(5), ExecWork: work(7)},
			{Name: "alpha", Core: 1, Batch: 0, Degraded: true, FaultKind: "trap", ExecWork: work(9)},
			{Name: "mid", Core: 2, Batch: 1, Failed: true, FaultKind: "panic"},
			{Name: "alpha", Core: 0, Batch: 1, Degraded: true, FaultKind: "trap", ExecWork: work(1)},
		},
		Quarantined: map[string]string{"zeta": "timeout", "alpha": "trap", "mid": "panic"},
	}
}

func TestBinaryTraceRoundTrip(t *testing.T) {
	w, _ := buildStream(t, 4096, 256)
	cfg := DefaultTraceConfig()
	cfg.Decoupled = true
	collected, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Trace{"collected": collected, "supervised": supervisedTrace()} {
		b, err := EncodeTrace(tr)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeTrace(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("%s: decoded trace differs:\n got %+v\nwant %+v", name, got, tr)
		}
	}
}

// TestEncodeTraceDeterministic: the quarantine set is a map, and its
// encoding must not follow Go's randomized iteration order.
func TestEncodeTraceDeterministic(t *testing.T) {
	tr := supervisedTrace()
	first, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b, err := EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// TestPhaseWorkCounterLayout guards the encoded counter list: a counter
// added to interp.Counts or mem.Stats must be added to counters() too.
func TestPhaseWorkCounterLayout(t *testing.T) {
	if n := reflect.TypeOf(interp.Counts{}).NumField(); n != 10 {
		t.Errorf("interp.Counts has %d fields; counters() encodes 10", n)
	}
	var w cpu.PhaseWork
	seen := map[*int64]bool{}
	for _, p := range counters(&w) {
		if p == nil || seen[p] {
			t.Fatal("counters() has a nil or repeated field")
		}
		seen[p] = true
	}
}

func TestDecodeTraceRejects(t *testing.T) {
	good, err := EncodeTrace(supervisedTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix is torn input.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeTrace(good[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(good))
		}
	}
	header := func(cores, batches uint64) []byte {
		b := append([]byte(traceMagic), binaryTraceVersion, 0)
		b = appendString(b, "w")
		b = binary.AppendUvarint(b, cores)
		return binary.AppendUvarint(b, batches)
	}
	oneRecord := func(core, batch uint64) []byte {
		b := header(2, 1)
		b = append(b, 1)
		b = appendString(b, "t")
		b = append(b, 1, 0)
		b = binary.AppendUvarint(b, core)
		b = binary.AppendUvarint(b, batch)
		b = append(b, 0)
		b = append(b, make([]byte, workFields)...)
		return append(b, 0)
	}
	if _, err := DecodeTrace(oneRecord(1, 0)); err != nil {
		t.Fatalf("well-formed one-record trace rejected: %v", err)
	}
	cases := map[string][]byte{
		"json":               []byte(`{"version":2,"cores":1}`),
		"bad version":        append([]byte(traceMagic), binaryTraceVersion+1),
		"trailing byte":      append(append([]byte{}, good...), 0),
		"zero cores":         append(header(0, 0), 0, 0, 0),
		"core out of range":  oneRecord(2, 0),
		"batch out of range": oneRecord(0, 1),
		"overlong varint":    append(header(1, 0), 0x80, 0x00, 0, 0),
		"bad trace flags":    append([]byte(traceMagic), binaryTraceVersion, 2),
	}
	for name, b := range cases {
		if _, err := DecodeTrace(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// allocBytes reports the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeTraceBoundsAllocation: counts and lengths that claim more than
// the input holds fail before anything is sized from them.
func TestDecodeTraceBoundsAllocation(t *testing.T) {
	huge := uint64(1) << 40
	prefix := append([]byte(traceMagic), binaryTraceVersion, 0)
	prefix = appendString(prefix, "w")
	prefix = append(prefix, 1, 1)
	cases := map[string][]byte{
		"string table": binary.AppendUvarint(append([]byte{}, prefix...), huge),
		"records":      binary.AppendUvarint(append(append([]byte{}, prefix...), 0), huge),
		"quarantine":   binary.AppendUvarint(append(append([]byte{}, prefix...), 0, 0), huge),
		"string":       binary.AppendUvarint(append([]byte(traceMagic), binaryTraceVersion, 0), huge),
	}
	for name, b := range cases {
		b = append(b, bytes.Repeat([]byte{1}, 64)...)
		var err error
		if n := allocBytes(func() { _, err = DecodeTrace(b) }); n > 4096 {
			t.Errorf("%s: %d-byte input allocated %d bytes", name, len(b), n)
		}
		if err == nil || !strings.Contains(err.Error(), "exceeds input") {
			t.Errorf("%s: err = %v, want a count/length bound error", name, err)
		}
	}
}

// FuzzDecodeTrace holds the binary trace decoder to three properties on
// arbitrary input: it never panics, it allocates at most a small multiple
// of the input's length, and whatever it accepts re-encodes to the same
// bytes (the format is canonical). The seeds are the streaming workload's
// collected coupled and decoupled traces plus a trace that uses every
// optional field.
func FuzzDecodeTrace(f *testing.F) {
	w, _ := buildStream(f, 4096, 256)
	seeds := []*Trace{supervisedTrace()}
	for _, decoupled := range []bool{false, true} {
		cfg := DefaultTraceConfig()
		cfg.Decoupled = decoupled
		tr, err := Run(w, cfg)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, tr)
	}
	for _, tr := range seeds {
		b, err := EncodeTrace(tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := DecodeTrace(b)
		if n := decodeAllocBytes(b); n > uint64(64*len(b)+4096) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), n)
		}
		if err != nil {
			return
		}
		re, err := EncodeTrace(tr)
		if err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(b), len(re))
		}
	})
}

// decodeAllocBytes measures the bytes one DecodeTrace of b allocates. The
// process-wide counter also sees other goroutines' allocations, which only
// ever add, so the least of three measurements is the decoder's own.
func decodeAllocBytes(b []byte) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		least = min(least, allocBytes(func() { DecodeTrace(b) }))
	}
	return least
}
