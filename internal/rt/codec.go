package rt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"dae/internal/cpu"
	"dae/internal/mem"
)

// The binary trace format is how traces travel between processes: trace-cache
// envelopes, daed artifacts and /v1/trace responses all carry it. SaveTrace's
// JSON stays the human-readable export. Layout (DESIGN.md §3.6):
//
//	magic "DAEt", version byte, trace flags byte (bit 0: Decoupled)
//	Workload string, Cores, NumBatches
//	string table: count, then the distinct task names and fault kinds,
//	  strictly ascending
//	records: count, then per record: name index, Core, Batch, flags byte,
//	  [fault-kind index], [AccessWork], ExecWork
//	Quarantined: count, then (task, fault kind) string pairs, strictly
//	  ascending by task
//
// Every integer is an unsigned varint (int64 counters as their two's
// complement bit pattern) and every string is a varint length plus bytes.
// A PhaseWork is its interp.Counts fields in declaration order followed by
// mem.Stats.At in row-major order. The encoding is canonical: DecodeTrace
// accepts exactly the bytes EncodeTrace produces, so equal traces always
// have equal encodings.
const (
	traceMagic         = "DAEt"
	binaryTraceVersion = 1
)

// Record flag bits.
const (
	recHasAccess  = 1 << iota
	recDegraded   // TaskRecord.Degraded
	recFailed     // TaskRecord.Failed
	recFaultKind  // a fault-kind string index follows
	recAccessWork // a non-zero AccessWork follows

	recKnownFlags = recHasAccess | recDegraded | recFailed | recFaultKind | recAccessWork
)

// workFields is the number of counters in an encoded cpu.PhaseWork.
const workFields = 10 + int(mem.NumKinds)*int(mem.NumLevels)

// minRecordBytes is the smallest encoded record (every field one byte), so
// a record count above remaining/minRecordBytes cannot be genuine.
const minRecordBytes = 4 + workFields

// counters lists a PhaseWork's counters in their encoded order.
func counters(w *cpu.PhaseWork) [workFields]*int64 {
	c := &w.Counts
	f := [workFields]*int64{&c.Int, &c.Float, &c.FloatDiv, &c.MathOps, &c.Loads,
		&c.Stores, &c.Prefetches, &c.Branches, &c.GEPs, &c.Calls}
	i := 10
	for k := range w.Mem.At {
		for l := range w.Mem.At[k] {
			f[i] = &w.Mem.At[k][l]
			i++
		}
	}
	return f
}

// validate holds the invariants every loaded or transported trace meets.
func (tr *Trace) validate() error {
	if tr.Cores <= 0 {
		return fmt.Errorf("rt: trace has invalid core count %d", tr.Cores)
	}
	if tr.NumBatches < 0 {
		return fmt.Errorf("rt: trace has invalid batch count %d", tr.NumBatches)
	}
	for i := range tr.Records {
		rec := &tr.Records[i]
		if rec.Core < 0 || rec.Core >= tr.Cores {
			return fmt.Errorf("rt: record %d has core %d outside [0,%d)", i, rec.Core, tr.Cores)
		}
		if rec.Batch < 0 || rec.Batch >= tr.NumBatches {
			return fmt.Errorf("rt: record %d has batch %d outside [0,%d)", i, rec.Batch, tr.NumBatches)
		}
	}
	return nil
}

// EncodeTrace returns the trace in the binary trace format. It fails only
// for a trace that DecodeTrace would reject.
func EncodeTrace(tr *Trace) ([]byte, error) {
	if err := tr.validate(); err != nil {
		return nil, err
	}
	index := make(map[string]uint64)
	var table []string
	intern := func(s string) {
		if _, ok := index[s]; !ok {
			index[s] = 0
			table = append(table, s)
		}
	}
	for i := range tr.Records {
		intern(tr.Records[i].Name)
		if fk := tr.Records[i].FaultKind; fk != "" {
			intern(fk)
		}
	}
	sort.Strings(table)
	for i, s := range table {
		index[s] = uint64(i)
	}

	b := make([]byte, 0, 64+64*len(tr.Records))
	b = append(b, traceMagic...)
	b = append(b, binaryTraceVersion)
	var flags byte
	if tr.Decoupled {
		flags = 1
	}
	b = append(b, flags)
	b = appendString(b, tr.Workload)
	b = binary.AppendUvarint(b, uint64(tr.Cores))
	b = binary.AppendUvarint(b, uint64(tr.NumBatches))
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, s := range table {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Records)))
	for i := range tr.Records {
		rec := &tr.Records[i]
		var rf byte
		if rec.HasAccess {
			rf |= recHasAccess
		}
		if rec.Degraded {
			rf |= recDegraded
		}
		if rec.Failed {
			rf |= recFailed
		}
		if rec.FaultKind != "" {
			rf |= recFaultKind
		}
		if rec.AccessWork != (cpu.PhaseWork{}) {
			rf |= recAccessWork
		}
		b = binary.AppendUvarint(b, index[rec.Name])
		b = binary.AppendUvarint(b, uint64(rec.Core))
		b = binary.AppendUvarint(b, uint64(rec.Batch))
		b = append(b, rf)
		if rf&recFaultKind != 0 {
			b = binary.AppendUvarint(b, index[rec.FaultKind])
		}
		if rf&recAccessWork != 0 {
			b = appendWork(b, &rec.AccessWork)
		}
		b = appendWork(b, &rec.ExecWork)
	}
	keys := make([]string, 0, len(tr.Quarantined))
	for k := range tr.Quarantined {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, tr.Quarantined[k])
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendWork(b []byte, w *cpu.PhaseWork) []byte {
	for _, p := range counters(w) {
		b = binary.AppendUvarint(b, uint64(*p))
	}
	return b
}

// DecodeTrace parses a trace produced by EncodeTrace. It validates the
// trace as LoadTrace does and rejects every non-canonical input. Each
// allocation is sized by counts checked against the bytes that remain, so a
// torn or hostile payload cannot force an allocation beyond a small
// multiple of its own length.
func DecodeTrace(b []byte) (*Trace, error) {
	if len(b) < len(traceMagic)+1 || string(b[:len(traceMagic)]) != traceMagic {
		return nil, errors.New("rt: decoding trace: not a binary trace")
	}
	if v := b[len(traceMagic)]; v != binaryTraceVersion {
		return nil, fmt.Errorf("rt: unsupported binary trace version %d", v)
	}
	d := &decoder{b: b[len(traceMagic)+1:]}
	tr := &Trace{}
	switch d.byte() {
	case 0:
	case 1:
		tr.Decoupled = true
	default:
		d.fail("invalid trace flags")
	}
	tr.Workload = d.string()
	tr.Cores = d.int()
	tr.NumBatches = d.int()

	table := make([]string, d.count(1))
	for i := range table {
		table[i] = d.string()
		if i > 0 && table[i] <= table[i-1] {
			d.fail("string table not strictly ascending")
		}
	}
	used := make([]bool, len(table))
	ref := func() string {
		i := d.uvarint()
		if i >= uint64(len(table)) {
			d.fail("string index out of range")
			return ""
		}
		used[i] = true
		return table[i]
	}

	if n := d.count(minRecordBytes); n > 0 {
		tr.Records = make([]TaskRecord, n)
	}
	for i := range tr.Records {
		if d.err != nil {
			break
		}
		rec := &tr.Records[i]
		rec.Name = ref()
		rec.Core = d.int()
		rec.Batch = d.int()
		rf := d.byte()
		if rf&^recKnownFlags != 0 {
			d.fail("unknown record flags")
		}
		rec.HasAccess = rf&recHasAccess != 0
		rec.Degraded = rf&recDegraded != 0
		rec.Failed = rf&recFailed != 0
		if rf&recFaultKind != 0 {
			if rec.FaultKind = ref(); rec.FaultKind == "" {
				d.fail("empty fault kind")
			}
		}
		if rf&recAccessWork != 0 {
			d.work(&rec.AccessWork)
			if rec.AccessWork == (cpu.PhaseWork{}) {
				d.fail("zero access work")
			}
		}
		d.work(&rec.ExecWork)
	}
	for _, u := range used {
		if !u {
			d.fail("unused string table entry")
			break
		}
	}

	if n := d.count(2); n > 0 {
		tr.Quarantined = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.string()
			if i > 0 && k <= prev {
				d.fail("quarantine keys not strictly ascending")
			}
			tr.Quarantined[k] = d.string()
			prev = k
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, fmt.Errorf("rt: decoding trace: %w", d.err)
	}
	if err := tr.validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// decoder reads the binary trace format. The first error sticks: later
// reads return zero values and consume nothing.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("unexpected end of input")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// uvarint reads a minimally encoded unsigned varint.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("malformed varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v := d.uvarint()
	if v > math.MaxInt {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

// count reads an element count and rejects it unless that many elements of
// at least minBytes each fit in the remaining input.
func (d *decoder) count(minBytes int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/minBytes) {
		d.fail("count exceeds input")
		return 0
	}
	return int(v)
}

func (d *decoder) string() string {
	v := d.uvarint()
	if v > uint64(len(d.b)) {
		d.fail("string exceeds input")
		return ""
	}
	s := string(d.b[:v])
	d.b = d.b[v:]
	return s
}

func (d *decoder) work(w *cpu.PhaseWork) {
	for _, p := range counters(w) {
		*p = int64(d.uvarint())
	}
}
