package rt

import (
	"encoding/json"
	"fmt"
	"io"
)

// traceJSON is the serialized form of a Trace; all fields of TaskRecord,
// interp.Counts and mem.Stats are exported plain data, so the encoding is a
// faithful snapshot of the frequency-independent profile.
type traceJSON struct {
	Version     int               `json:"version"`
	Workload    string            `json:"workload"`
	Decoupled   bool              `json:"decoupled"`
	Cores       int               `json:"cores"`
	NumBatches  int               `json:"num_batches"`
	Records     []TaskRecord      `json:"records"`
	Quarantined map[string]string `json:"quarantined,omitempty"`
}

// traceVersion 2 added the supervision fields (record Degraded/Failed/
// FaultKind and the trace quarantine set). Version-1 traces decode cleanly —
// the new fields are zero — so both are accepted.
const traceVersion = 2

// SaveTrace writes the trace as JSON. Saved traces let external tooling (or
// later runs) re-evaluate frequency policies without re-simulating. JSON is
// the export format only; traces move between processes in the binary
// format of EncodeTrace.
func SaveTrace(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceJSON{
		Version:     traceVersion,
		Workload:    tr.Workload,
		Decoupled:   tr.Decoupled,
		Cores:       tr.Cores,
		NumBatches:  tr.NumBatches,
		Records:     tr.Records,
		Quarantined: tr.Quarantined,
	})
}

// LoadTrace reads a trace saved with SaveTrace.
func LoadTrace(r io.Reader) (*Trace, error) {
	var tj traceJSON
	if err := json.NewDecoder(r).Decode(&tj); err != nil {
		return nil, fmt.Errorf("rt: decoding trace: %w", err)
	}
	if tj.Version < 1 || tj.Version > traceVersion {
		return nil, fmt.Errorf("rt: unsupported trace version %d", tj.Version)
	}
	tr := &Trace{
		Workload:    tj.Workload,
		Decoupled:   tj.Decoupled,
		Cores:       tj.Cores,
		NumBatches:  tj.NumBatches,
		Records:     tj.Records,
		Quarantined: tj.Quarantined,
	}
	if err := tr.validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
