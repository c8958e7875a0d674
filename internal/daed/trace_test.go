package daed

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"dae/internal/rt"
)

// TestTracePreBinaryArtifactIsCleanMiss: a trace artifact written before
// the binary trace format carries its traces inline as JSON. Under the old
// key namespace it is never read; even under the current key it fails to
// parse as an artifact and is recomputed. Neither case answers with an
// error or quarantines a store envelope, and the recomputed artifact
// replaces it.
func TestTracePreBinaryArtifactIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{Workers: 2, Dir: dir})
	ctx := context.Background()
	req := &TraceRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := rt.SaveTrace(&js, &rt.Trace{Workload: "CG", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	inline := bytes.TrimSpace(js.Bytes())
	old := fmt.Sprintf(`{"data":{"name":"CG","cae":%s,"manual":%s,"auto":%s}}`, inline, inline, inline)
	oldKey := "trace/v1;" + strings.TrimPrefix(key, traceKeyPrefix)
	for _, k := range []string{oldKey, key} {
		if err := s.store.Put(k, []byte(old)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := c.Trace(ctx, req)
	if err != nil {
		t.Fatalf("trace over a pre-binary artifact: %v", err)
	}
	if resp.CacheHit || s.Stats().Executions != 1 {
		t.Errorf("cacheHit=%t executions=%d, want a miss that executes once", resp.CacheHit, s.Stats().Executions)
	}
	d, err := resp.Data.Decode()
	if err != nil {
		t.Fatalf("recomputed trace set does not decode: %v", err)
	}
	if len(d.Auto.Records) == 0 {
		t.Error("recomputed trace set has no records")
	}

	warm, err := c.Trace(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || !bytes.Equal(warm.Data.Auto, resp.Data.Auto) {
		t.Errorf("second request: cacheHit=%t, same auto trace=%t; want true, true",
			warm.CacheHit, bytes.Equal(warm.Data.Auto, resp.Data.Auto))
	}

	// A restarted server scrubs the directory: the stale artifact under the
	// old key is a well-formed envelope, not damage.
	s2, c2 := newTestServer(t, Config{Workers: 2, Dir: dir})
	if q := s2.Stats().Store.ScrubQuarantined; q != 0 {
		t.Errorf("restart quarantined %d envelopes, want 0", q)
	}
	again, err := c2.Trace(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || s2.Stats().Executions != 0 {
		t.Errorf("restarted server: cacheHit=%t executions=%d, want a store hit", again.CacheHit, s2.Stats().Executions)
	}
}
