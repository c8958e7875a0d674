package eval

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"dae/internal/bench"
	"dae/internal/rt"
)

var (
	cgOnce sync.Once
	cgData *AppData
	cgErr  error
)

// collectCG collects CG's three traces once for the wire tests and
// benchmarks.
func collectCG(tb testing.TB) *AppData {
	tb.Helper()
	cgOnce.Do(func() {
		app, err := bench.AppByName("CG")
		if err != nil {
			cgErr = err
			return
		}
		cgData, cgErr = CollectWith(context.Background(), app, rt.DefaultTraceConfig(), CollectOptions{})
	})
	if cgErr != nil {
		tb.Fatal(cgErr)
	}
	return cgData
}

// TestAppDataWireRoundTrip: a trace set taken through the /v1/trace JSON
// form comes back deeply equal, traces and result summaries alike.
func TestAppDataWireRoundTrip(t *testing.T) {
	d := collectCG(t)
	w, err := EncodeAppData(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back AppDataWire
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []struct {
		kind      string
		got, want *rt.Trace
	}{{"coupled", got.CAE, d.CAE}, {"manual", got.Manual, d.Manual}, {"auto", got.Auto, d.Auto}} {
		if !reflect.DeepEqual(tr.got, tr.want) {
			t.Errorf("%s trace differs after the wire round trip", tr.kind)
		}
	}
	if len(w.Results) != len(d.Results) || !reflect.DeepEqual(back.Results, w.Results) {
		t.Error("result summaries differ after the round trip")
	}
}

func BenchmarkEncodeTrace(b *testing.B) {
	tr := collectCG(b).Auto
	enc, err := rt.EncodeTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.EncodeTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTrace(b *testing.B) {
	enc, err := rt.EncodeTrace(collectCG(b).Auto)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.DecodeTrace(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppDataWireRoundTrip is one /v1/trace store hit's codec work on
// both ends: encode the trace set, marshal the JSON response, then parse it
// and decode the traces as a remote daebench does.
func BenchmarkAppDataWireRoundTrip(b *testing.B) {
	d := collectCG(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := EncodeAppData(d)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(w)
		if err != nil {
			b.Fatal(err)
		}
		var back AppDataWire
		if err := json.Unmarshal(body, &back); err != nil {
			b.Fatal(err)
		}
		if _, err := back.Decode(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
	}
}
