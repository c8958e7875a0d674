package daed

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"dae/internal/bench"
)

// artifactEndpoints are the three artifact endpoints with one valid request
// body each; every one of them must honor the same serving contract.
var artifactEndpoints = []struct {
	path string
	body string
}{
	{"/v1/simulate", `{"app":"CG"}`},
	{"/v1/compile", `{"app":"CG"}`},
	{"/v1/trace", `{"app":"CG"}`},
}

// served is the part of every artifact response the contract inspects, plus
// the error shape of a non-2xx response.
type served struct {
	status    int
	CacheHit  bool   `json:"cache_hit"`
	Collapsed bool   `json:"collapsed"`
	Class     string `json:"class"`
}

// post sends one raw request body to the test server.
func post(t *testing.T, base, path, body string) served {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Errorf("POST %s: %v", path, err)
		return served{}
	}
	defer resp.Body.Close()
	out := served{status: resp.StatusCode}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Errorf("POST %s: undecodable %d response: %v", path, resp.StatusCode, err)
	}
	return out
}

// holdWorker occupies the server's only worker slot until the returned
// release is called, so executions queue behind it.
func holdWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	if err := s.q.acquire(context.Background()); err != nil {
		t.Fatalf("holding the worker slot: %v", err)
	}
	return s.q.release
}

// TestArtifactEndpointContract runs the serving contract over simulate,
// compile and trace alike: a cold request executes, a warm one is a store
// hit, concurrent cold requests collapse onto one execution, an expired
// wait is a 504 timeout, a draining server answers 503, and a malformed
// body is a 400 parse error.
func TestArtifactEndpointContract(t *testing.T) {
	for _, ep := range artifactEndpoints {
		t.Run(ep.path[len("/v1/"):], func(t *testing.T) {
			t.Run("cold-then-warm", func(t *testing.T) {
				s, c := newTestServer(t, Config{Workers: 1})
				if r := post(t, c.Base, ep.path, ep.body); r.status != http.StatusOK || r.CacheHit {
					t.Fatalf("cold: status=%d cache_hit=%t, want 200 and false", r.status, r.CacheHit)
				}
				if st := s.Stats(); st.Executions != 1 || st.StoreHits != 0 {
					t.Fatalf("after cold: executions=%d store_hits=%d, want 1 and 0", st.Executions, st.StoreHits)
				}
				if r := post(t, c.Base, ep.path, ep.body); r.status != http.StatusOK || !r.CacheHit {
					t.Fatalf("warm: status=%d cache_hit=%t, want 200 and true", r.status, r.CacheHit)
				}
				if st := s.Stats(); st.Executions != 1 || st.StoreHits != 1 {
					t.Fatalf("after warm: executions=%d store_hits=%d, want 1 and 1", st.Executions, st.StoreHits)
				}
			})

			t.Run("concurrent-cold-collapse", func(t *testing.T) {
				s, c := newTestServer(t, Config{Workers: 1})
				// The execution queues behind the held worker slot, so every
				// request that arrives before the slot frees joins its flight.
				release := holdWorker(t, s)
				const n = 6
				rs := make([]served, n)
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						rs[i] = post(t, c.Base, ep.path, ep.body)
					}(i)
				}
				for deadline := time.Now().Add(30 * time.Second); s.Stats().Requests < n; time.Sleep(5 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("only %d of %d requests arrived", s.Stats().Requests, n)
					}
				}
				time.Sleep(200 * time.Millisecond) // let the arrivals reach the flight
				release()
				wg.Wait()

				leaders := 0
				for i, r := range rs {
					if r.status != http.StatusOK || r.CacheHit {
						t.Errorf("request %d: status=%d cache_hit=%t, want 200 and false", i, r.status, r.CacheHit)
					}
					if !r.Collapsed {
						leaders++
					}
				}
				st := s.Stats()
				if st.Executions != 1 || st.Collapsed != n-1 || leaders != 1 {
					t.Errorf("executions=%d collapsed=%d leaders=%d, want 1, %d, 1", st.Executions, st.Collapsed, leaders, n-1)
				}
			})

			t.Run("expired-timeout", func(t *testing.T) {
				s, c := newTestServer(t, Config{Workers: 1})
				release := holdWorker(t, s)
				defer release()
				body := ep.body[:len(ep.body)-1] + `,"timeout_ms":50}`
				if r := post(t, c.Base, ep.path, body); r.status != http.StatusGatewayTimeout || r.Class != "timeout" {
					t.Errorf("status=%d class=%q, want 504 timeout", r.status, r.Class)
				}
				if st := s.Stats(); st.Canceled != 1 || st.Executions != 0 {
					t.Errorf("canceled=%d executions=%d, want 1 and 0", st.Canceled, st.Executions)
				}
			})

			t.Run("draining", func(t *testing.T) {
				s, c := newTestServer(t, Config{Workers: 1})
				if err := s.Drain(context.Background()); err != nil {
					t.Fatalf("drain: %v", err)
				}
				if r := post(t, c.Base, ep.path, ep.body); r.status != http.StatusServiceUnavailable {
					t.Errorf("status=%d, want 503", r.status)
				}
			})

			t.Run("malformed", func(t *testing.T) {
				s, c := newTestServer(t, Config{Workers: 1})
				if r := post(t, c.Base, ep.path, `{"app":`); r.status != http.StatusBadRequest || r.Class != "parse" {
					t.Errorf("status=%d class=%q, want 400 parse", r.status, r.Class)
				}
				if st := s.Stats(); st.Executions != 0 {
					t.Errorf("malformed request executed %d times", st.Executions)
				}
			})
		})
	}
}

// goldenCompileDigests pins the /v1/compile artifact of every app: the
// SHA-256 of the JSON of its strategy report, purity verdicts and generated
// access modules (encoding/json sorts the module map, so it is canonical).
var goldenCompileDigests = map[string]string{
	"LU":       "cf23dc53a1dd1e1c186aadc452bcfa40030bd486c1a3547a75eb2573e18f50a3",
	"Cholesky": "ece5006755be97e413200a227b363a77436c420bc3f7bcdc0f93aa1c88a71557",
	"FFT":      "199080274655d1afad8246e65aefdf9afc3c1c436fda280f8b5a82f77e80d4b0",
	"LBM":      "20b6a52ae1cce56709843412e760716aecd138d9c9294b13db292949ef38f688",
	"LibQ":     "ecf788c8a80713cf6c0d1c8a3f2a3168fa3dcc82e23e6e3882573bff0fb26d73",
	"Cigar":    "7156c0cc9bf638bd864846dee24e70052fe68f6a6ddc2a53481e53846ced1cd0",
	"CG":       "1ca720c98103d4181c081e2bfe7fe8cf10b727fc352ce47336d3a7e90ceea9e7",
}

func TestGoldenCompileDigests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	apps := bench.Apps()
	if len(apps) != len(goldenCompileDigests) {
		t.Errorf("%d apps, %d pinned", len(apps), len(goldenCompileDigests))
	}
	for _, app := range apps {
		resp, err := c.Compile(context.Background(), &CompileRequest{App: app.Name})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		b, err := json.Marshal(struct {
			Strategies string            `json:"strategies"`
			Purity     string            `json:"purity"`
			Modules    map[string]string `json:"modules"`
		}{resp.Strategies, resp.Purity, resp.Modules})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got, want := hex.EncodeToString(sum[:]), goldenCompileDigests[app.Name]; got != want {
			t.Errorf("%s: compile artifact digest %s, want %s", app.Name, got, want)
		}
	}
}
