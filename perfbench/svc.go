package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"dae/internal/bench"
	"dae/internal/daed"
	"dae/internal/daed/client"
	"dae/internal/daed/ring"
	"dae/internal/daed/store"
	"dae/internal/dvfs"
	"dae/internal/eval"
	"dae/internal/rt"
)

// svcApps are the apps the service workloads request: daeload's default
// -apps, the three with the cheapest collections, so set-up (warming the
// store and computing the local references) stays short enough to repeat.
var svcApps = []string{"CG", "FFT", "LibQ"}

// svcKey is one request the service workloads send: a simulate request
// (what `daerun -server` sends) or a trace request (what `daebench
// -server` sends).
type svcKey struct {
	trace       bool
	app         string
	cores       int
	zeroLatency bool
	maxSteps    int64
}

func (k svcKey) String() string {
	kind := "simulate"
	if k.trace {
		kind = "trace"
	}
	return fmt.Sprintf("%s/%s/cores=%d/zerolat=%t/steps=%d", kind, k.app, k.cores, k.zeroLatency, k.maxSteps)
}

func (k svcKey) contentKey() (string, error) {
	if k.trace {
		return (&daed.TraceRequest{App: k.app, Cores: k.cores, MaxSteps: k.maxSteps}).Key()
	}
	return (&daed.SimulateRequest{App: k.app, Cores: k.cores, ZeroLatency: k.zeroLatency, MaxSteps: k.maxSteps}).Key()
}

// hotKeys draws the seeded key set: per app one simulate key, with or
// without zero-latency transitions, and one trace key. Every key keeps the
// paper's four cores, so one collection per app serves both keys and the
// set-up does the same work whatever the seed.
func hotKeys(seed int64, apps []string) []svcKey {
	rng := rand.New(rand.NewSource(seed))
	var keys []svcKey
	for _, a := range apps {
		keys = append(keys,
			svcKey{app: a, cores: 4, zeroLatency: rng.Intn(2) == 1},
			svcKey{trace: true, app: a, cores: 4})
	}
	return keys
}

// response is the part of a response that must repeat byte for byte.
type response struct {
	body []byte
	wire *eval.AppDataWire // trace responses
}

// send issues one request through cl. Traced, the request and (for a trace
// response) the trace-envelope decode are spans; the decode is part of the
// op either way, since a remote daebench decodes every trace it fetches.
func send(ctx context.Context, cl *client.Cluster, k svcKey, sp *active, name string) (*response, error) {
	if !k.trace {
		resp, err := call(sp, name, func(*active) (*daed.SimulateResponse, error) {
			return cl.Simulate(ctx, "", &daed.SimulateRequest{App: k.app, Cores: k.cores, ZeroLatency: k.zeroLatency, MaxSteps: k.maxSteps})
		})
		if err != nil {
			return nil, err
		}
		if resp.Degraded {
			return nil, fmt.Errorf("%s: degraded response", k)
		}
		return &response{body: []byte(resp.App + "\x00" + resp.Report)}, nil
	}
	resp, err := call(sp, name, func(*active) (*daed.TraceResponse, error) {
		return cl.Trace(ctx, "", &daed.TraceRequest{App: k.app, Cores: k.cores, MaxSteps: k.maxSteps})
	})
	if err != nil {
		return nil, err
	}
	if resp.Degraded || resp.Data == nil {
		return nil, fmt.Errorf("%s: degraded or empty trace response", k)
	}
	if _, err := call(sp, "eval.wire_decode", func(*active) (*eval.AppData, error) { return resp.Data.Decode() }); err != nil {
		return nil, fmt.Errorf("%s: %w", k, err)
	}
	return &response{body: wireBytes(resp.Data), wire: resp.Data}, nil
}

func wireBytes(w *eval.AppDataWire) []byte {
	var b bytes.Buffer
	b.WriteString(w.Name)
	for _, part := range [][]byte{w.CAE, w.Manual, w.Auto} {
		b.WriteByte(0)
		b.Write(part)
	}
	return b.Bytes()
}

// references computes, in process, the response every key of an app must
// match: one local collection per (app, cores), rendered as the server
// renders simulate responses and encoded as it encodes trace responses.
func references(ctx context.Context, keys []svcKey) (map[svcKey]*response, error) {
	type coll struct {
		app   string
		cores int
	}
	data := map[coll]*eval.AppData{}
	cache := eval.NewTraceCache("")
	out := map[svcKey]*response{}
	for _, k := range keys {
		c := coll{k.app, k.cores}
		d := data[c]
		if d == nil {
			app, err := bench.AppByName(k.app)
			if err != nil {
				return nil, err
			}
			cfg := paperConfig()
			cfg.Cores = k.cores
			if d, err = eval.CollectWith(ctx, app, cfg, eval.CollectOptions{Workers: nproc(), Cache: cache}); err != nil {
				return nil, err
			}
			data[c] = d
		}
		if k.trace {
			enc, err := eval.EncodeAppData(d)
			if err != nil {
				return nil, err
			}
			// Take the wire form through JSON once, as the server's
			// response does, so both sides are compared in the same form.
			b, err := json.Marshal(enc)
			if err != nil {
				return nil, err
			}
			var w eval.AppDataWire
			if err := json.Unmarshal(b, &w); err != nil {
				return nil, err
			}
			out[referenceKey(k)] = &response{body: wireBytes(&w), wire: &w}
			continue
		}
		m := rt.DefaultMachine()
		if k.zeroLatency {
			m.DVFS = dvfs.Ideal()
		}
		out[referenceKey(k)] = &response{body: []byte(k.app + "\x00" + eval.FormatRunReport(d, m))}
	}
	return out, nil
}

// referenceKey drops what does not change a response (the step budget,
// when it does not bind).
func referenceKey(k svcKey) svcKey {
	k.maxSteps = 0
	return k
}

func sameResponse(a, b *response) bool {
	if !bytes.Equal(a.body, b.body) {
		return false
	}
	if a.wire != nil || b.wire != nil {
		return a.wire != nil && b.wire != nil && reflect.DeepEqual(a.wire.Results, b.wire.Results)
	}
	return true
}

// node is one in-process daed behind a loopback listener.
type node struct {
	srv *daed.Server
	hs  *http.Server
	url string
	ln  net.Listener
	err chan error
}

// cluster is a set of in-process daed nodes plus the clients that drive
// them.
type cluster struct {
	nodes  []*node
	hc     *http.Client
	route  *client.Cluster            // routes each key to its owners
	pinned map[string]*client.Cluster // one per node, no re-routing
	first  sync.Map                   // svcKey -> *response: the first response per key
	refs   map[svcKey]*response
}

// startCluster boots n nodes with replication r, each with its store in a
// fresh directory. Anti-entropy repair is off: its 30s period would fire
// at an arbitrary point of some windows and not others.
func startCluster(r *runner, n, replicas int) (*cluster, error) {
	c := &cluster{pinned: map[string]*client.Cluster{}}
	var urls []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, &node{ln: ln, url: "http://" + ln.Addr().String(), err: make(chan error, 1)})
		urls = append(urls, c.nodes[i].url)
	}
	for i, nd := range c.nodes {
		dir, err := r.scratchDir("daed-")
		if err != nil {
			c.close()
			return nil, err
		}
		cfg := daed.Config{Dir: dir, Workers: nproc(), RepairInterval: -1}
		if n > 1 {
			cfg.Self, cfg.Replicas = nd.url, replicas
			for j, u := range urls {
				if j != i {
					cfg.Peers = append(cfg.Peers, u)
				}
			}
		}
		nd.srv = daed.New(cfg)
		nd.hs = &http.Server{Handler: nd.srv}
		go func(nd *node) { nd.err <- nd.hs.Serve(nd.ln) }(nd)
	}
	// At most nproc connections per node: one per closed-loop client.
	c.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}}
	c.route = client.New(client.Config{Nodes: urls, Replicas: replicas, HTTP: c.hc})
	for _, u := range urls {
		c.pinned[u] = client.New(client.Config{Nodes: []string{u}, Pin: true, HTTP: c.hc})
	}
	return c, nil
}

// close stops every node and waits for its server loop to return.
func (c *cluster) close() {
	for _, nd := range c.nodes {
		if nd.hs == nil {
			nd.ln.Close()
			continue
		}
		nd.hs.Close()
		<-nd.err
		nd.srv.Close()
	}
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// check compares a response with the first response for its key and, when
// there is one, with the local reference.
func (c *cluster) check(k svcKey, got *response) error {
	if prev, loaded := c.first.LoadOrStore(k, got); loaded && !sameResponse(prev.(*response), got) {
		return fmt.Errorf("%s: response differs from the first response for the key", k)
	}
	if ref := c.refs[referenceKey(k)]; ref != nil && !sameResponse(ref, got) {
		return fmt.Errorf("%s: response differs from the local in-process evaluation", k)
	}
	return nil
}

// warm sends every key once, nproc at a time, and checks each response.
func (c *cluster) warm(ctx context.Context, keys []svcKey) error {
	errs := make([]error, len(keys))
	sem := make(chan struct{}, nproc())
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k svcKey) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := send(ctx, c.route, k, nil, "")
			if err == nil {
				err = c.check(k, resp)
			}
			errs[i] = err
		}(i, k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// statsSum adds up the serving counters of every node.
func (c *cluster) statsSum(ctx context.Context) (daed.StatsSnapshot, error) {
	var sum daed.StatsSnapshot
	for _, nd := range c.nodes {
		s, err := c.pinned[nd.url].Stats(ctx)
		if err != nil {
			return sum, err
		}
		sum.Requests += s.Requests
		sum.StoreHits += s.StoreHits
		sum.Collapsed += s.Collapsed
		sum.Executions += s.Executions
		sum.Rejected += s.Rejected
		sum.Proxied += s.Proxied
		sum.ReplicatedOut += s.ReplicatedOut
	}
	return sum, nil
}

// serviceLayers reports the counters of the window (GET /v1/stats deltas,
// client counters) and, traced, the request spans.
func serviceLayers(r *runner, c *cluster, before, after daed.StatsSnapshot, execMs []float64) {
	req := float64(after.Requests - before.Requests)
	r.setLayer("daed.store_hit_ratio", float64(after.StoreHits-before.StoreHits)/req)
	r.setLayer("daed.collapse_ratio", float64(after.Collapsed-before.Collapsed)/req)
	r.setLayer("daed.proxied_ratio", float64(after.Proxied-before.Proxied)/req)
	r.setLayer("daed.executions", float64(after.Executions-before.Executions))
	r.setLayer("daed.replicated_out", float64(after.ReplicatedOut-before.ReplicatedOut))
	r.setLayer("daed.rejected", float64(after.Rejected-before.Rejected))
	cnt := c.route.Counters()
	for _, p := range c.pinned {
		pc := p.Counters()
		cnt.Retries += pc.Retries
		cnt.Failovers += pc.Failovers
	}
	r.setLayer("client.retries", float64(cnt.Retries))
	r.setLayer("client.failovers", float64(cnt.Failovers))
	st := byName(r.tr.snapshot())
	for _, d := range []struct{ span, metric string }{
		{"daed.simulate", "daed.simulate_hit_us"},
		{"daed.trace", "daed.trace_hit_us"},
		{"daed.proxied", "daed.proxied_us"},
		{"eval.wire_decode", "eval.wire_decode_us"},
	} {
		if s := st[d.span]; s != nil {
			r.setLayer(d.metric, s.medianSelf()*1e6)
		}
	}
	if len(execMs) > 0 {
		r.setLayer("daed.exec_ms", median(execMs))
	}
}

// storeProbe times the artifact store on the responses of the run: Put of
// every payload into a fresh store, then Get of every key from a freshly
// reopened store, which reads the envelope from disk and verifies its
// checksum as a server restart would.
func storeProbe(r *runner, c *cluster) error {
	var payloads [][]byte
	c.first.Range(func(k, v any) bool {
		b, err := json.Marshal(map[string]string{"key": k.(svcKey).String(), "body": string(v.(*response).body)})
		if err == nil {
			payloads = append(payloads, b)
		}
		return true
	})
	if len(payloads) == 0 {
		return errors.New("no payloads to probe the store with")
	}
	dir, err := r.scratchDir("store-")
	if err != nil {
		return err
	}
	probe := r.tr.root(r.name + ".probe")
	defer probe.end()
	s := store.Open(store.Config{Dir: dir})
	var kb float64
	for i, p := range payloads {
		kb += float64(len(p)) / 1024
		if _, err := call(probe, "store.put", func(*active) (struct{}, error) { return struct{}{}, s.Put(fmt.Sprint(i), p) }); err != nil {
			return err
		}
	}
	s.Close()
	for round := 0; round < 10; round++ {
		s := store.Open(store.Config{Dir: dir})
		for i, p := range payloads {
			got, _ := call(probe, "store.get", func(*active) ([]byte, error) { b, _ := s.Get(fmt.Sprint(i)); return b, nil })
			var a, b any
			if json.Unmarshal(got, &a) != nil || json.Unmarshal(p, &b) != nil || !reflect.DeepEqual(a, b) {
				s.Close()
				return fmt.Errorf("store returned a different payload for key %d", i)
			}
		}
		s.Close()
	}
	st := byName(r.tr.snapshot())
	r.setLayer("store.put_us", st["store.put"].medianSelf()*1e6)
	r.setLayer("store.get_us", st["store.get"].medianSelf()*1e6)
	r.setLayer("store.payload_kb", kb/float64(len(payloads)))
	return nil
}

func runSvcHot(ctx context.Context, r *runner) error {
	return svcHotWorkload(ctx, r, svcApps)
}

// svcHotWorkload drives one daed, warmed during set-up, closed-loop with
// nproc clients over a seeded mix of its hot keys: every request is a
// store hit, so compile and simulation are bypassed.
func svcHotWorkload(ctx context.Context, r *runner, apps []string) error {
	r.tailPct = 99
	keys := hotKeys(r.seed, apps)
	c, err := setup(r, func() (*cluster, error) { return bootAndWarm(ctx, r, 1, keys, keys) }, (*cluster).close)
	if err != nil {
		return err
	}
	r.onCleanup(c.close)
	before, err := c.statsSum(ctx)
	if err != nil {
		return err
	}
	mix := newMixers(r.seed, nproc(), keys)
	kt := newKindTimes()
	r.drive(ctx, nproc(), nil, func(ctx context.Context, ci int, _ int64, sp *active) (func() error, error) {
		k, _ := mix[ci].next()
		name := "daed.simulate"
		if k.trace {
			name = "daed.trace"
		}
		defer kt.add(name, time.Now())
		resp, err := send(ctx, c.route, k, sp, name)
		if err != nil {
			return nil, err
		}
		return func() error { return c.check(k, resp) }, nil
	})
	kt.log(r)
	after, err := c.statsSum(ctx)
	if err != nil {
		return err
	}
	if hits, req := after.StoreHits-before.StoreHits, after.Requests-before.Requests; hits != req {
		r.failf("svc-hot: %d of %d requests were not store hits", req-hits, req)
	}
	if r.tr != nil {
		serviceLayers(r, c, before, after, nil)
		return storeProbe(r, c)
	}
	return nil
}

// bootAndWarm starts the nodes, computes the local references of refKeys
// and sends every one of keys once.
func bootAndWarm(ctx context.Context, r *runner, n int, keys, refKeys []svcKey) (*cluster, error) {
	c, err := startCluster(r, n, 2)
	if err != nil {
		return nil, err
	}
	if c.refs, err = references(ctx, refKeys); err != nil {
		c.close()
		return nil, err
	}
	if err := c.warm(ctx, keys); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// mixer draws one client's hot requests. One request in traceEvery is a
// trace request and, on svc-cluster-mixed, one in proxyEvery goes through
// the key's non-owner; each comes at a seeded position within every block
// of that many requests, so the shares are exact whatever the seed and the
// run length. The key is drawn uniformly within its kind.
type mixer struct {
	rng              *rand.Rand
	simulate, trace  []svcKey
	n                int
	traceAt, proxyAt int
}

// traceEvery sets the trace share. daeload, the repository's load
// generator, sends one request in twenty (its default -compile 0.05) to a
// second route beside /v1/simulate; here that second route is /v1/trace,
// what `daebench -server` sends. A trace response carries three encoded
// traces (about 250KB), and a trace request takes on average about 250
// times as long as a simulate hit, so the trace requests take most of the
// window's time and set the tail while the simulate hits set the median.
// Each run logs the measured share of time per request kind.
const traceEvery = 20

// proxyEvery sets the share of svc-cluster-mixed's hot requests sent
// through a pinned non-owner, forcing a proxy hop. A client given one
// node of three, as `daerun -server` is, finds that node outside the two
// owners of one key in three when R=2.
const proxyEvery = 3

func newMixers(seed int64, clients int, keys []svcKey) []*mixer {
	ms := make([]*mixer, clients)
	for i := range ms {
		m := &mixer{rng: rand.New(rand.NewSource(seed*1000 + int64(i) + 1))}
		for _, k := range keys {
			if k.trace {
				m.trace = append(m.trace, k)
			} else {
				m.simulate = append(m.simulate, k)
			}
		}
		ms[i] = m
	}
	return ms
}

func (m *mixer) next() (k svcKey, proxied bool) {
	if m.n%traceEvery == 0 {
		m.traceAt = m.rng.Intn(traceEvery)
	}
	if m.n%proxyEvery == 0 {
		m.proxyAt = m.rng.Intn(proxyEvery)
	}
	kind := m.simulate
	if m.n%traceEvery == m.traceAt {
		kind = m.trace
	}
	proxied = m.n%proxyEvery == m.proxyAt
	m.n++
	return kind[m.rng.Intn(len(kind))], proxied
}

// kindTimes sums the latency of each request kind, so a run can report the
// share of the window's time each kind takes.
type kindTimes struct {
	mu sync.Mutex
	ms map[string]float64
	n  map[string]int
}

func newKindTimes() *kindTimes {
	return &kindTimes{ms: map[string]float64{}, n: map[string]int{}}
}

func (kt *kindTimes) add(kind string, since time.Time) {
	ms := float64(time.Since(since)) / float64(time.Millisecond)
	kt.mu.Lock()
	kt.ms[kind] += ms
	kt.n[kind]++
	kt.mu.Unlock()
}

// log writes each kind's request count and share of the summed latency.
func (kt *kindTimes) log(r *runner) {
	total := 0.0
	for _, ms := range kt.ms {
		total += ms
	}
	kinds := make([]string, 0, len(kt.ms))
	for k := range kt.ms {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(r.log, "perfbench: %s seed %d: %s: %d requests, %.1f%% of request time\n", r.name, r.seed, k, kt.n[k], 100*kt.ms[k]/total)
	}
}

// coldKeys is svc-cluster-mixed's fixed set of keys that miss everywhere:
// simulate requests with distinct, non-binding step budgets, so each
// executes, is stored, and replicates write-behind.
func coldKeys(apps []string, n int) []svcKey {
	var keys []svcKey
	for i := 0; i < n; i++ {
		keys = append(keys, svcKey{app: apps[i%len(apps)], cores: 4, maxSteps: 1<<40 + int64(i)})
	}
	return keys
}

// svcColdKeys is the number of cold keys per svc-cluster-mixed run. It is
// assumed, not taken from recorded traffic: daeload's default of one cold
// request in ten would ask the two-core host for about forty collections a
// second, and the run would measure simulation rather than the service.
const svcColdKeys = 6

func runSvcCluster(ctx context.Context, r *runner) error {
	return svcClusterWorkload(ctx, r, svcApps, svcColdKeys)
}

// svcClusterWorkload drives three daed nodes with R=2, each starting from
// an empty store, closed-loop with nproc clients: mostly hot keys, a fixed
// share of them through a pinned non-owner, and beside them a fixed set of
// cold keys issued by client 0 at evenly spaced points of the window.
func svcClusterWorkload(ctx context.Context, r *runner, apps []string, nCold int) error {
	r.tailPct = 99
	keys := hotKeys(r.seed, apps)
	cold := coldKeys([]string{"CG", "FFT"}, nCold)
	c, err := setup(r, func() (*cluster, error) {
		return bootAndWarm(ctx, r, 3, keys, append(append([]svcKey(nil), keys...), cold...))
	}, (*cluster).close)
	if err != nil {
		return err
	}
	r.onCleanup(c.close)
	members := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		members[i] = nd.url
	}
	rg := ring.New(members, 0, daed.DefaultRingSeed)
	nonOwner := map[svcKey]string{}
	for _, k := range keys {
		ck, err := k.contentKey()
		if err != nil {
			return err
		}
		owners := rg.Nodes(ck, 2)
		for _, u := range members {
			if u != owners[0] && u != owners[1] {
				nonOwner[k] = u
			}
		}
	}
	before, err := c.statsSum(ctx)
	if err != nil {
		return err
	}
	mix := newMixers(r.seed, nproc(), keys)
	start := time.Now()
	var mu sync.Mutex
	var execMs []float64
	nextCold := 0
	kt := newKindTimes()
	r.drive(ctx, nproc(), nil, func(ctx context.Context, ci int, _ int64, sp *active) (func() error, error) {
		if ci == 0 && nextCold < len(cold) && time.Since(start) >= time.Duration(nextCold+1)*r.window/time.Duration(len(cold)+1) {
			k := cold[nextCold]
			nextCold++
			t0 := time.Now()
			defer kt.add("daed.exec", t0)
			resp, err := send(ctx, c.route, k, sp, "daed.exec")
			if err != nil {
				return nil, err
			}
			mu.Lock()
			execMs = append(execMs, float64(time.Since(t0))/float64(time.Millisecond))
			mu.Unlock()
			return func() error { return c.check(k, resp) }, nil
		}
		k, proxied := mix[ci].next()
		cl, name := c.route, "daed.simulate"
		if k.trace {
			name = "daed.trace"
		}
		if proxied {
			cl, name = c.pinned[nonOwner[k]], "daed.proxied"
		}
		defer kt.add(name, time.Now())
		resp, err := send(ctx, cl, k, sp, name)
		if err != nil {
			return nil, err
		}
		return func() error { return c.check(k, resp) }, nil
	})
	kt.log(r)
	if nextCold != len(cold) {
		r.failf("svc-cluster-mixed: only %d of %d cold keys were sent in the window", nextCold, len(cold))
	}
	after, err := c.statsSum(ctx)
	if err != nil {
		return err
	}
	if r.tr != nil {
		serviceLayers(r, c, before, after, execMs)
		return storeProbe(r, c)
	}
	return nil
}
