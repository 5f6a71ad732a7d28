package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/obs"
	"localadvice/internal/server"
)

// traceOps is the fixed length of each workload's traced replay: a fixed
// count, not a window, so that the replay's exact counts repeat run to run.
var traceOps = map[string]int{
	"decode-fresh": 90,
	"decode-hot":   3000,
	"encode-churn": 300,
	"routed-hot":   3000,
}

// traceReport is a traced run's result plus the exact counts the
// determinism test compares between runs.
type traceReport struct {
	result *result
	counts map[string]int64
}

// span accumulates the calls into one layer.
type span struct {
	calls int
	total time.Duration
}

func (s *span) add(d time.Duration) time.Duration {
	s.calls++
	s.total += d
	return d
}

// meanMS is the mean call time, 0 when the workload never reaches the layer.
func (s *span) meanMS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(time.Millisecond) / float64(s.calls)
}

// counters are the program's own counters, summed over the system's
// servers (the shards, on routed-hot).
type counters struct {
	cacheHits, cacheMisses, cacheEvictions uint64
	cacheBytes                             int64
	engineComputes                         uint64
	engineNanos                            int64
	store                                  obs.StoreSnapshot
	cluster                                obs.ClusterSnapshot
}

func readCounters(s *system) (counters, error) {
	var c counters
	for _, srv := range s.servers {
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var st server.StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return c, fmt.Errorf("stats: %w", err)
		}
		c.cacheHits += st.Cache.Hits + st.Cache.Dedups
		c.cacheMisses += st.Cache.Misses
		c.cacheEvictions += st.Cache.Evictions
		c.cacheBytes += st.Cache.Bytes
		c.engineComputes += st.Engine
		c.engineNanos += st.EngineNanos
		if st.Store != nil {
			c.store.Hits += st.Store.Hits
			c.store.Misses += st.Store.Misses
			c.store.Puts += st.Store.Puts
			c.store.LoadNanos += st.Store.LoadNanos
			c.store.PutNanos += st.Store.PutNanos
			c.store.BytesLoaded += st.Store.BytesLoaded
			c.store.BytesWritten += st.Store.BytesWritten
		}
	}
	if s.router != nil {
		c.cluster = s.router.Metrics().Snapshot()
	}
	return c, nil
}

// tracer replays a workload's ops: it times the front door, and then calls
// the public function of every layer the server reached for the op, timing
// each. The server's self time is the residual.
type tracer struct {
	sys  *system
	refs map[string]schemaRef

	serve, self, forward          span
	build, digest, verify, encode span
	decodes                       map[string]*span // by layer
	rounds, messages, evaluations int64
	decodeAlloc                   uint64
	respBytes                     int64
	perOpCounters                 bool
	last                          counters
}

// buildGraph replays the server's graph resolution: harness.BuildGraph plus
// the CSR snapshot, then the digest.
func (t *tracer) buildGraph(spec server.GraphSpec, timed bool) (*graph.Graph, time.Duration, error) {
	start := time.Now()
	g, err := harness.BuildGraph(spec.Family, spec.N, spec.Seed)
	if err != nil {
		return nil, 0, err
	}
	g.Snapshot()
	mid := time.Now()
	g.Digest()
	end := time.Now()
	if !timed {
		return g, 0, nil
	}
	return g, t.build.add(mid.Sub(start)) + t.digest.add(end.Sub(mid)), nil
}

// decode replays the schema decoder and the verifier. mis has no decoder
// outside the server (its eth table), so only its verification is replayed,
// on the reference labels.
func (t *tracer) decode(o *op, g *graph.Graph, want *expect) (time.Duration, error) {
	ref := t.refs[o.schema]
	var sol *lcl.Solution
	var lower time.Duration
	if ref.decode != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		var st local.Stats
		var err error
		sol, st, err = ref.decode(g, o.advice)
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return 0, fmt.Errorf("replayed decode: %w", err)
		}
		t.decodeAlloc += ms.TotalAlloc - alloc0
		t.rounds += int64(st.Rounds)
		t.messages += int64(st.Messages)
		sp := t.decodes[ref.layer]
		if sp == nil {
			sp = &span{}
			t.decodes[ref.layer] = sp
		}
		lower += sp.add(d)
	} else {
		sol = lcl.NewSolution(g)
		if want == nil || json.Unmarshal(want.labels, &sol.Node) != nil {
			return 0, fmt.Errorf("no reference labels for %s graph %d", o.schema, o.graph)
		}
	}
	start := time.Now()
	err := lcl.Verify(ref.problem, g, sol)
	lower += t.verify.add(time.Since(start))
	return lower, err
}

// lllEncode replays a det schema's prover with a collector, for
// lll.encode_ms and lll.evaluations.
func (t *tracer) lllEncode(o *op, g *graph.Graph) (time.Duration, error) {
	ref := t.refs[o.schema]
	c := &obs.Collector{}
	start := time.Now()
	_, err := ref.det.EncodeWith(harness.MethodDet, g, 0, c)
	d := t.encode.add(time.Since(start))
	for _, e := range c.Events() {
		if e.Kind == "lll.evaluations" {
			t.evaluations += e.Value
		}
	}
	return d, err
}

// op sends one op, checks it, and replays the layers it reached.
func (t *tracer) op(o *op) error {
	for _, sh := range t.sys.shards {
		sh.batchNanos.Store(0)
	}
	// An op with replayed spans starts the serve and the replay from a
	// collected heap, so that GC work lands alike on both and the residual
	// is not GC noise.
	replayed := o.kind != opHotDecode
	if replayed {
		runtime.GC()
	}
	code, body, d := do(t.sys.front, o.path, o.body)
	if err := t.sys.check(o, code, body); err != nil {
		return err
	}
	t.serve.add(d)
	t.respBytes += int64(len(body))
	serverTime := d
	if t.sys.router != nil {
		var shard time.Duration
		for _, sh := range t.sys.shards {
			shard += time.Duration(sh.batchNanos.Load())
		}
		t.forward.add(d - shard)
		serverTime = shard
	}

	var lower time.Duration
	var err error
	ref := t.refs[o.schema]
	if replayed {
		runtime.GC()
	}
	switch o.kind {
	case opFreshDecode:
		var g *graph.Graph
		var dt time.Duration
		if g, dt, err = t.buildGraph(o.spec, true); err == nil {
			lower += dt
			dt, err = t.decode(o, g, o.want)
			lower += dt
		}
	case opEncode:
		var g *graph.Graph
		var dt time.Duration
		if g, dt, err = t.buildGraph(o.spec, true); err == nil {
			lower += dt
			if ref.det != nil {
				dt, err = t.lllEncode(o, g)
				lower += dt
			}
		}
	case opDecodeRecent, opDecodeStored:
		// A recent decode finds graph and advice in the LRU; a stored one
		// rebuilds the graph. Both miss the decode artifact.
		var g *graph.Graph
		var dt time.Duration
		if g, dt, err = t.buildGraph(o.spec, o.kind == opDecodeStored); err == nil {
			lower += dt
			want := o.want
			if want == nil {
				want = t.sys.misWant[o.graph]
			}
			dt, err = t.decode(o, g, want)
			lower += dt
		}
	}
	if err != nil {
		return err
	}
	if t.perOpCounters {
		// Store I/O, and the engine runs that have no public entry point
		// (mis advice and its eth table), are timed by the server itself.
		c, err := readCounters(t.sys)
		if err != nil {
			return err
		}
		lower += time.Duration(c.store.LoadNanos - t.last.store.LoadNanos + c.store.PutNanos - t.last.store.PutNanos)
		if ref.det == nil {
			lower += time.Duration(c.engineNanos - t.last.engineNanos)
		}
		t.last = c
	}
	t.self.add(serverTime - lower)
	return nil
}

// runTraced sets the workload up once, replays the set-up's det encodes,
// then replays a fixed number of ops and reports the per-layer metrics.
func runTraced(w workload, cfg config) (*traceReport, error) {
	nops := cfg.traceOps
	if nops <= 0 {
		nops = traceOps[w.name]
	}
	p, err := w.plan(cfg.seed, nops)
	if err != nil {
		return nil, fmt.Errorf("%s plan: %w", w.name, err)
	}
	sys, err := p.setup(cfg.workdir)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer sys.close()
	t := &tracer{sys: sys, refs: schemaRefs(), decodes: map[string]*span{}, perOpCounters: w.name == "encode-churn"}
	for _, o := range p.setupEncodes {
		if t.refs[o.schema].det == nil {
			continue
		}
		g, _, err := t.buildGraph(o.spec, false)
		if err == nil {
			_, err = t.lllEncode(o, g)
		}
		if err != nil {
			return nil, fmt.Errorf("replayed set-up encode: %w", err)
		}
	}

	runtime.GC()
	c0, err := readCounters(sys)
	if err != nil {
		return nil, err
	}
	t.last = c0
	_, gc0, busy0 := runtimeCounters()
	attempted, failed := 0, 0
	for i := 0; i < nops; i++ {
		o := p.opAt(i)
		if o == nil {
			break
		}
		attempted++
		if err := t.op(o); err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: traced %s op %d (%s %s n=%d): %v\n", w.name, i, o.path, o.schema, o.spec.N, err)
			}
		}
	}
	_, gc1, busy1 := runtimeCounters()
	c1, err := readCounters(sys)
	if err != nil {
		return nil, err
	}
	if attempted == 0 {
		return nil, fmt.Errorf("%s: traced replay ran no op", w.name)
	}
	ops := float64(attempted)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits := float64(c1.cacheHits - c0.cacheHits)
	misses := float64(c1.cacheMisses - c0.cacheMisses)
	storeHits := float64(c1.store.Hits - c0.store.Hits)
	storeMisses := float64(c1.store.Misses - c0.store.Misses)
	forwards := float64(c1.cluster.Forwards - c0.cluster.Forwards)
	replicaHits := float64(c1.cluster.ReplicaHits - c0.cluster.ReplicaHits)
	decodeCalls := 0
	for _, sp := range t.decodes {
		decodeCalls += sp.calls
	}
	layer := func(name string) *span {
		if sp := t.decodes[name]; sp != nil {
			return sp
		}
		return &span{}
	}
	selfMS := float64(t.self.total) / float64(time.Millisecond) / ops
	negative := 0.0
	if selfMS < 0 {
		negative = 1
		fmt.Fprintf(os.Stderr, "perfbench: %s server.self_ms is negative (%.4f ms): the replayed spans exceed the served time\n", w.name, selfMS)
	}
	perCall := func(total float64, calls int) float64 { return ratio(total, float64(calls)) }
	m := map[string]metric{
		"trace.serve_ms":                  {t.serve.meanMS(), "ms"},
		"server.self_ms":                  {selfMS, "ms"},
		"server.self_negative":            {negative, "flag"},
		"server.resp_kb":                  {float64(t.respBytes) / 1024 / ops, "KiB"},
		"server.engine_computes_per_op":   {float64(c1.engineComputes-c0.engineComputes) / ops, "count"},
		"server.engine_compute_ms_per_op": {float64(c1.engineNanos-c0.engineNanos) / 1e6 / ops, "ms"},
		"graph.build_ms":                  {t.build.meanMS(), "ms"},
		"graph.digest_ms":                 {t.digest.meanMS(), "ms"},
		"orient.decode_ms":                {layer("orient").meanMS(), "ms"},
		"coloring.decode_ms":              {layer("coloring").meanMS(), "ms"},
		"local.decode_alloc_kb":           {perCall(float64(t.decodeAlloc)/1024, decodeCalls), "KiB"},
		"local.rounds":                    {perCall(float64(t.rounds), decodeCalls), "count"},
		"local.messages":                  {perCall(float64(t.messages), decodeCalls), "count"},
		"runtime.gc_cpu_share":            {ratio(gc1-gc0, busy1-busy0), "ratio"},
		"lcl.verify_ms":                   {t.verify.meanMS(), "ms"},
		"lll.encode_ms":                   {t.encode.meanMS(), "ms"},
		"lll.evaluations":                 {perCall(float64(t.evaluations), t.encode.calls), "count"},
		"cache.hit_ratio":                 {ratio(hits, hits+misses), "ratio"},
		"cache.evictions_per_op":          {float64(c1.cacheEvictions-c0.cacheEvictions) / ops, "count"},
		"cache.bytes_mb":                  {float64(c1.cacheBytes) / (1 << 20), "MiB"},
		"persist.hit_ratio":               {ratio(storeHits, storeHits+storeMisses), "ratio"},
		"persist.load_ms_per_op":          {float64(c1.store.LoadNanos-c0.store.LoadNanos) / 1e6 / ops, "ms"},
		"persist.put_ms_per_op":           {float64(c1.store.PutNanos-c0.store.PutNanos) / 1e6 / ops, "ms"},
		"persist.kb_written_per_op":       {float64(c1.store.BytesWritten-c0.store.BytesWritten) / 1024 / ops, "KiB"},
		"persist.kb_loaded_per_op":        {float64(c1.store.BytesLoaded-c0.store.BytesLoaded) / 1024 / ops, "KiB"},
		"cluster.forward_ms":              {t.forward.meanMS(), "ms"},
		"cluster.forwards_per_op":         {forwards / ops, "count"},
		"cluster.replica_hit_ratio":       {ratio(replicaHits, forwards+replicaHits), "ratio"},
		"cluster.replications":            {float64(c1.cluster.Replications), "count"},
		"cluster.failovers":               {float64(c1.cluster.Failovers), "count"},
	}
	counts := map[string]int64{
		"ops":                    int64(attempted),
		"local.rounds":           t.rounds,
		"local.messages":         t.messages,
		"lll.evaluations":        t.evaluations,
		"server.engine_computes": int64(c1.engineComputes - c0.engineComputes),
		"cache.hits":             int64(c1.cacheHits - c0.cacheHits),
		"cache.misses":           int64(c1.cacheMisses - c0.cacheMisses),
		"cache.evictions":        int64(c1.cacheEvictions - c0.cacheEvictions),
		"persist.puts":           int64(c1.store.Puts - c0.store.Puts),
		"persist.hits":           int64(c1.store.Hits - c0.store.Hits),
	}
	correct := failed == 0 && c1.cluster.Failovers == 0
	return &traceReport{
		result: &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m},
		counts: counts,
	}, nil
}
