package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"localadvice/internal/cluster"
	"localadvice/internal/harness"
	"localadvice/internal/local"
	"localadvice/internal/server"
)

// A workload turns a seed into a plan: the request sequence and its
// references, computed untimed. The plan's setup then builds a fresh system
// and warms it; that is what setup_s times.
type workload struct {
	name string
	plan func(seed int64, measuredOps int) (*plan, error)
}

func workloads() []workload {
	return []workload{
		{name: "decode-fresh", plan: planFresh},
		{name: "decode-hot", plan: func(seed int64, _ int) (*plan, error) { return planHot(seed, false) }},
		{name: "encode-churn", plan: planChurn},
		{name: "routed-hot", plan: func(seed int64, _ int) (*plan, error) { return planHot(seed, true) }},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opKind tells the traced replay which layers an op reaches.
type opKind int

const (
	opFreshDecode  opKind = iota // cache:false decode with inline advice
	opHotDecode                  // cached decode of a warmed spec
	opEncode                     // encode of a graph never seen before
	opDecodeRecent               // first decode of a graph encoded two units ago
	opDecodeStored               // decode of a graph evicted from the LRU, served from the store
)

// op is one request of a workload's sequence.
type op struct {
	kind   opKind
	path   string
	body   []byte
	schema string
	spec   server.GraphSpec
	graph  int          // encode-churn: index of the graph the op touches
	advice local.Advice // the advice the decode runs on, for the replay (nil for mis)
	want   *expect      // reference labels (decode ops)
	// wantAdvice is the direct encoder's advice as JSON (encode ops of det
	// schemas); encode ops of mis record the server's advice instead.
	wantAdvice []byte
}

// plan is a workload's seeded inputs.
type plan struct {
	seq []*op
	// cyclic sequences repeat; otherwise the run ends with the sequence.
	cyclic bool
	// warm is how many leading ops set-up runs (encode-churn); measured ops
	// start after them.
	warm int
	// block is how many consecutive measured ops always hold the same mix
	// of request classes (see block in measure.go).
	block int
	// setupEncodes are the det-schema encodes set-up asks for, replayed by
	// the traced run as lll.encode calls.
	setupEncodes []*op
	setup        func(workdir string) (*system, error)
}

// system is one constructed, warmed server or fleet.
type system struct {
	front   http.Handler // the entry point the client calls
	servers []*server.Server
	router  *cluster.Router
	shards  []*timedHandler
	// misWant holds, per encode-churn mis graph, the decoder rule applied
	// to the advice the server returned; later decodes of the graph are
	// checked against it.
	misWant map[int]*expect
	close   func()
}

// opAt returns the i-th measured op, or nil when the sequence is exhausted.
func (p *plan) opAt(i int) *op {
	i += p.warm
	if p.cyclic {
		return p.seq[i%len(p.seq)]
	}
	if i >= len(p.seq) {
		return nil
	}
	return p.seq[i]
}

// do sends one request through h and returns status, body and the time
// spent inside ServeHTTP.
func do(h http.Handler, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	return rec.Code, rec.Body.Bytes(), d
}

// run sends o and checks the response.
func (s *system) run(o *op) (time.Duration, []byte, error) {
	code, body, d := do(s.front, o.path, o.body)
	return d, body, s.check(o, code, body)
}

func (s *system) check(o *op, code int, body []byte) error {
	switch o.kind {
	case opEncode:
		bits, err := checkEncode(code, body, o.wantAdvice)
		if err == nil && o.wantAdvice == nil {
			s.misWant[o.graph] = expectMIS(bits)
		}
		return err
	case opDecodeRecent, opDecodeStored:
		want := o.want
		if want == nil {
			want = s.misWant[o.graph]
		}
		return checkDecode(code, body, want)
	default:
		return checkDecode(code, body, o.want)
	}
}

func encodeBody(schema string, spec server.GraphSpec) []byte {
	return mustJSON(server.EncodeRequest{Schema: schema, Graph: spec})
}

func decodeBody(schema string, spec server.GraphSpec, advice []string, cache bool) []byte {
	req := server.DecodeRequest{Schema: schema, Graph: spec, Advice: advice}
	if !cache {
		req.Cache = &cache
	}
	return mustJSON(req)
}

// specSeed draws a generator seed for a graph spec.
func specSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<40) }

// jittered returns k sizes around n spaced by a seeded step, symmetric so
// that their mean is n for every seed: the seed changes the graphs, not the
// mean cost.
func jittered(rng *rand.Rand, n, unit, k int) []int {
	step := unit * (1 + rng.Intn(2))
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, n+step*(2*i-(k-1))/2)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// specPlan is one graph of a fresh or hot pool with its reference.
type specPlan struct {
	schema string
	spec   server.GraphSpec
	advice local.Advice
	want   *expect
	// adviceJSON is the direct encoder's advice, JSON-encoded (nil for mis).
	adviceJSON []byte
}

// planSpec builds spec's graph, encodes and decodes it directly and keeps
// the reference. mis gets its reference during set-up, from the advice the
// server returns.
func planSpec(refs map[string]schemaRef, schema string, spec server.GraphSpec) (*specPlan, error) {
	sp := &specPlan{schema: schema, spec: spec}
	ref := refs[schema]
	if ref.encode == nil {
		return sp, nil
	}
	g, err := harness.BuildGraph(spec.Family, spec.N, spec.Seed)
	if err != nil {
		return nil, err
	}
	sp.advice, err = ref.encode(g)
	if err != nil {
		return nil, fmt.Errorf("%s on %s n=%d: direct encode: %w", schema, spec.Family, spec.N, err)
	}
	sp.adviceJSON = mustJSON(adviceText(sp.advice))
	sp.want, err = reference(ref, g, sp.advice)
	if err != nil {
		return nil, fmt.Errorf("%s on %s n=%d: %w", schema, spec.Family, spec.N, err)
	}
	return sp, nil
}

// encodeSpec asks the server for spec's advice and checks it against the
// plan; for mis it fills the plan's reference from the returned advice.
func encodeSpec(h http.Handler, sp *specPlan) error {
	code, body, _ := do(h, "/v1/encode", encodeBody(sp.schema, sp.spec))
	bits, err := checkEncode(code, body, sp.adviceJSON)
	if err != nil {
		return fmt.Errorf("set-up encode of %s %s n=%d: %w", sp.schema, sp.spec.Family, sp.spec.N, err)
	}
	if sp.adviceJSON == nil {
		want := expectMIS(bits)
		if sp.want != nil && !bytes.Equal(sp.want.labels, want.labels) {
			return fmt.Errorf("set-up encode of mis %s n=%d: advice changed between set-ups", sp.spec.Family, sp.spec.N)
		}
		sp.want = want
	}
	return nil
}

// freshClasses are decode-fresh's request classes, sized to similar service
// time on one P (about 20 ms each on a shared 2-vCPU VM): orientdet stalls
// on grids, so the grid class uses the orient schema.
var freshClasses = []struct {
	schema, family string
	n, unit        int
}{
	{"orient", "grid", 225, 15},
	{"orientdet", "cycle", 384, 8},
	{"color3det", "cycle", 1792, 32},
}

// planFresh: three sizes per class around a fixed mean; requests cycle
// through blocks holding each of the nine specs once, in seeded order, so
// every class has exactly a third of the ops.
func planFresh(seed int64, _ int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	refs := schemaRefs()
	var pool []*specPlan
	for _, c := range freshClasses {
		for _, n := range jittered(rng, c.n, c.unit, 3) {
			sp, err := planSpec(refs, c.schema, server.GraphSpec{Family: c.family, N: n, Seed: specSeed(rng)})
			if err != nil {
				return nil, err
			}
			pool = append(pool, sp)
		}
	}
	ops := make([]*op, len(pool))
	for i, sp := range pool {
		ops[i] = &op{
			kind: opFreshDecode, path: "/v1/decode", schema: sp.schema, spec: sp.spec,
			body:   decodeBody(sp.schema, sp.spec, adviceText(sp.advice), false),
			advice: sp.advice, want: sp.want,
		}
	}
	// A block is three rounds of the nine specs: about half a second.
	p := &plan{cyclic: true, block: 3 * len(ops)}
	for b := 0; b < 64; b++ {
		for _, i := range rng.Perm(len(ops)) {
			p.seq = append(p.seq, ops[i])
		}
	}
	p.setupEncodes = ops
	p.setup = func(string) (*system, error) {
		srv, err := server.New(server.Config{})
		if err != nil {
			return nil, err
		}
		s := &system{front: srv, servers: []*server.Server{srv}, close: func() {}}
		for _, sp := range pool {
			if err := encodeSpec(srv, sp); err != nil {
				return nil, err
			}
		}
		// Warm-up: one block, every spec once.
		for _, o := range ops {
			if _, _, err := s.run(o); err != nil {
				return nil, fmt.Errorf("warm-up decode: %w", err)
			}
		}
		return s, nil
	}
	return p, nil
}

// hotClasses are decode-hot's schemas, four specs each around n=512.
var hotClasses = []struct {
	schema, family string
	n, unit        int
}{
	{"mis", "gnp", 512, 0},
	{"orientdet", "cycle", 512, 8},
	{"color3det", "cycle", 512, 8},
}

// hotSeqLen is the length of the cyclic decode-hot sequence.
const hotSeqLen = 4096

// planHot: twelve specs warmed in set-up. Each op picks a class in seeded
// order from blocks of three (a third of the ops each) and a spec within
// it by Zipf popularity 1, 1/2, 1/3, 1/4. routed-hot sends the same
// sequence through the router.
func planHot(seed int64, routed bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	refs := schemaRefs()
	classes := make([][]*specPlan, len(hotClasses))
	for ci, c := range hotClasses {
		sizes := []int{c.n, c.n, c.n, c.n}
		if c.unit > 0 {
			sizes = jittered(rng, c.n, c.unit, 4)
		}
		for _, n := range sizes {
			sp, err := planSpec(refs, c.schema, server.GraphSpec{Family: c.family, N: n, Seed: specSeed(rng)})
			if err != nil {
				return nil, err
			}
			classes[ci] = append(classes[ci], sp)
		}
	}
	var pool []*specPlan
	opsOf := map[*specPlan]*op{}
	for _, class := range classes {
		for _, sp := range class {
			pool = append(pool, sp)
			opsOf[sp] = &op{kind: opHotDecode, path: "/v1/decode", schema: sp.schema, spec: sp.spec,
				body: decodeBody(sp.schema, sp.spec, nil, true), advice: sp.advice}
		}
	}
	zipf := []float64{1, 1.0 / 2, 1.0 / 3, 1.0 / 4}
	var total float64
	for _, w := range zipf {
		total += w
	}
	pick := func() int {
		x := rng.Float64() * total
		for i, w := range zipf {
			if x < w {
				return i
			}
			x -= w
		}
		return len(zipf) - 1
	}
	// Every aligned run of three ops holds one op per class; a block of
	// 3000 ops takes a third to half a second.
	p := &plan{cyclic: true, block: 3000}
	for len(p.seq) < hotSeqLen {
		for _, ci := range rng.Perm(len(classes)) {
			p.seq = append(p.seq, opsOf[classes[ci][pick()]])
		}
	}
	for _, sp := range pool {
		if sp.advice != nil {
			p.setupEncodes = append(p.setupEncodes, opsOf[sp])
		}
	}
	p.setup = func(string) (*system, error) {
		var s *system
		var err error
		if routed {
			s, err = startFleet()
		} else {
			var srv *server.Server
			srv, err = server.New(server.Config{})
			s = &system{front: srv, servers: []*server.Server{srv}, close: func() {}}
		}
		if err != nil {
			return nil, err
		}
		if err := warmHot(s, pool, opsOf, routed); err != nil {
			s.close()
			return nil, err
		}
		// Warm-up: the head of the sequence.
		for _, o := range p.seq[:512] {
			if _, _, err := s.run(o); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up decode: %w", err)
			}
		}
		return s, nil
	}
	return p, nil
}

// warmHot encodes every spec, fixes the mis references, and decodes each
// spec until it is cached — through the router, past the hot threshold,
// until every key is replicated and each replica has decoded it too.
func warmHot(s *system, pool []*specPlan, opsOf map[*specPlan]*op, routed bool) error {
	for _, sp := range pool {
		if err := encodeSpec(s.front, sp); err != nil {
			return err
		}
		opsOf[sp].want = sp.want
	}
	reads := 1
	if routed {
		reads = hotThreshold
	}
	for _, sp := range pool {
		for i := 0; i < reads; i++ {
			if _, _, err := s.run(opsOf[sp]); err != nil {
				return fmt.Errorf("warm decode of %s %s n=%d: %w", sp.schema, sp.spec.Family, sp.spec.N, err)
			}
		}
	}
	if !routed {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := s.router.Metrics().Snapshot()
		if snap.ReplicationErrors > 0 {
			return fmt.Errorf("replication failed %d times", snap.ReplicationErrors)
		}
		if snap.Replications >= uint64(len(pool)) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not settle: %d of %d keys", snap.Replications, len(pool))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Reads now rotate over owner and replica; two more per key decode it
	// on the replica as well.
	for _, sp := range pool {
		for i := 0; i < 2; i++ {
			if _, _, err := s.run(opsOf[sp]); err != nil {
				return fmt.Errorf("replica warm decode: %w", err)
			}
		}
	}
	return nil
}

// hotThreshold is the router's default: a key is replicated after this
// many cached reads.
const hotThreshold = 8

// timedHandler wraps a shard's server so the traced run can split a routed
// request into router and shard time.
type timedHandler struct {
	h          http.Handler
	batchNanos atomic.Int64 // time inside the shard's ServeHTTP for /v1/batch, summed
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	if r.URL.Path == "/v1/batch" {
		t.batchNanos.Add(int64(time.Since(start)))
	}
}

// fleetShards is the routed-hot fleet size.
const fleetShards = 2

// startFleet starts two shard servers on loopback listeners and a router
// with default replicas and hot threshold in front of them.
func startFleet() (*system, error) {
	s := &system{}
	var httpSrvs []*http.Server
	var wg sync.WaitGroup
	// Nothing is in flight at teardown, so the shards close their
	// connections outright: Shutdown would wait five seconds for any
	// connection the router dialled but never used.
	s.close = func() {
		if s.router != nil {
			s.router.Close()
		}
		for _, hs := range httpSrvs {
			hs.Close()
		}
		wg.Wait()
	}
	var shards []cluster.Shard
	for i := 0; i < fleetShards; i++ {
		srv, err := server.New(server.Config{Role: "shard"})
		if err != nil {
			s.close()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		th := &timedHandler{h: srv}
		hs := &http.Server{Handler: th, ReadHeaderTimeout: 10 * time.Second}
		httpSrvs = append(httpSrvs, hs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs.Serve(l)
		}()
		s.servers = append(s.servers, srv)
		s.shards = append(s.shards, th)
		shards = append(shards, cluster.Shard{Name: fmt.Sprintf("shard%d", i), URL: "http://" + l.Addr().String()})
	}
	local, err := server.New(server.Config{})
	if err != nil {
		s.close()
		return nil, err
	}
	rt, err := cluster.New(cluster.Config{Shards: shards, Local: local})
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = rt
	s.front = rt
	return s, nil
}

// encode-churn shape: graph i is mis on gnp n=1024 unless i%9 == 8, when
// it is color3det on planted3 n=72. Unit i encodes
// graph i, decodes graph i-2 for the first time (its graph and advice are
// still in the LRU) and decodes graph i-churnLag, long evicted, whose
// advice and eth table come back from the store. The 16 MiB LRU holds
// the artifacts of about the last forty units: graph i-churnLag is long
// evicted, while the live heap stays large enough that GC marks land on a
// few percent of the ops and the 90th percentile measures the store-backed
// decodes, not GC.
const (
	churnLag = 96
	// churnPeriod is the schema pattern's length in units. With one
	// color3det graph in nine, the cheap color3det ops fill the bottom ninth
	// of the latency distribution and each mis op kind eight twenty-sevenths
	// above it, so the median and the 90th percentile fall inside the mis
	// encode and stored-decode classes rather than on a class boundary.
	churnPeriod     = 9
	churnCacheBytes = 16 << 20
	churnMISN       = 1024
	churnC3N        = 72
	// churnUnitRate bounds the units a run can use per second; the plan
	// holds that many (the run ends early, with a note, if they run out).
	churnUnitRate = 120
)

func churnSchema(i int) string {
	if i%churnPeriod == churnPeriod-1 {
		return "color3det"
	}
	return "mis"
}

// planChurn precomputes the units a run can reach: specs with unique seeds
// (every encode is of a graph never seen before), and the direct
// references of the color3det graphs. mis references come from the
// server's own encode responses during the run.
func planChurn(seed int64, measuredOps int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	refs := schemaRefs()
	// Set-up runs whole schema periods, so measured ops start on one.
	warmUnits := (churnLag + 3 + churnPeriod - 1) / churnPeriod * churnPeriod
	units := warmUnits + (measuredOps+2)/3
	base := specSeed(rng)
	graphs := make([]*specPlan, units)
	for i := range graphs {
		schema := churnSchema(i)
		spec := server.GraphSpec{Family: "gnp", N: churnMISN, Seed: base + int64(i)}
		if schema == "color3det" {
			spec = server.GraphSpec{Family: "planted3", N: churnC3N, Seed: base + int64(i)}
		}
		sp, err := planSpec(refs, schema, spec)
		if err != nil {
			return nil, err
		}
		graphs[i] = sp
	}
	// A block is three schema periods (81 ops): about half a second.
	p := &plan{block: 3 * churnPeriod * 3}
	decodeOp := func(kind opKind, j int) *op {
		sp := graphs[j]
		return &op{kind: kind, path: "/v1/decode", schema: sp.schema, spec: sp.spec, graph: j,
			body: decodeBody(sp.schema, sp.spec, nil, true), advice: sp.advice, want: sp.want}
	}
	for i := 0; i < units; i++ {
		sp := graphs[i]
		p.seq = append(p.seq, &op{kind: opEncode, path: "/v1/encode", schema: sp.schema, spec: sp.spec,
			graph: i, body: encodeBody(sp.schema, sp.spec), wantAdvice: sp.adviceJSON})
		if i >= 2 {
			p.seq = append(p.seq, decodeOp(opDecodeRecent, i-2))
		}
		if i >= churnLag {
			p.seq = append(p.seq, decodeOp(opDecodeStored, i-churnLag))
		}
		if i == warmUnits-1 {
			p.warm = len(p.seq)
		}
	}
	p.setup = func(workdir string) (*system, error) {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workdir, "store-")
		if err != nil {
			return nil, err
		}
		srv, err := server.New(server.Config{StoreDir: dir, CacheBytes: churnCacheBytes})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		s := &system{front: srv, servers: []*server.Server{srv}, misWant: map[int]*expect{},
			close: func() { os.RemoveAll(dir) }}
		for _, o := range p.seq[:p.warm] {
			if _, _, err := s.run(o); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %s: %w", o.path, err)
			}
		}
		return s, nil
	}
	return p, nil
}
