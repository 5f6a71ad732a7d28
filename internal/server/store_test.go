package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/local"
)

// doBin posts a binary body (the batch protocol) and returns the recorder.
func doBin(t testing.TB, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest("POST", path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/octet-stream")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// normalizeResponse strips the per-request fields (cache hit flag, timing)
// from a response body so fresh and disk-loaded answers can be compared
// byte for byte.
func normalizeResponse(t *testing.T, raw []byte, v any) string {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("bad response: %v: %s", err, raw)
	}
	switch r := v.(type) {
	case *EncodeResponse:
		r.Cached = false
		r.ElapsedNano = 0
	case *DecodeResponse:
		r.Cached = false
		r.ElapsedNano = 0
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// storeTestSpecs maps every registered schema to a graph its encoder
// accepts: the bit-identity property must cover the whole registry, not
// just the table-compiled schema.
var storeTestSpecs = map[string]string{
	"mis":        `{"family":"cycle","n":48}`,
	"orient":     `{"family":"cycle","n":60}`,
	"color3":     `{"family":"cycle","n":60}`,
	"deltacolor": `{"family":"torus","n":36}`,
	"growth":     `{"family":"cycle","n":96}`,
}

// TestPropertyStoreBitIdentity is the tentpole's correctness property: for
// EVERY schema in the registry, the responses of a restarted server that
// loads its artifacts from the persistent store are byte-identical to the
// responses of the server that computed them — and the restarted server
// never runs the engine (encode/compile) at all.
func TestPropertyStoreBitIdentity(t *testing.T) {
	dir := t.TempDir()

	fresh := newTestServer(t, Config{StoreDir: dir})
	type pair struct{ enc, dec string }
	want := map[string]pair{}
	for schema, spec := range storeTestSpecs {
		body := `{"schema":"` + schema + `","graph":` + spec + `}`
		we := doReq(t, fresh, "POST", "/v1/encode", body)
		wd := doReq(t, fresh, "POST", "/v1/decode", body)
		if we.Code != 200 || wd.Code != 200 {
			t.Fatalf("%s: fresh encode=%d decode=%d (%s / %s)", schema, we.Code, wd.Code, we.Body, wd.Body)
		}
		want[schema] = pair{
			enc: normalizeResponse(t, we.Body.Bytes(), &EncodeResponse{}),
			dec: normalizeResponse(t, wd.Body.Bytes(), &DecodeResponse{}),
		}
	}
	if fresh.engineComputes.Load() == 0 {
		t.Fatal("fresh server reported zero engine computes; the counter is broken")
	}

	// "Restart": a new server image — empty LRU, same disk.
	restarted := newTestServer(t, Config{StoreDir: dir})
	for schema, spec := range storeTestSpecs {
		body := `{"schema":"` + schema + `","graph":` + spec + `}`
		we := doReq(t, restarted, "POST", "/v1/encode", body)
		wd := doReq(t, restarted, "POST", "/v1/decode", body)
		if we.Code != 200 || wd.Code != 200 {
			t.Fatalf("%s: restarted encode=%d decode=%d", schema, we.Code, wd.Code)
		}
		if got := normalizeResponse(t, we.Body.Bytes(), &EncodeResponse{}); got != want[schema].enc {
			t.Errorf("%s: disk-loaded encode differs from fresh\n got: %s\nwant: %s", schema, got, want[schema].enc)
		}
		if got := normalizeResponse(t, wd.Body.Bytes(), &DecodeResponse{}); got != want[schema].dec {
			t.Errorf("%s: disk-loaded decode differs from fresh\n got: %s\nwant: %s", schema, got, want[schema].dec)
		}
	}
	if n := restarted.engineComputes.Load(); n != 0 {
		t.Errorf("restarted server ran the engine %d times; every artifact should have come from the store", n)
	}
	if hits := restarted.storeMetrics.Snapshot().Hits; hits < uint64(len(storeTestSpecs)) {
		t.Errorf("restarted server had %d store hits, want at least one per schema (%d)", hits, len(storeTestSpecs))
	}
}

// TestRaceStartupStampedeComputesOnce pins the shared-singleflight contract:
// a stampede of identical requests against a cold cache computes each
// artifact exactly once — and after a restart with a warmed store, the same
// stampede runs the engine exactly zero times, because disk-load happens
// inside the same singleflight slot that compute would have used.
func TestRaceStartupStampedeComputesOnce(t *testing.T) {
	dir := t.TempDir()
	const body = `{"schema":"mis","graph":{"family":"cycle","n":48}}`

	stampede := func(s *Server) {
		const goroutines = 24
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := doReq(t, s, "POST", "/v1/decode", body)
				if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
					t.Errorf("status %d: %s", w.Code, w.Body)
				}
			}()
		}
		wg.Wait()
	}

	first := newTestServer(t, Config{StoreDir: dir})
	stampede(first)
	if cs := first.Cache().Stats(); cs.Computes != 4 {
		t.Errorf("cold stampede: cache computes = %d, want 4 (graph, advice, table, decode)", cs.Computes)
	}
	// Exactly one advice encode + one table compilation, no matter how many
	// goroutines raced and that the store was consulted first.
	if n := first.engineComputes.Load(); n != 2 {
		t.Errorf("cold stampede: engine computes = %d, want exactly 2 (advice encode + table compile)", n)
	}

	warm := newTestServer(t, Config{StoreDir: dir})
	stampede(warm)
	if cs := warm.Cache().Stats(); cs.Computes != 4 {
		t.Errorf("warm stampede: cache computes = %d, want 4", cs.Computes)
	}
	if n := warm.engineComputes.Load(); n != 0 {
		t.Errorf("warm stampede: engine computes = %d, want 0 (all artifacts on disk)", n)
	}
}

// TestBatchMatchesIndividualDecodes is the batch protocol's equivalence
// property: a frame of N decode requests — server-advice and inline-advice
// items mixed — returns exactly the labels that N individual /v1/decode
// calls return, with per-item errors carried in-band.
func TestBatchMatchesIndividualDecodes(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := GraphSpec{Family: "cycle", N: 32, Seed: 1}
	const jsonGraph = `{"family":"cycle","n":32,"seed":1}`

	// Individual answer 1: the server-advice decode.
	w := doReq(t, s, "POST", "/v1/decode", `{"schema":"mis","graph":`+jsonGraph+`}`)
	if w.Code != 200 {
		t.Fatalf("individual decode: %d %s", w.Code, w.Body)
	}
	var serverDecode DecodeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &serverDecode); err != nil {
		t.Fatal(err)
	}

	// Individual answer 2: an explicit (shifted) advice decode. On an even
	// cycle the complement of the even MIS is the odd MIS.
	inline := make(local.Advice, 32)
	inlineJSON := make([]string, 32)
	for v := range inline {
		bit := v % 2
		inline[v] = bitstr.New(bit)
		inlineJSON[v] = map[int]string{0: "0", 1: "1"}[bit]
	}
	advJSON, _ := json.Marshal(inlineJSON)
	w = doReq(t, s, "POST", "/v1/decode", `{"schema":"mis","graph":`+jsonGraph+`,"advice":`+string(advJSON)+`}`)
	if w.Code != 200 {
		t.Fatalf("inline decode: %d %s", w.Code, w.Body)
	}
	var inlineDecode DecodeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &inlineDecode); err != nil {
		t.Fatal(err)
	}

	// The batch: server, inline, server, a broken item, inline.
	badAdvice := local.Advice{bitstr.New(1)} // wrong node count
	items := []BatchItem{{}, {Advice: inline}, {}, {Advice: badAdvice}, {Advice: inline}}
	frame, err := EncodeBatchRequest("mis", spec, true, items)
	if err != nil {
		t.Fatal(err)
	}
	bw := doBin(t, s, "/v1/batch", frame)
	if bw.Code != 200 {
		t.Fatalf("batch: %d %s", bw.Code, bw.Body)
	}
	if ct := bw.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("batch Content-Type = %q", ct)
	}
	results, err := DecodeBatchResponse(bw.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	wantLabels := [][]int{serverDecode.Labels, inlineDecode.Labels, serverDecode.Labels, nil, inlineDecode.Labels}
	for i, res := range results {
		if i == 3 {
			if res.Err == "" {
				t.Error("item 3: broken advice succeeded, want in-band error")
			}
			continue
		}
		if res.Err != "" {
			t.Errorf("item %d: in-band error %q", i, res.Err)
			continue
		}
		if len(res.Labels) != len(wantLabels[i]) {
			t.Errorf("item %d: %d labels, want %d", i, len(res.Labels), len(wantLabels[i]))
			continue
		}
		for v := range res.Labels {
			if res.Labels[v] != wantLabels[i][v] {
				t.Errorf("item %d node %d: label %d, want %d", i, v, res.Labels[v], wantLabels[i][v])
				break
			}
		}
	}

	// The batch endpoint is metered and counted.
	if n := s.batchItems.Load(); n != uint64(len(items)) {
		t.Errorf("batch items counter = %d, want %d", n, len(items))
	}
	var st StatsResponse
	w = doReq(t, s, "GET", "/v1/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Endpoints["batch"].Count != 1 {
		t.Errorf("stats endpoints.batch.count = %d, want 1", st.Endpoints["batch"].Count)
	}
	if st.BatchItems != uint64(len(items)) {
		t.Errorf("stats batch_items = %d, want %d", st.BatchItems, len(items))
	}

	// A zero-node graph answers like /v1/decode's "labels":[] — an empty,
	// non-nil label slice, not a missing one.
	frame, err = EncodeBatchRequest("mis", GraphSpec{Text: "n 0\n"}, true, []BatchItem{{}})
	if err != nil {
		t.Fatal(err)
	}
	results, err = DecodeBatchResponse(doBin(t, s, "/v1/batch", frame).Body.Bytes())
	if err != nil || len(results) != 1 || results[0].Err != "" || results[0].Labels == nil || len(results[0].Labels) != 0 {
		t.Errorf("zero-node batch: %v %#v, want one empty non-nil label slice", err, results)
	}
}

// TestBatchProtocolErrors pins the frame-level failure modes: they are the
// same typed JSON errors as every other endpoint, never a 500, never a
// truncated binary frame.
func TestBatchProtocolErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxNodes: 64})
	good, err := EncodeBatchRequest("mis", GraphSpec{Family: "cycle", N: 12}, true, make([]BatchItem, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		body     []byte
		wantCode int
		wantErr  string
	}{
		{"empty", nil, 400, "bad_batch"},
		{"bad-magic", []byte("JSON{}"), 400, "bad_batch"},
		{"truncated", good[:len(good)-3], 400, "bad_batch"},
		{"trailing", append(append([]byte(nil), good...), 0xee), 400, "bad_batch"},
		{"unknown-schema", mustBatch(t, "quantum", GraphSpec{Family: "cycle", N: 12}, 1), 404, "unknown_schema"},
		{"graph-too-large", mustBatch(t, "mis", GraphSpec{Family: "cycle", N: 4096}, 1), 413, "graph_too_large"},
		{"bad-family", mustBatch(t, "mis", GraphSpec{Family: "hypercube", N: 12}, 1), 400, "bad_graph_spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doBin(t, s, "/v1/batch", tc.body)
			if w.Code != tc.wantCode {
				t.Fatalf("status %d, want %d (body: %s)", w.Code, tc.wantCode, w.Body)
			}
			assertNoLeak(t, w.Body.String())
			if got := errCode(t, w.Body.String()); got != tc.wantErr {
				t.Errorf("error code %q, want %q", got, tc.wantErr)
			}
		})
	}
}

func mustBatch(t *testing.T, schema string, spec GraphSpec, n int) []byte {
	t.Helper()
	b, err := EncodeBatchRequest(schema, spec, true, make([]BatchItem, n))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStatsBypassSplit pins the satellite contract: /v1/stats explains the
// cache-bypass total by endpoint, so benchmark cold traffic ("decode") is
// distinguishable from verify/experiment bypasses.
func TestStatsBypassSplit(t *testing.T) {
	s := newTestServer(t, Config{})
	reqs := []struct{ path, body string }{
		// One cold decode bypasses four artifacts: graph, advice, table, decode.
		{"/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":16},"cache":false}`},
		// A cold verify bypasses only the graph resolution.
		{"/v1/verify", `{"schema":"mis","graph":{"family":"cycle","n":16},"cache":false}`},
		// A cold experiment bypasses the rendered-table cache once.
		{"/v1/experiment", `{"id":"E2","cache":false}`},
		// Warm traffic bypasses nothing.
		{"/v1/encode", `{"schema":"mis","graph":{"family":"cycle","n":16}}`},
	}
	for _, rq := range reqs {
		if w := doReq(t, s, "POST", rq.path, rq.body); w.Code != 200 {
			t.Fatalf("%s: %d %s", rq.path, w.Code, w.Body)
		}
	}
	var st StatsResponse
	w := doReq(t, s, "GET", "/v1/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"decode": 4, "verify": 1, "experiment": 1, "encode": 0, "batch": 0}
	var sum uint64
	for ep, n := range want {
		if st.BypassesBy[ep] != n {
			t.Errorf("cache_bypasses_by_endpoint[%q] = %d, want %d", ep, st.BypassesBy[ep], n)
		}
	}
	for _, n := range st.BypassesBy {
		sum += n
	}
	if st.Bypasses != sum {
		t.Errorf("cache_bypasses = %d, want the by-endpoint sum %d", st.Bypasses, sum)
	}
}
