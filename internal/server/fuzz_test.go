package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"localadvice/internal/bitstr"
	"localadvice/internal/local"
)

// FuzzHandleDecode throws arbitrary bytes at POST /v1/decode in two forms —
// the raw bytes as the whole request body, and the bytes reshaped into the
// advice array of an otherwise well-formed request — and asserts the
// serving contract: the handler never panics, never answers 5xx (arbitrary
// client input is always a client error), and never leaks internals.
//
// The seed corpus below covers every request class the endpoint matrix
// pins, so a plain `go test` replays it as a smoke test.
func FuzzHandleDecode(f *testing.F) {
	// Whole-body seeds.
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":12}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":12},"cache":false}`), []byte("0"))
	f.Add([]byte(`{"schema":"color3","graph":{"family":"cycle","n":40}}`), []byte(""))
	f.Add([]byte(`{"schema":`), []byte("10"))
	f.Add([]byte(`not json`), []byte("xx"))
	f.Add([]byte(``), []byte("\x00\xff"))
	f.Add([]byte(`{"schema":7,"graph":[]}`), []byte("11"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":100000}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"regular","n":-5}}`), []byte("1"))
	f.Add([]byte(`{"schema":"quantum","graph":{"family":"cycle","n":8}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"text":"n 4\ne 0 9\n"}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"text":"garbage"}}`), []byte("1"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":["1","1","1","1","1","1"]}`), []byte("111111"))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":[]}`), []byte(""))
	f.Add([]byte(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":["é","0","1","0","1","0"]}`), []byte("\xc3\xa9"))

	// One server for the whole fuzz process: cheap per-exec, and a shared
	// cache stresses the generation/singleflight logic with hostile input.
	s := newTestServer(f, Config{MaxNodes: 64, MaxBodyBytes: 1 << 16, CacheBytes: 1 << 20})

	f.Fuzz(func(t *testing.T, body []byte, adviceBytes []byte) {
		check := func(kind string, w *httptest.ResponseRecorder) {
			if w.Code >= 500 {
				t.Errorf("%s: status %d on arbitrary input: %s", kind, w.Code, w.Body)
			}
			assertNoLeak(t, w.Body.String())
		}

		// Form 1: the fuzzed bytes are the entire request body.
		check("raw-body", doReq(t, s, "POST", "/v1/decode", string(body)))

		// Form 2: the fuzzed bytes become per-node advice strings of a
		// well-formed request, exercising bitstr parsing, advice-length
		// checks and the decoder's corruption detection.
		adv := make([]string, 0, 8)
		for i := 0; i < len(adviceBytes) && i < 8; i++ {
			adv = append(adv, string(adviceBytes[i:i+1]))
		}
		advJSON, err := json.Marshal(adv)
		if err != nil {
			return // unrepresentable bytes; form 1 already ran
		}
		req := fmt.Sprintf(`{"schema":"mis","graph":{"family":"cycle","n":6},"advice":%s}`, advJSON)
		check("advice", doReq(t, s, "POST", "/v1/decode", req))
	})
}

// FuzzHandleBatch throws arbitrary bytes at POST /v1/batch as the LADB
// request frame and asserts the serving contract: the handler never panics
// (a contained panic would answer 500), never answers 5xx, never leaks
// internals in an error body, and every 200 answer is a well-formed LADR
// frame of the requested shape (plain or extended).
func FuzzHandleBatch(f *testing.F) {
	oneBit := make(local.Advice, 12)
	for v := range oneBit {
		oneBit[v] = bitstr.New(v % 2)
	}
	seeds := []struct {
		schema string
		spec   GraphSpec
		cache  bool
		items  []BatchItem
	}{
		{"mis", GraphSpec{Family: "cycle", N: 12}, true, []BatchItem{{}, {}}},
		{"mis", GraphSpec{Family: "cycle", N: 12}, false, []BatchItem{{}, {Advice: oneBit}}},
		{"orient", GraphSpec{Family: "cycle", N: 20, Seed: 3}, true, []BatchItem{{}}},
		{"mis", GraphSpec{Text: "n 4\ne 0 1\ne 1 2\ne 2 3\n"}, true, []BatchItem{{}}},
		{"mis", GraphSpec{Text: "n 0\n"}, true, []BatchItem{{}}},
		{"mis", GraphSpec{Family: "cycle", N: 100000}, true, []BatchItem{{}}},
		{"quantum", GraphSpec{Family: "cycle", N: 8}, true, []BatchItem{{}}},
	}
	for _, sd := range seeds {
		for _, encode := range []func(string, GraphSpec, bool, []BatchItem) ([]byte, error){EncodeBatchRequest, EncodeBatchRequestExt} {
			frame, err := encode(sd.schema, sd.spec, sd.cache, sd.items)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
			f.Add(frame[:len(frame)-1])
		}
	}
	f.Add([]byte("LADB"))
	f.Add([]byte("LADB\x02\x00"))
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{})

	s := newTestServer(f, Config{MaxNodes: 64, MaxBodyBytes: 1 << 16, CacheBytes: 1 << 20})
	f.Fuzz(func(t *testing.T, frame []byte) {
		w := doBin(t, s, "/v1/batch", frame)
		if w.Code >= 500 {
			t.Fatalf("status %d on arbitrary input: %s", w.Code, w.Body)
		}
		if w.Code != http.StatusOK {
			assertNoLeak(t, w.Body.String())
			return
		}
		// A 200 means the header parsed, so the flags byte is present.
		var err error
		if frame[6]&flagBatchExt != 0 {
			_, _, err = DecodeBatchResponseExt(w.Body.Bytes())
		} else {
			_, err = DecodeBatchResponse(w.Body.Bytes())
		}
		if err != nil {
			t.Fatalf("200 answer is not a well-formed response frame: %v", err)
		}
	})
}

// FuzzHandleImport throws arbitrary bytes at POST /v1/artifacts/import as
// the LAAR replication frame: the handler never panics, never answers 5xx,
// and a rejected frame inserts nothing into the cache.
func FuzzHandleImport(f *testing.F) {
	a := newTestServer(f, Config{})
	const body = `{"schema":"mis","graph":{"family":"cycle","n":48,"seed":3}}`
	doReq(f, a, "POST", "/v1/decode", body)
	exp := doReq(f, a, "POST", "/v1/artifacts/export", body)
	if exp.Code != http.StatusOK {
		f.Fatalf("export: %d: %s", exp.Code, exp.Body)
	}
	frame := exp.Body.Bytes()
	f.Add(frame)
	f.Add(frame[:len(frame)-5])
	f.Add(append([]byte("XXXX"), frame[4:]...))
	badVersion := append([]byte(nil), frame...)
	badVersion[4] = 9
	f.Add(badVersion)
	f.Add([]byte("LAAR\x01\x00"))
	f.Add([]byte("not a frame at all"))

	s := newTestServer(f, Config{MaxBodyBytes: 1 << 16, CacheBytes: 1 << 20})
	f.Fuzz(func(t *testing.T, frame []byte) {
		before := s.cache.Stats()
		w := doBin(t, s, "/v1/artifacts/import", frame)
		if w.Code >= 500 {
			t.Fatalf("status %d on arbitrary input: %s", w.Code, w.Body)
		}
		if w.Code == http.StatusOK {
			return
		}
		assertNoLeak(t, w.Body.String())
		if after := s.cache.Stats(); after.Puts != before.Puts || after.Entries != before.Entries {
			t.Fatalf("rejected frame (%d) changed the cache: puts %d -> %d, entries %d -> %d",
				w.Code, before.Puts, after.Puts, before.Entries, after.Entries)
		}
	})
}

// FuzzDecodeBatchResponseExt feeds arbitrary bytes to the client-side
// extended LADR decoder. It must never panic; every frame it accepts must
// survive a re-encode → decode round trip unchanged; and the server-rendered
// seed frames (ok items with and without edge labels, a typed item error, a
// zero-node answer) must re-encode to exactly the bytes the server sent.
func FuzzDecodeBatchResponseExt(f *testing.F) {
	s := newTestServer(f, Config{})
	requests := []struct {
		schema string
		spec   GraphSpec
		items  []BatchItem
	}{
		{"mis", GraphSpec{Family: "cycle", N: 48, Seed: 3}, []BatchItem{{}, {}}},
		{"orient", GraphSpec{Family: "cycle", N: 60, Seed: 3}, []BatchItem{{}}},
		{"mis", GraphSpec{Family: "cycle", N: 48}, []BatchItem{{Advice: local.Advice{bitstr.New(1)}}}},
		{"mis", GraphSpec{Text: "n 0\n"}, []BatchItem{{}}},
	}
	for _, req := range requests {
		frame, err := EncodeBatchRequestExt(req.schema, req.spec, true, req.items)
		if err != nil {
			f.Fatal(err)
		}
		w := doBin(f, s, "/v1/batch", frame)
		if w.Code != http.StatusOK {
			f.Fatalf("%s %+v: %d: %s", req.schema, req.spec, w.Code, w.Body)
		}
		resp := w.Body.Bytes()
		digest, results, err := DecodeBatchResponseExt(resp)
		if err != nil {
			f.Fatalf("%s %+v: server frame rejected: %v", req.schema, req.spec, err)
		}
		if again := encodeBatchResponseExt(digest, results); !bytes.Equal(again, resp) {
			f.Fatalf("%s %+v: server frame does not round-trip", req.schema, req.spec)
		}
		f.Add(resp)
		f.Add(resp[:len(resp)-1])
	}
	f.Add([]byte("LADR\x01\x00"))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, frame []byte) {
		digest, results, err := DecodeBatchResponseExt(frame)
		if err != nil {
			return
		}
		digest2, results2, err := DecodeBatchResponseExt(encodeBatchResponseExt(digest, results))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if digest2 != digest || !reflect.DeepEqual(results2, results) {
			t.Fatalf("round trip changed the frame:\n got %q %+v\nwant %q %+v", digest2, results2, digest, results)
		}
	})
}

// encodeBatchResponseExt is the test-side inverse of DecodeBatchResponseExt,
// written from the frame layout with the server's own item and label-run
// writers.
func encodeBatchResponseExt(digest string, results []BatchResultExt) []byte {
	b := []byte(batchRespMagic)
	b = binary.LittleEndian.AppendUint16(b, batchVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(results)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(digest)))
	b = append(b, digest...)
	for _, res := range results {
		if e := res.Err; e != nil {
			p := binary.LittleEndian.AppendUint16(nil, uint16(e.Status))
			p = binary.LittleEndian.AppendUint16(p, uint16(len(e.Code)))
			p = append(p, e.Code...)
			b = appendBatchItem(b, nil, string(append(p, e.Msg...)))
			continue
		}
		p := appendLabelRun(nil, res.Labels)
		p = appendLabelRun(p, res.EdgeLabels)
		p = binary.LittleEndian.AppendUint32(p, uint32(res.Rounds))
		p = binary.LittleEndian.AppendUint32(p, uint32(res.Messages))
		p = binary.LittleEndian.AppendUint32(p, uint32(res.TableEntries))
		cached := byte(0)
		if res.Cached {
			cached = 1
		}
		b = appendBatchItem(b, append(p, cached), "")
	}
	return b
}
