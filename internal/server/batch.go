// Binary batch decode protocol (POST /v1/batch).
//
// A batch carries ONE (schema, graph) pair and many decode requests, so the
// server resolves the graph, the advice and the compiled table exactly once
// — through the same cache/store/singleflight stack as /v1/decode — and
// then streams per-item answers out of a reusable arena. The framing is
// length-prefixed little-endian binary (DESIGN.md §8): JSON parsing, base64
// advice strings and per-request artifact resolution, which dominate the
// cost of small /v1/decode requests, are all off the per-item path.
//
// Request ("LADB"):
//
//	magic     [4]byte "LADB"
//	version   u16     (currently 1)
//	flags     u8      bit0: use caches (0 = cold/bypass)
//	schemaLen u16, schema name bytes
//	specKind  u8      0 = generated family, 1 = inline edge-list text
//	  kind 0: famLen u16, family bytes, n u32, seed u64 (two's complement)
//	  kind 1: textLen u32, edge-list bytes
//	count     u32
//	items, each:
//	  mode u8         0 = server-side advice, 1 = inline advice
//	  mode 1: payLen u32, payload = binary advice codec (internal/persist)
//
// Response ("LADR"):
//
//	magic   [4]byte "LADR"
//	version u16
//	count   u32
//	items, each:
//	  status u8      0 = ok, 1 = error
//	  payLen u32
//	  ok payload:    u32 label count, then one i32 per node
//	  error payload: UTF-8 message
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"localadvice/internal/lcl"
	"localadvice/internal/local"
	"localadvice/internal/persist"
)

const (
	batchReqMagic  = "LADB"
	batchRespMagic = "LADR"
	batchVersion   = 1
	// batchMaxItems bounds one frame; more items than this is a malformed
	// request, not a bigger batch.
	batchMaxItems = 1 << 20

	// Request flag bits.
	flagBatchCache = 1 // bit0: use caches (0 = cold/bypass)
	// flagBatchExt asks for extended response items: the response header
	// gains the graph digest, ok payloads carry edge labels, rounds,
	// messages, table entries and the cached flag alongside the node
	// labels, and error payloads carry the typed HTTP status + error code
	// in front of the message. This is the cluster tier's inter-node hop:
	// a router forwards a JSON /v1/decode as a one-item extended batch and
	// reconstructs the full DecodeResponse from the answer, so shard
	// fan-out pays zero JSON overhead (DESIGN.md §9). Plain clients that
	// don't set the bit get the exact version-1 response shape.
	flagBatchExt = 2
)

// BatchItem is one decode request inside a batch. A nil Advice asks the
// server to use (and cache) the prover's own advice — the
// encode-once/decode-many hot path.
type BatchItem struct {
	Advice local.Advice
}

// BatchResult is one per-item answer. Exactly one of Labels/Err is set.
type BatchResult struct {
	Labels []int
	Err    string
}

// EncodeBatchRequest frames a batch request (the client half of the
// protocol, used by `locad loadgen -batch` and the equivalence tests).
func EncodeBatchRequest(schema string, spec GraphSpec, cache bool, items []BatchItem) ([]byte, error) {
	return encodeBatchRequest(schema, spec, cache, false, items)
}

// EncodeBatchRequestExt frames an extended-items batch request — the
// inter-node form the cluster router uses to forward decode misses to the
// owning shard. Decode the reply with DecodeBatchResponseExt.
func EncodeBatchRequestExt(schema string, spec GraphSpec, cache bool, items []BatchItem) ([]byte, error) {
	return encodeBatchRequest(schema, spec, cache, true, items)
}

func encodeBatchRequest(schema string, spec GraphSpec, cache, ext bool, items []BatchItem) ([]byte, error) {
	if len(schema) > 1<<16-1 {
		return nil, fmt.Errorf("schema name of %d bytes does not fit the frame", len(schema))
	}
	var b []byte
	b = append(b, batchReqMagic...)
	b = binary.LittleEndian.AppendUint16(b, batchVersion)
	var flags byte
	if cache {
		flags |= flagBatchCache
	}
	if ext {
		flags |= flagBatchExt
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(schema)))
	b = append(b, schema...)
	switch {
	case spec.Text != "":
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(spec.Text)))
		b = append(b, spec.Text...)
	case spec.Family != "":
		if len(spec.Family) > 1<<16-1 {
			return nil, fmt.Errorf("family name of %d bytes does not fit the frame", len(spec.Family))
		}
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(spec.Family)))
		b = append(b, spec.Family...)
		b = binary.LittleEndian.AppendUint32(b, uint32(spec.N))
		b = binary.LittleEndian.AppendUint64(b, uint64(spec.Seed))
	default:
		return nil, errors.New("graph spec needs either text or family")
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(items)))
	for _, it := range items {
		if it.Advice == nil {
			b = append(b, 0)
			continue
		}
		payload := persist.EncodeAdvice(it.Advice)
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = append(b, payload...)
	}
	return b, nil
}

// DecodeBatchResponse parses a full response frame.
func DecodeBatchResponse(b []byte) ([]BatchResult, error) {
	r := &frameReader{b: b}
	if string(r.take(4)) != batchRespMagic {
		return nil, errors.New("batch response: bad magic")
	}
	if v := r.u16(); v != batchVersion {
		return nil, fmt.Errorf("batch response: version %d, want %d", v, batchVersion)
	}
	count := r.u32()
	if r.err != nil || count > batchMaxItems {
		return nil, errors.New("batch response: malformed header")
	}
	out := make([]BatchResult, 0, count)
	for i := uint32(0); i < count; i++ {
		status := r.u8()
		payload := r.take(int(r.u32()))
		if r.err != nil {
			return nil, fmt.Errorf("batch response: truncated at item %d", i)
		}
		if status != 0 {
			out = append(out, BatchResult{Err: string(payload)})
			continue
		}
		p := &frameReader{b: payload}
		labels := readLabelRun(p)
		if p.err != nil || p.off != len(p.b) {
			return nil, fmt.Errorf("batch response: malformed labels at item %d", i)
		}
		if labels == nil {
			labels = []int{} // a zero-node answer (edge list "n 0") is ok, not missing
		}
		out = append(out, BatchResult{Labels: labels})
	}
	if r.off != len(r.b) {
		return nil, errors.New("batch response: trailing bytes")
	}
	return out, nil
}

// BatchResultExt is one per-item answer of an extended-items batch: the
// full decode metadata a router needs to reconstruct a DecodeResponse
// bit-identical to the single-process answer. Exactly one of Labels/Err is
// set.
type BatchResultExt struct {
	Labels       []int
	EdgeLabels   []int // nil when the schema labels no edges
	Rounds       int
	Messages     int
	TableEntries int
	Cached       bool
	Err          *BatchItemError
}

// BatchItemError is an extended in-band item failure: the typed HTTP
// status and machine-readable code the owning shard would have answered a
// direct request with, plus the message.
type BatchItemError struct {
	Status int
	Code   string
	Msg    string
}

// DecodeBatchResponseExt parses an extended-items response frame, returning
// the shared graph digest and the per-item results.
func DecodeBatchResponseExt(b []byte) (digest string, results []BatchResultExt, err error) {
	r := &frameReader{b: b}
	if string(r.take(4)) != batchRespMagic {
		return "", nil, errors.New("batch response: bad magic")
	}
	if v := r.u16(); v != batchVersion {
		return "", nil, fmt.Errorf("batch response: version %d, want %d", v, batchVersion)
	}
	count := r.u32()
	digest = string(r.take(int(r.u16())))
	if r.err != nil || count > batchMaxItems {
		return "", nil, errors.New("batch response: malformed header")
	}
	results = make([]BatchResultExt, 0, count)
	for i := uint32(0); i < count; i++ {
		status := r.u8()
		payload := r.take(int(r.u32()))
		if r.err != nil {
			return "", nil, fmt.Errorf("batch response: truncated at item %d", i)
		}
		p := &frameReader{b: payload}
		if status != 0 {
			e := &BatchItemError{Status: int(p.u16())}
			e.Code = string(p.take(int(p.u16())))
			e.Msg = string(p.b[p.off:])
			if p.err != nil {
				return "", nil, fmt.Errorf("batch response: malformed error at item %d", i)
			}
			results = append(results, BatchResultExt{Err: e})
			continue
		}
		var res BatchResultExt
		res.Labels = readLabelRun(p)
		res.EdgeLabels = readLabelRun(p)
		res.Rounds = int(p.u32())
		res.Messages = int(p.u32())
		res.TableEntries = int(p.u32())
		res.Cached = p.u8() != 0
		if p.err != nil || p.off != len(p.b) {
			return "", nil, fmt.Errorf("batch response: malformed labels at item %d", i)
		}
		results = append(results, res)
	}
	if r.off != len(r.b) {
		return "", nil, errors.New("batch response: trailing bytes")
	}
	return digest, results, nil
}

// readLabelRun reads a u32-counted run of i32 labels (nil when empty).
func readLabelRun(p *frameReader) []int {
	n := p.u32()
	if p.err != nil || n == 0 {
		return nil
	}
	if int(n)*4 > len(p.b)-p.off {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	labels := make([]int, n)
	for v := range labels {
		labels[v] = int(int32(p.u32()))
	}
	return labels
}

// PeekBatchSpec parses only the header of a request frame — schema, graph
// spec, cache flag — without touching the items. The cluster router uses it
// to compute the routing key of a forwarded /v1/batch frame.
func PeekBatchSpec(frame []byte) (schema string, spec GraphSpec, cached bool, err error) {
	fr := &frameReader{b: frame}
	schema, spec, flags, err := parseBatchHeader(fr)
	if err != nil {
		return "", GraphSpec{}, false, err
	}
	return schema, spec, flags&flagBatchCache != 0, nil
}

// parseBatchHeader consumes a request frame's header up to (but excluding)
// the item count, leaving fr positioned on it.
func parseBatchHeader(fr *frameReader) (schema string, spec GraphSpec, flags byte, err error) {
	if string(fr.take(4)) != batchReqMagic {
		return "", GraphSpec{}, 0, errf(http.StatusBadRequest, "bad_batch", "bad magic (want %q)", batchReqMagic)
	}
	if v := fr.u16(); v != batchVersion {
		return "", GraphSpec{}, 0, errf(http.StatusBadRequest, "bad_batch", "version %d, want %d", v, batchVersion)
	}
	flags = fr.u8()
	schema = string(fr.take(int(fr.u16())))
	switch kind := fr.u8(); kind {
	case 0:
		spec.Family = string(fr.take(int(fr.u16())))
		spec.N = int(fr.u32())
		spec.Seed = int64(fr.u64())
	case 1:
		spec.Text = string(fr.take(int(fr.u32())))
	default:
		if fr.err == nil {
			return "", GraphSpec{}, 0, errf(http.StatusBadRequest, "bad_batch", "unknown graph spec kind %d", kind)
		}
	}
	if fr.err != nil {
		return "", GraphSpec{}, 0, errf(http.StatusBadRequest, "bad_batch", "truncated header")
	}
	return schema, spec, flags, nil
}

// frameReader is a bounds-checked little-endian cursor; after any
// out-of-bounds read err is set and every later read returns zeros.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *frameReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *frameReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *frameReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *frameReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// rawEndpoint wraps a binary-response handler (batch decode, artifact
// export) with the same serving policy as the JSON endpoints — shedding at
// the in-flight bound, body limiting, the request deadline, panic
// containment — but writes the returned frame as an octet stream on
// success. Header-level failures (bad frame, unknown schema, bad graph) are
// JSON apiErrors exactly like every other endpoint; in the batch protocol,
// per-item failures travel in-band.
func (s *Server) rawEndpoint(name string, h func(*http.Request) ([]byte, error)) http.HandlerFunc {
	m := s.metrics[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Add(1)
			writeError(w, errf(http.StatusTooManyRequests, "overloaded",
				"server at its in-flight request bound (%d); retry later", s.cfg.MaxInflight))
			m.Observe(time.Since(start), true)
			return
		}
		s.inflight.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		type result struct {
			frame []byte
			err   error
		}
		ch := make(chan result, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					ch <- result{err: errf(http.StatusInternalServerError, "internal", "internal error")}
				}
				s.inflight.Add(-1)
				<-s.sem
			}()
			frame, err := h(r)
			ch <- result{frame, err}
		}()

		deadline := time.NewTimer(s.cfg.RequestTimeout)
		defer deadline.Stop()
		select {
		case res := <-ch:
			if res.err != nil {
				writeError(w, toAPIError(res.err))
				m.Observe(time.Since(start), true)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(res.frame)
			m.Observe(time.Since(start), false)
		case <-deadline.C:
			writeError(w, errf(http.StatusGatewayTimeout, "timeout", "request timed out"))
			m.Observe(time.Since(start), true)
		case <-r.Context().Done():
			m.Observe(time.Since(start), true)
		}
	}
}

// handleBatch parses one request frame, resolves the shared artifacts once,
// and renders the response frame.
func (s *Server) handleBatch(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	fr := &frameReader{b: body}
	schema, spec, flags, err := parseBatchHeader(fr)
	if err != nil {
		return nil, err
	}
	cached := flags&flagBatchCache != 0
	ext := flags&flagBatchExt != 0
	count := fr.u32()
	if fr.err != nil {
		return nil, errf(http.StatusBadRequest, "bad_batch", "truncated header")
	}
	if count > batchMaxItems {
		return nil, errf(http.StatusBadRequest, "bad_batch",
			"%d items exceeds the per-frame bound %d", count, batchMaxItems)
	}

	sc, err := s.resolveSchema(schema)
	if err != nil {
		return nil, err
	}
	cg, _, err := s.resolveGraph(spec, cached, "batch")
	if err != nil {
		return nil, err
	}

	// Response arena: the header is written once, then items are appended in
	// request order. serverPayload caches the rendered mode-0 answer so a
	// batch of N server-advice decodes renders the labels exactly once and
	// appends the same bytes N times — zero per-item allocation.
	resp := make([]byte, 0, 16+int(count)*8)
	resp = append(resp, batchRespMagic...)
	resp = binary.LittleEndian.AppendUint16(resp, batchVersion)
	resp = binary.LittleEndian.AppendUint32(resp, count)
	if ext {
		resp = binary.LittleEndian.AppendUint16(resp, uint16(len(cg.digest)))
		resp = append(resp, cg.digest...)
	}
	render := func(art *decodeArtifact, hit bool, err error) ([]byte, string) {
		if err != nil {
			if ext {
				return nil, string(renderExtError(err))
			}
			return nil, err.Error()
		}
		if ext {
			return renderExtPayload(art, hit), ""
		}
		return appendLabelRun(make([]byte, 0, 4+4*len(art.sol.Node)), art.sol.Node), ""
	}
	var serverPayload []byte
	var serverErr string
	haveServer := false

	for i := uint32(0); i < count; i++ {
		mode := fr.u8()
		var inline []byte
		if mode == 1 {
			inline = fr.take(int(fr.u32()))
		}
		if fr.err != nil {
			return nil, errf(http.StatusBadRequest, "bad_batch", "truncated at item %d", i)
		}
		if mode > 1 {
			return nil, errf(http.StatusBadRequest, "bad_batch", "unknown item mode %d", mode)
		}
		s.batchItems.Add(1)
		switch mode {
		case 0:
			if !haveServer {
				serverPayload, serverErr = render(s.batchServerDecode(sc, cg, cached))
				haveServer = true
			}
			resp = appendBatchItem(resp, serverPayload, serverErr)
		case 1:
			payload, errMsg := render(s.batchInlineDecode(sc, cg, inline, cached))
			resp = appendBatchItem(resp, payload, errMsg)
		}
	}
	if fr.off != len(fr.b) {
		return nil, errf(http.StatusBadRequest, "bad_batch", "trailing bytes after item %d", count)
	}
	return resp, nil
}

// appendBatchItem writes one framed item into the response arena. errMsg is
// the raw error payload: the UTF-8 message for plain batches, the binary
// status+code+message form (renderExtError) for extended ones.
func appendBatchItem(resp, payload []byte, errMsg string) []byte {
	if errMsg != "" {
		resp = append(resp, 1)
		resp = binary.LittleEndian.AppendUint32(resp, uint32(len(errMsg)))
		return append(resp, errMsg...)
	}
	resp = append(resp, 0)
	resp = binary.LittleEndian.AppendUint32(resp, uint32(len(payload)))
	return append(resp, payload...)
}

// appendLabelRun writes a u32-counted run of i32 labels.
func appendLabelRun(out []byte, labels []int) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(labels)))
	for _, l := range labels {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(l)))
	}
	return out
}

// renderExtPayload encodes the extended ok-payload: node labels, edge
// labels (empty run unless the schema labeled an edge, mirroring
// DecodeResponse.EdgeLabels), rounds, messages, table entries, cached flag.
func renderExtPayload(art *decodeArtifact, hit bool) []byte {
	edge := []int(nil)
	for _, l := range art.sol.Edge {
		if l != lcl.Unset {
			edge = art.sol.Edge
			break
		}
	}
	out := make([]byte, 0, 21+4*(len(art.sol.Node)+len(edge)))
	out = appendLabelRun(out, art.sol.Node)
	out = appendLabelRun(out, edge)
	out = binary.LittleEndian.AppendUint32(out, uint32(art.stats.Rounds))
	out = binary.LittleEndian.AppendUint32(out, uint32(art.stats.Messages))
	out = binary.LittleEndian.AppendUint32(out, uint32(art.tableEntries))
	if hit {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// renderExtError encodes an extended error payload: the typed HTTP status
// and code (via the same toAPIError mapping a direct request would get) in
// front of the message.
func renderExtError(err error) []byte {
	ae := toAPIError(err)
	out := make([]byte, 0, 4+len(ae.code)+len(ae.msg))
	out = binary.LittleEndian.AppendUint16(out, uint16(ae.status))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(ae.code)))
	out = append(out, ae.code...)
	out = append(out, ae.msg...)
	return out
}

// batchServerDecode resolves the server-advice decode once per batch; the
// rendered answer is reused verbatim for every mode-0 item.
func (s *Server) batchServerDecode(sc *schemaEntry, cg *cachedGraph, cached bool) (*decodeArtifact, bool, error) {
	advice, _, err := s.encodeAdvice(sc, cg, cached, "batch")
	if err != nil {
		return nil, false, err
	}
	advDigest := sha256hex(adviceStrings(advice)...)
	return s.decodeSolution(sc, cg, advice, advDigest, cached, "batch")
}

// batchInlineDecode handles a mode-1 item: binary advice in, labels out.
func (s *Server) batchInlineDecode(sc *schemaEntry, cg *cachedGraph, inline []byte, cached bool) (*decodeArtifact, bool, error) {
	advice, err := persist.DecodeAdvice(inline)
	if err != nil {
		return nil, false, errors.New("bad advice payload: " + err.Error())
	}
	if len(advice) != cg.g.N() {
		return nil, false, fmt.Errorf("advice covers %d nodes, graph has %d: %w",
			len(advice), cg.g.N(), local.ErrAdviceLength)
	}
	advDigest := sha256hex(adviceStrings(advice)...)
	return s.decodeSolution(sc, cg, advice, advDigest, cached, "batch")
}
