package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"localadvice/internal/graph"
	"localadvice/internal/harness"
	"localadvice/internal/lcl"
	"localadvice/internal/local"
)

// schemaRef is the benchmark's direct handle on one served schema: the
// problem its output is verified against, and the encoder and decoder the
// server wraps, called without the server to compute references and, in the
// traced run, to time the layers.
type schemaRef struct {
	// layer names the decoder's package in per-layer metrics ("orient",
	// "coloring"); empty for mis, whose decoder is a compiled eth table that
	// only the server holds.
	layer   string
	problem lcl.Problem
	// encode is the prover; det marks the deterministic-LLL schemas whose
	// encoder reports lll.* counters into a collector.
	encode func(g *graph.Graph) (local.Advice, error)
	det    *harness.DetSchema
	decode func(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error)
}

// schemaRefs maps server schema names onto the same harness adapters the
// server registers (internal/server/schemas.go).
func schemaRefs() map[string]schemaRef {
	fo, _ := harness.FaultSchemaByName("orient")
	do, _ := harness.DetSchemaByName("orient")
	dc, _ := harness.DetSchemaByName("color3")
	detRef := func(layer string, ds harness.DetSchema) schemaRef {
		return schemaRef{
			layer:   layer,
			problem: ds.Problem(nil),
			encode: func(g *graph.Graph) (local.Advice, error) {
				return ds.EncodeWith(harness.MethodDet, g, 0, nil)
			},
			det: &ds,
			decode: func(g *graph.Graph, advice local.Advice) (*lcl.Solution, local.Stats, error) {
				return ds.DecodeOn("ball", g, advice, local.RunConfig{DetLLL: true})
			},
		}
	}
	return map[string]schemaRef{
		"orient":    {layer: "orient", problem: fo.Problem(nil), encode: fo.Encode, decode: fo.Decode},
		"orientdet": detRef("orient", do),
		"color3det": detRef("coloring", dc),
		"mis":       {problem: lcl.MIS{}},
	}
}

// expect is the reference output of one decode: the JSON arrays the server
// must return under "labels" and "edge_labels" (nil when the problem labels
// no edges).
type expect struct {
	labels []byte
	edges  []byte
}

func expectFrom(sol *lcl.Solution) *expect {
	e := &expect{labels: mustJSON(sol.Node)}
	for _, l := range sol.Edge {
		if l != lcl.Unset {
			e.edges = mustJSON(sol.Edge)
			break
		}
	}
	return e
}

// expectMIS is the reference of the mis schema's 0-round decoder: the
// advice bit is the set-membership indicator, label 1 = in the set, 2 = out.
func expectMIS(bits []string) *expect {
	labels := make([]int, len(bits))
	for v, b := range bits {
		labels[v] = 2
		if b == "1" {
			labels[v] = 1
		}
	}
	return &expect{labels: mustJSON(labels)}
}

// reference decodes advice on g by calling the schema's decoder directly and
// verifies the output, the way the server does before it answers.
func reference(ref schemaRef, g *graph.Graph, advice local.Advice) (*expect, error) {
	sol, _, err := ref.decode(g, advice)
	if err != nil {
		return nil, fmt.Errorf("reference decode: %w", err)
	}
	if err := lcl.Verify(ref.problem, g, sol); err != nil {
		return nil, fmt.Errorf("reference output fails verification: %w", err)
	}
	return expectFrom(sol), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only slices of ints and strings are marshaled here
	}
	return b
}

func adviceText(a local.Advice) []string {
	out := make([]string, len(a))
	for v, s := range a {
		out[v] = s.String()
	}
	return out
}

// jsonArray returns the array that follows key in a response body, without
// decoding it: the checks compare it byte for byte with the reference,
// which encoding/json renders identically.
func jsonArray(body []byte, key string) []byte {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, ']')
	if j < 0 || rest[0] != '[' {
		return nil
	}
	return rest[:j+1]
}

func statusErr(code int, body []byte) error {
	if code == http.StatusOK {
		return nil
	}
	msg := string(body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("status %d: %s", code, strings.TrimSpace(msg))
}

// checkDecode accepts a decode response only if it is a 200 with
// verified:true whose labels equal the reference.
func checkDecode(code int, body []byte, want *expect) error {
	if err := statusErr(code, body); err != nil {
		return err
	}
	if !bytes.Contains(body, []byte(`"verified":true`)) {
		return errors.New("decode response is not verified")
	}
	if want == nil {
		return errors.New("no reference for this graph")
	}
	if !bytes.Equal(jsonArray(body, `"labels":`), want.labels) {
		return errors.New("labels differ from the reference")
	}
	if !bytes.Equal(jsonArray(body, `"edge_labels":`), want.edges) {
		return errors.New("edge labels differ from the reference")
	}
	return nil
}

// checkEncode accepts an encode response only if it is a 200 whose advice
// equals want (the direct encoder's advice, JSON-encoded), or, when want is
// nil, is well-formed one-bit advice; it returns the advice strings.
func checkEncode(code int, body []byte, want []byte) ([]string, error) {
	if err := statusErr(code, body); err != nil {
		return nil, err
	}
	arr := jsonArray(body, `"advice":`)
	if arr == nil {
		return nil, errors.New("encode response has no advice")
	}
	if want != nil {
		if !bytes.Equal(arr, want) {
			return nil, errors.New("advice differs from the direct encoder's")
		}
		return nil, nil
	}
	var bits []string
	if err := json.Unmarshal(arr, &bits); err != nil {
		return nil, fmt.Errorf("encode advice: %w", err)
	}
	for v, b := range bits {
		if b != "0" && b != "1" {
			return nil, fmt.Errorf("node %d holds advice %q, want one bit", v, b)
		}
	}
	return bits, nil
}
