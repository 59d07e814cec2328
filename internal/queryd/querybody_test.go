package queryd

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
)

// referenceQueryDecode is the encoding/json decode decodeQueryBody
// replaced.
func referenceQueryDecode(body []byte) (query.Request, error) {
	var req query.Request
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// canonicalQueryBody is the body the serving benchmark posts: a point
// batch of n keys, no whitespace.
func canonicalQueryBody(n int) []byte {
	body := []byte(`{"kind":"point","keys":[`)
	for i := range n {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendUint(body, uint64(i)*0x9e3779b97f4a7c15, 10)
	}
	return append(body, "]}"...)
}

// queryBodySeeds covers each rule decodeQueryBody shares with
// encoding/json, accepted and refused.
var queryBodySeeds = []string{
	`{"kind":"point","keys":[1,2,3]}`,
	`{"kind":"window","keys":[3,1,3],"window":4,"agent":9}`,
	`{"kind":"topk","k":10,"window":2}`,
	` {"keys" : [ 5 ] , "kind" : "point" } `,
	// kind spellings
	`{"kind":"po\u0069nt"}`,
	`{"kind":"\u0077indow"}`,
	`{"kind":"top\u006B"}`,
	`{"kind":"\/point"}`,
	`{"kind":"Point"}`,
	`{"kind":"POINT"}`,
	`{"kind":""}`,
	`{"kind":"\ud800oint"}`,
	"{\"kind\":\"point\xff\"}",
	`{"kind":1}`,
	`{"kind":0}`,
	`{"kind":255}`,
	`{"kind":256}`,
	`{"kind":-1}`,
	`{"kind":-0}`,
	`{"kind":1.0}`,
	`{"kind":1e0}`,
	`{"kind":null}`,
	`{"kind":true}`,
	`{"kind":false}`,
	`{"kind":[]}`,
	`{"kind":{}}`,
	`{"kind":"point","kind":"window"}`,
	`{"kind":"window","kind":3}`,
	// member names
	`{"KIND":"point","Keys":[1],"WINDOW":2,"K":3,"aGeNt":4}`,
	`{"\u212a":5,"\u212aind":"topk"}`,
	`{"keyſ":[1],"ſ":2}`,
	`{"ke\u0079s":[7],"\u006b":8}`,
	`{"kind ":"point","keys\u0000":[1]}`,
	// keys
	`{"keys":[]}`,
	`{"keys":null}`,
	`{"keys":[null,1,null]}`,
	`{"keys":[1,2,3],"keys":[null,null,null,null]}`,
	`{"keys":[1,2,3],"keys":[9],"keys":[null,null,null]}`,
	`{"keys":[1,2],"keys":[],"keys":[null,null]}`,
	`{"keys":[1,2],"keys":null,"keys":[null,null]}`,
	`{"keys":[1],"keys":null}`,
	`{"keys":[1],"keys":[]}`,
	`{"keys":null,"keys":[null]}`,
	`{"keys":[18446744073709551615,0]}`,
	`{"keys":[18446744073709551616]}`,
	`{"keys":[1,"2"]}`,
	`{"keys":[1.5]}`,
	`{"keys":[1e2]}`,
	`{"keys":[-1]}`,
	`{"keys":[01]}`,
	`{"keys":[true]}`,
	`{"keys":[[]]}`,
	`{"keys":{}}`,
	`{"keys":1}`,
	`{"keys":"1"}`,
	`{"keys":[1,]}`,
	`{"keys":[1 2]}`,
	// window, k, agent
	`{"k":1.0}`,
	`{"k":1e1}`,
	`{"k":-1}`,
	`{"window":-1}`,
	`{"window":-0}`,
	`{"window":-}`,
	`{"k":9223372036854775807}`,
	`{"k":9223372036854775808}`,
	`{"window":-9223372036854775808}`,
	`{"window":-9223372036854775809}`,
	`{"k":18446744073709551616}`,
	`{"k":3,"k":null}`,
	`{"k":"1"}`,
	`{"window":true}`,
	`{"window":[]}`,
	`{"agent":18446744073709551615}`,
	`{"agent":18446744073709551616}`,
	`{"agent":-0}`,
	`{"agent":5,"agent":null}`,
	`{"agent":{}}`,
	// the body as a whole
	`{"unknown":{"nested":[1,-2.5e+3,"s\"\\\/\b\f\n\r\té",true,false,null,{}]},"kind":"topk","k":1}`,
	`{"kind":"point","keys":[1]}trailing garbage`,
	`{"kind":"point","keys":[1]}}`,
	`{"kind":"point",}`,
	`{"kind":"point" "keys":[1]}`,
	`{"kind" "point"}`,
	`{"a":"\x"}`,
	`{"a":"\u12"}`,
	"{\"a\":\"ctl\x01\"}",
	`null`,
	`null trailing`,
	`nul`,
	``,
	`   `,
	`[]`,
	`42`,
	`"point"`,
	`{`,
}

// FuzzDecodeQuery is the parity check: on every input decodeQueryBody
// fails exactly when encoding/json into query.Request fails, and otherwise
// yields the identical request, the nil-ness of its keys included.
func FuzzDecodeQuery(f *testing.F) {
	f.Add(canonicalQueryBody(16))
	for _, s := range queryBodySeeds {
		f.Add([]byte(s))
	}
	// Nesting at and one past encoding/json's depth limit, which mutation
	// is unlikely to reach; the top-level object is one level.
	for _, depth := range []int{maxNesting - 1, maxNesting} {
		f.Add([]byte(`{"a":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceQueryDecode(body)
		got, err := decodeQueryBody(body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("body %q: decodeQueryBody error %v, encoding/json error %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if got.Kind != want.Kind || !slices.Equal(got.Keys, want.Keys) || (got.Keys == nil) != (want.Keys == nil) ||
			got.Window != want.Window || got.K != want.K || got.Agent != want.Agent {
			t.Fatalf("body %q: decoded %+v (nil keys %v), encoding/json %+v (nil keys %v)",
				body, got, got.Keys == nil, want, want.Keys == nil)
		}
	})
}

// TestAppendExecResponseMatchesEncoder is the differential check:
// appendExecResponse writes the bytes a json.Encoder with HTML escaping
// off writes for every shape of answer, appended after what dst already
// holds; for a value the encoder refuses, both write nothing.
func TestAppendExecResponseMatchesEncoder(t *testing.T) {
	full := query.Answer{
		PerKey:     []query.Estimate{{Key: 1, Est: 10, Lower: 7, Upper: 10}, {Key: 2}},
		Coverage:   3,
		Generation: 4,
		Source:     "sketch",
		Certified:  true,
	}
	with := func(f func(*ExecResponse)) ExecResponse {
		r := ExecResponse{Answer: full}
		f(&r)
		return r
	}
	cases := map[string]ExecResponse{
		"zero":      {},
		"full":      {Answer: full},
		"nil keys":  with(func(r *ExecResponse) { r.PerKey = nil }),
		"no keys":   with(func(r *ExecResponse) { r.PerKey = []query.Estimate{} }),
		"cached":    with(func(r *ExecResponse) { r.Cached = true }),
		"uncertain": with(func(r *ExecResponse) { r.Certified = false }),
		"max": with(func(r *ExecResponse) {
			r.PerKey = []query.Estimate{{Key: math.MaxUint64, Est: math.MaxUint64, Lower: math.MaxUint64, Upper: math.MaxUint64}}
			r.Generation = math.MaxUint64
			r.Coverage = math.MaxInt
		}),
		"negative coverage": with(func(r *ExecResponse) { r.Coverage = math.MinInt }),
		"html source":       with(func(r *ExecResponse) { r.Source = "<a href='x'>&amp;</a>" }),
		"quote source":      with(func(r *ExecResponse) { r.Source = `say "hi" \ bye /` }),
		"control source":    with(func(r *ExecResponse) { r.Source = "\x00\x01\b\f\n\r\t\x1f\x7f" }),
		"non-ASCII source":  with(func(r *ExecResponse) { r.Source = "résumé ✓ 𝄞 \u2028\u2029" }),
		"invalid source":    with(func(r *ExecResponse) { r.Source = "a\xffb\xe2\x80c\xed\xa0\x80" }),
		"NaN coverage":      with(func(r *ExecResponse) { r.KeyCoverage = math.NaN() }),
		"Inf coverage":      with(func(r *ExecResponse) { r.KeyCoverage = math.Inf(-1) }),
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.5, 1, 1e-7, 1e21, 1e-6, 9.99999e-7, 1e20, 123456789.125, 1.0 / 3, -2.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		cases["key_coverage "+strconv.FormatFloat(f, 'g', -1, 64)] = with(func(r *ExecResponse) { r.KeyCoverage = f })
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range 200 {
		f := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			f = rng.Float64()
		}
		cases["random key_coverage "+strconv.Itoa(i)] = with(func(r *ExecResponse) { r.KeyCoverage = f })
	}
	// Every field set, found by reflection: a field added to query.Answer
	// or ExecResponse that appendExecResponse does not write fails here,
	// omitempty or not.
	var every ExecResponse
	setEveryField(t, reflect.ValueOf(&every).Elem())
	cases["every field"] = every
	for name, r := range cases {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(r) // writes nothing when it refuses r
		got := appendExecResponse([]byte("prefix"), r)
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Errorf("%s:\nappendExecResponse %q\njson.Encoder       %q", name, got[len("prefix"):], want.Bytes())
		}
	}
}

// TestWriteJSONRefusedValueAnswers500: a value encoding/json refuses is
// answered with the 500 internal envelope, not a 200 with an empty body.
func TestWriteJSONRefusedValueAnswers500(t *testing.T) {
	for name, v := range map[string]any{
		"NaN":    math.NaN(),
		"status": map[string]any{"ratio": math.Inf(1)},
		"answer": ExecResponse{Answer: query.Answer{KeyCoverage: math.NaN()}},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Errorf("%s: body %q is not the error envelope: %v", name, rec.Body.Bytes(), err)
			continue
		}
		if rec.Code != http.StatusInternalServerError || eb.Error.Code != "internal" || eb.Error.Message == "" {
			t.Errorf("%s: answered %d %+v, want 500 internal", name, rec.Code, eb)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"n": 1})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"n\":1}\n" {
		t.Errorf("encodable value answered %d %q", rec.Code, rec.Body.String())
	}
}

// setEveryField gives every exported field under v a non-zero value, one
// element for slices, and fails on a kind it cannot fill.
func setEveryField(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				setEveryField(t, v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		setEveryField(t, v.Index(0))
	case reflect.String:
		v.SetString("s")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25)
	default:
		t.Fatalf("setEveryField: no value for a %s field", v.Type())
	}
}
