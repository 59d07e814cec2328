package queryd

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// insertRequest is the ingest body shape the endpoints once decoded with
// encoding/json; it stays here as the reference decodeIngestBody must
// match.
type insertRequest struct {
	Items []struct {
		Key   uint64 `json:"key"`
		Value uint64 `json:"value"`
	} `json:"items"`
	Source uint64 `json:"source"`
	Epoch  uint64 `json:"epoch"`
}

// referenceDecode is the encoding/json decode decodeIngestBody replaced.
func referenceDecode(body []byte) (ingest.Batch, error) {
	var req insertRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return ingest.Batch{}, err
	}
	items := make([]stream.Item, len(req.Items))
	for i, it := range req.Items {
		v := it.Value
		if v == 0 {
			v = 1
		}
		items[i] = stream.Item{Key: it.Key, Value: v}
	}
	return ingest.Batch{Items: items, Source: req.Source, Epoch: req.Epoch}, nil
}

// canonicalIngestBody is the body the serving benchmark posts: n zipf keys
// with unit values, keys before values, no whitespace.
func canonicalIngestBody(n int) []byte {
	s := stream.NewZipfSampler(1<<16, 1.1, 1)
	body := []byte(`{"items":[`)
	for i := range n {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"key":`...)
		body = strconv.AppendUint(body, s.Next(), 10)
		body = append(body, `,"value":1}`...)
	}
	return append(body, "]}"...)
}

// routerIngestBody is the body cluster.Router forwards to a replica:
// json.Marshal of a map, so the members arrive sorted.
func routerIngestBody(t testing.TB) []byte {
	type wireItem struct {
		Key   uint64 `json:"key"`
		Value uint64 `json:"value"`
	}
	body, err := json.Marshal(map[string]any{
		"items":  []wireItem{{Key: 1, Value: 2}, {Key: 1 << 63, Value: 0}},
		"source": 7,
		"epoch":  uint64(1<<64 - 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// ingestBodySeeds covers each rule decodeIngestBody shares with
// encoding/json, accepted and refused.
var ingestBodySeeds = []string{
	`{"key":777}`,
	`{"items":[{"key":777}]}`,
	`{"items":[{"key":12345,"value":3},{"key":777}],"source":7,"epoch":42}`,
	` {"items" : [ {"value":0 , "key":5} ] } `,
	"\t\r\n{\"items\":[]}\n",
	`null`,
	`null trailing`,
	`{"items":null}`,
	`{"items":[null,{"key":1},null]}`,
	`{"items":[{"key":null,"value":null}],"source":null,"epoch":null}`,
	`{"ITEMS":[{"KEY":1,"Value":2}],"Source":3,"ePoCh":4}`,
	`{"items":[{"key":1,"key":2}],"source":1,"source":2}`,
	`{"items":[{"key":1,"value":5},{"key":2,"value":6}],"items":[{"key":3}]}`,
	`{"items":[{"key":1},{"key":2}],"items":[{}],"items":[{},{}]}`,
	`{"items":[{"key":1},{"key":2}],"items":[],"items":[{},{}]}`,
	`{"items":[{"key":1},{"key":2}],"items":null,"items":[{},{}]}`,
	`{"items":[{"key":9}],"source":1}`,
	`{"items":[{"Key":9,"ſ":1}],"ſource":2,"İtems":[]}`,
	`{"items":[{"𐀀key":1,"ke\ud800y":2}]}`,
	`{"items":[{"\u212aey":5,"va\u006Cue":6}],"\u0073ource":7}`,
	`{"items":[{"key":1,"\ud834\udd1e":2,"\ud800\u0041":3}]}`,
	`{"items":[{"key":1,"value":5}],"items":[null]}`,
	`{"unknown":{"nested":[1,-2.5e+3,"s\"\\\/\b\f\n\r\té",true,false,null,{}]},"items":[{"key":1,"x":[[]]}]}`,
	`{"items":[{"key":1}]}trailing garbage`,
	`{"items":[{"key":1}]}}`,
	`{"items":[{"key":01}]}`,
	`{"items":[{"key":1e3}]}`,
	`{"items":[{"key":-1}]}`,
	`{"items":[{"key":1.0}]}`,
	`{"items":[{"key":18446744073709551615}]}`,
	`{"items":[{"key":18446744073709551616}]}`,
	`{"items":[{"key":"5"}]}`,
	`{"items":[{"key":true}]}`,
	`{"items":[{"key":{}}]}`,
	`{"items":[1]}`,
	`{"items":{}}`,
	`{"source":-0}`,
	`{"items":[{"key":1}`,
	`{"items":[{"key":1},]}`,
	`{"items":[{"key":1}],}`,
	`{"items" [{"key":1}]}`,
	`{"a":"unterminated}`,
	`{"a":"\x"}`,
	`{"a":"\u12"}`,
	"{\"a\":\"ctl\x01\"}",
	"{\"a\":\"\xff\xfe\"}",
	`[]`,
	`"items"`,
	`42`,
	`tru`,
	`nul`,
	``,
	`   `,
	`{`,
	`{"a":[[[[[[[[[[]]]]]]]]]]}`,
}

// FuzzDecodeIngest is the parity check: on every input decodeIngestBody
// fails exactly when encoding/json into insertRequest fails, and otherwise
// yields the identical batch.
func FuzzDecodeIngest(f *testing.F) {
	f.Add(canonicalIngestBody(16))
	f.Add(routerIngestBody(f))
	for _, s := range ingestBodySeeds {
		f.Add([]byte(s))
	}
	// Nesting at and one past encoding/json's depth limit, which mutation
	// is unlikely to reach; the top-level object is one level.
	for _, depth := range []int{maxNesting - 1, maxNesting} {
		f.Add([]byte(`{"a":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceDecode(body)
		got, err := decodeIngestBody(body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("body %q: decodeIngestBody error %v, encoding/json error %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(got.Items, want.Items) || got.Source != want.Source || got.Epoch != want.Epoch {
			t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, got, want)
		}
	})
}

// TestDecodeIngestAllocs pins the decoder's cost: the items slice is its
// only allocation.
func TestDecodeIngestAllocs(t *testing.T) {
	body := canonicalIngestBody(1024)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeIngestBody(body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("decoding a 1024-item body allocates %v times, want 1 (the items)", allocs)
	}
}

// BenchmarkDecodeIngest decodes the serving benchmark's 1024-item body.
func BenchmarkDecodeIngest(b *testing.B) {
	body := canonicalIngestBody(1024)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeIngestBody(body); err != nil {
			b.Fatal(err)
		}
	}
}
