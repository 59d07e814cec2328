package netsum

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"repro/internal/query"
)

// FuzzDecodeBatch hardens the update decoder: arbitrary payloads must
// yield an error or a well-formed batch, never a panic or a huge
// allocation.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch([]Update{{Key: 1, Value: 2}, {Key: 3, Value: 4}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ups, err := decodeBatch(payload)
		if err != nil {
			return
		}
		// Round-trip must be stable for well-formed batches.
		again, err := decodeBatch(encodeBatch(ups))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(ups) {
			t.Fatalf("round trip changed length: %d vs %d", len(again), len(ups))
		}
	})
}

// FuzzReadFrame hardens the framing layer.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, msgHello, []byte{42})
	f.Add(buf.Bytes())
	f.Add([]byte{msgBatch})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(payload) > maxFrame {
			t.Fatalf("oversized payload %d accepted (type %d)", len(payload), typ)
		}
	})
}

// FuzzDecodeRequest hardens the msgExecQuery decoder: arbitrary payloads
// must yield an error or a request that re-encodes to the same field
// values, never a panic or an allocation beyond the batch limit.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodeRequest(roundTripRequest))
	f.Add(encodeRequest(query.Request{Kind: query.TopK, K: 10}))
	f.Add(appendUvarints(nil, 257, 0, 0, 0, 1, 7)) // kind truncating to Point
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		if len(req.Keys) > query.MaxBatchKeys {
			t.Fatalf("decoded %d keys, over the batch limit", len(req.Keys))
		}
		if req.Window < 0 || req.K < 0 {
			t.Fatalf("decoded negative window %d or k %d", req.Window, req.K)
		}
		again, err := decodeRequest(encodeRequest(req))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request: %+v vs %+v", again, req)
		}
	})
}

// FuzzDecodeAnswer hardens the msgExecResp decoder the same way: an
// answer decodes to an error or to values that re-encode unchanged.
func FuzzDecodeAnswer(f *testing.F) {
	f.Add(encodeAnswer(roundTripAnswer))
	f.Add(encodeAnswer(query.Answer{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ans, err := decodeAnswer(payload)
		if err != nil {
			return
		}
		if len(ans.PerKey) > query.MaxBatchKeys {
			t.Fatalf("decoded %d estimates, over the batch limit", len(ans.PerKey))
		}
		if ans.Coverage < 0 {
			t.Fatalf("decoded negative coverage %d", ans.Coverage)
		}
		again, err := decodeAnswer(encodeAnswer(ans))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, ans) {
			t.Fatalf("round trip changed the answer: %+v vs %+v", again, ans)
		}
	})
}
