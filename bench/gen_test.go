package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/stream"
)

// inputs hashes the ingest and query bodies the workloads build from the
// first n batches of S.
func inputs(t *testing.T, seed uint64, n int) ([32]byte, *input) {
	t.Helper()
	in, err := newInput(5000, n*batchItems, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.close() })
	r := &run{cfg: config{seed: seed}, in: in}
	h := sha256.New()
	var body []byte
	for _, next := range []bodySource{r.ingestSource(in.items), r.querySource(in.items, 64), r.coldSource(256)} {
		for range n {
			b, _, ok := next(body[:0])
			if !ok {
				break
			}
			body = b
			h.Write(body)
		}
	}
	return [32]byte(h.Sum(nil)), in
}

func TestInputsDeterministic(t *testing.T) {
	h1, in1 := inputs(t, 7, 20)
	h2, in2 := inputs(t, 7, 20)
	if h1 != h2 {
		t.Fatal("same seed gave different request bodies")
	}
	if !slices.Equal(in1.keys, in2.keys) || !slices.Equal(in1.counts, in2.counts) {
		t.Fatal("same seed gave different oracles")
	}
	var total uint64
	for i, c := range in1.counts {
		total += c
		if in1.truth(in1.keys[i]) != c {
			t.Fatalf("truth(%d) = %d, want %d", in1.keys[i], in1.truth(in1.keys[i]), c)
		}
	}
	if total != uint64(len(in1.items)) {
		t.Fatalf("oracle counts %d items, S has %d", total, len(in1.items))
	}
	h3, in3 := inputs(t, 8, 20)
	if h3 == h1 || slices.Equal(in1.keys, in3.keys) {
		t.Fatal("different seeds gave the same inputs")
	}
}

// TestBodiesDecodeAsServerTypes decodes the bodies into the types queryd
// decodes them into, and posts an ingest body to a real stack, whose own
// decoder must accept every item.
func TestBodiesDecodeAsServerTypes(t *testing.T) {
	g := NewGenerator(1000, 3)
	items := make([]stream.Item, 100)
	g.Next(items)

	body := appendIngestBody(nil, items)
	b, err := decodeIngest(body)
	if err != nil {
		t.Fatalf("ingest body %s: %v", body[:40], err)
	}
	if !slices.Equal(b.Items, items) {
		t.Fatal("ingest body decodes to different items")
	}
	keys := g.Keys()
	var req query.Request
	if err := json.Unmarshal(appendQueryBody(nil, keys), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Validate(); err != nil || req.Kind != query.Point || !slices.Equal(req.Keys, keys) {
		t.Fatalf("query body decodes to %+v (validate: %v)", req, err)
	}

	st, err := openStack(sketchSpec(len(items)), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.close(); err != nil {
			t.Error(err)
		}
	}()
	c := newClient(st.url, 1, nil)
	defer c.close()
	var out bytes.Buffer
	if err := c.post("/v2/ingest", body, len(items), false, &out); err != nil {
		t.Fatal(err)
	}
	var ack ingest.Ack
	if err := json.Unmarshal(out.Bytes(), &ack); err != nil || ack.Accepted != len(items) || ack.Dropped != 0 {
		t.Fatalf("ack %s (%v), want %d accepted", out.Bytes(), err, len(items))
	}
	if err := ackOK(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	res, err := c.sweep(1, keys, g.Truth)
	if err != nil || res.violations != 0 {
		t.Fatalf("sweep after ingest: %+v, %v", res, err)
	}
}

// TestGeneratorMemoryBoundedByDistinctKeys checks the generator keeps no
// per-item state: ten times the items leaves its retained heap unchanged.
func TestGeneratorMemoryBoundedByDistinctKeys(t *testing.T) {
	g := NewGenerator(1000, 1)
	batch := make([]stream.Item, batchItems)
	emit := func(n int) uint64 {
		for range n {
			g.Next(batch)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := emit(100) // 100k items: every one of 1000 keys seen
	after := emit(1000) // 1M more
	runtime.KeepAlive(g)
	if len(g.oracle) > 1000 {
		t.Fatalf("oracle holds %d keys, support is 1000", len(g.oracle))
	}
	// 1M retained items would be 16 MB; allow noise far below that.
	if grow := int64(after) - int64(before); grow > 1<<20 {
		t.Fatalf("retained heap grew %d bytes over 1M items", grow)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if fmt.Sprint(q1, q2, q3) != "2.75 5.5 8.25" {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); fmt.Sprint(q1, q2, q3) != "1 2 3" {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
