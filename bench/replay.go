package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// replayer measures the sub-layer costs no public boundary of the running
// server exposes, by replaying a traced run's own requests through the
// functions the server calls: JSON decode into query.Request and the
// ingest body, encode of queryd.ExecResponse and ingest.Ack,
// sketch.QueryBatch, plus sketch.InsertBatch of S and the sketch's
// insertion failures. One request in every replayEvery of each kind is
// replayed as it is sent, on the sending goroutine, so the replays sample
// the machine across the whole phase as the spans they are compared with
// do: on a shared host, the same ingest decode replayed once right after
// the phase read from 0.6 to 1.0 ms between runs, at times more than the
// handler spent on the whole request.
type replayer struct {
	mu               sync.Mutex // one replay at a time: they share the sketch and buffers
	queries, ingests int        // requests seen, for sampling

	sk  sketch.Sketch // S inserted: answers the replayed queries
	out bytes.Buffer
	enc *json.Encoder

	queryDecode, ingestDecode, queryEncode, ackEncode, lookup timing
	keys                                                      int
	insertNsPerItem                                           float64
	insertionFailures                                         uint64
	err                                                       error
}

// timing sums replayed call times.
type timing struct {
	total time.Duration
	n     int
}

func (t *timing) add(d time.Duration) { t.total += d; t.n++ }
func (t timing) meanUs() float64      { return ratio(float64(t.total)/1e3, float64(t.n)) }

// replayEvery is the sampling stride: a replay costs about three of its
// requests' server time (each call is timed three times), so one in 32
// adds a tenth at most to a traced phase and still gives hundreds of
// samples per run.
const replayEvery = 32

// newReplayer inserts S into a fresh sketch of the served spec, timing
// sketch.InsertBatch.
func newReplayer(spec sketch.Spec, in *input) (*replayer, error) {
	rp := &replayer{sk: sketch.MustBuild(algo, spec)}
	rp.enc = json.NewEncoder(&rp.out)
	rp.enc.SetEscapeHTML(false) // as queryd's writeJSON
	var insert time.Duration
	for lo := 0; lo < len(in.items); lo += batchItems {
		b := in.items[lo:min(lo+batchItems, len(in.items))]
		t0 := time.Now()
		sketch.InsertBatch(rp.sk, b)
		insert += time.Since(t0)
	}
	rp.insertNsPerItem = ratio(float64(insert), float64(len(in.items)))
	cs, ok := rp.sk.(*core.Sketch)
	if !ok {
		return nil, fmt.Errorf("%s builds %T, not a core.Sketch", algo, rp.sk)
	}
	rp.insertionFailures, _ = cs.InsertionFailures()
	return rp, nil
}

// add is called with every request body about to be sent and replays one
// in replayEvery of each kind; a nil replayer (untraced run) ignores it.
func (rp *replayer) add(path string, body []byte) {
	if rp == nil {
		return
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.err != nil {
		return
	}
	if path == "/v2/ingest" {
		if rp.ingests++; rp.ingests%replayEvery == 1 {
			rp.err = rp.replayIngest(body)
		}
	} else if rp.queries++; rp.queries%replayEvery == 1 {
		rp.err = rp.replayQuery(body)
	}
}

func (rp *replayer) replayQuery(body []byte) error {
	var req query.Request
	d, err := fastest(func() error {
		req = query.Request{}
		return json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	})
	if err != nil {
		return fmt.Errorf("replaying query decode: %w", err)
	}
	rp.queryDecode.add(d)
	resp := rp.answer(req.Keys)
	if d, err = fastest(func() error {
		rp.out.Reset()
		return rp.enc.Encode(resp)
	}); err != nil {
		return err
	}
	rp.queryEncode.add(d)
	return nil
}

func (rp *replayer) replayIngest(body []byte) error {
	var b ingest.Batch
	d, err := fastest(func() (err error) {
		b, err = decodeIngest(body)
		return err
	})
	if err != nil {
		return fmt.Errorf("replaying ingest decode: %w", err)
	}
	rp.ingestDecode.add(d)
	if d, err = fastest(func() error {
		rp.out.Reset()
		return rp.enc.Encode(ingest.Ack{Accepted: len(b.Items)})
	}); err != nil {
		return err
	}
	rp.ackEncode.add(d)
	return nil
}

// answer runs keys through sketch.QueryBatch, timing it, and shapes the
// result as the server's response.
func (rp *replayer) answer(keys []uint64) queryd.ExecResponse {
	est := make([]uint64, len(keys))
	mpe := make([]uint64, len(keys))
	t0 := time.Now()
	sketch.QueryBatch(rp.sk, keys, est, mpe)
	rp.lookup.add(time.Since(t0))
	rp.keys += len(keys)
	return queryd.ExecResponse{Answer: query.Answer{
		PerKey: query.EstimatesFrom(keys, est, mpe), Source: "sketch", Certified: true,
	}}
}

// replayStats are the replayed costs, per call.
type replayStats struct {
	queryDecodeUs, ingestDecodeUs float64 // JSON body → query.Request / ingest.Batch
	queryEncodeUs, ackEncodeUs    float64 // queryd.ExecResponse / ingest.Ack → JSON
	insertNsPerItem               float64 // sketch.InsertBatch
	queryNsPerKey                 float64 // sketch.QueryBatch
	insertionFailures             uint64  // core.Sketch.InsertionFailures after inserting S
}

// stats reports the replays. A workload that sent no queries looks up
// S's distinct keys in sweep-sized batches for the sketch query cost.
func (rp *replayer) stats(in *input) (replayStats, error) {
	if rp.lookup.n == 0 {
		for lo := 0; lo < len(in.keys); lo += sweepKeys {
			rp.answer(in.keys[lo:min(lo+sweepKeys, len(in.keys))])
		}
	}
	return replayStats{
		queryDecodeUs:     rp.queryDecode.meanUs(),
		ingestDecodeUs:    rp.ingestDecode.meanUs(),
		queryEncodeUs:     rp.queryEncode.meanUs(),
		ackEncodeUs:       rp.ackEncode.meanUs(),
		insertNsPerItem:   rp.insertNsPerItem,
		queryNsPerKey:     ratio(float64(rp.lookup.total), float64(rp.keys)),
		insertionFailures: rp.insertionFailures,
	}, rp.err
}

// ingestBody is the JSON shape queryd decodes /v2/ingest bodies into, so
// the replayed decode does the handler's work: tagged fields, then a copy
// into the typed batch with zero values counting as 1.
type ingestBody struct {
	Items []struct {
		Key   uint64 `json:"key"`
		Value uint64 `json:"value"`
	} `json:"items"`
	Source uint64 `json:"source"`
	Epoch  uint64 `json:"epoch"`
}

func decodeIngest(body []byte) (ingest.Batch, error) {
	var req ingestBody
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return ingest.Batch{}, err
	}
	items := make([]stream.Item, len(req.Items))
	for i, it := range req.Items {
		items[i] = stream.Item{Key: it.Key, Value: max(it.Value, 1)}
	}
	return ingest.Batch{Items: items, Source: req.Source, Epoch: req.Epoch}, nil
}

// fastest times f a few times and keeps the fastest run: the call's own
// cost, without the collector pauses and scheduling a single timing may
// absorb.
func fastest(f func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for range 3 {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0))
	}
	return best, nil
}
