package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
)

// Span kinds, one per layer boundary visible from outside the program.
const (
	spanClient  uint8 = iota // client round trip: send to last response byte
	spanHandler              // queryd.Server.Handler() serving the request
	spanExecute              // Backend.Execute called by that handler
	spanIngest               // Backend.Ingest called by that handler
)

var (
	spanNames   = [...]string{"client", "handler", "execute", "ingest"}
	spanParents = [...]string{"", "client", "handler", "handler"}
)

// reqHeader carries the client's request id to the handler middleware.
const reqHeader = "X-Bench-Req"

// span is one timed call. Spans of one request share req; the parent of a
// span is the request's span of kind spanParents[kind].
type span struct {
	req        uint64
	kind       uint8
	n          int32 // keys or items the call carried
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// running maps a goroutine id to the request its handler is serving,
	// so backend calls made on that goroutine attach to the handler span.
	running map[uint64]uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), running: make(map[uint64]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// middleware records a handler span for every request that carries a
// request id. Requests without one (correctness sweeps, scrapes) pass
// through unrecorded.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		g := goid()
		t.mu.Lock()
		t.running[g] = id
		t.mu.Unlock()
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		t.mu.Lock()
		delete(t.running, g)
		t.spans = append(t.spans, span{req: id, kind: spanHandler, start: start, end: end})
		t.mu.Unlock()
	})
}

// parent returns the request whose handler runs on the calling goroutine.
func (t *tracer) parent() (uint64, bool) {
	g := goid()
	t.mu.Lock()
	id, ok := t.running[g]
	t.mu.Unlock()
	return id, ok
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). Only traced runs pay for it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// tracedBackend times the backend calls queryd's handlers make. Embedding
// the concrete backend forwards every other method, Ingest's and
// RegisterMetrics' interfaces included: queryd.New finds the write surface
// and the ingest_*/wal_* series by type assertion, and would silently lose
// both behind a narrower wrapper.
type tracedBackend struct {
	*queryd.SketchBackend
	tr *tracer
}

func (b *tracedBackend) Execute(req query.Request) (query.Answer, error) {
	id, ok := b.tr.parent()
	if !ok {
		return b.SketchBackend.Execute(req)
	}
	start := b.tr.now()
	ans, err := b.SketchBackend.Execute(req)
	b.tr.record(span{req: id, kind: spanExecute, n: int32(len(req.Keys)), start: start, end: b.tr.now()})
	return ans, err
}

func (b *tracedBackend) Ingest(batch ingest.Batch) ingest.Ack {
	id, ok := b.tr.parent()
	if !ok {
		return b.SketchBackend.Ingest(batch)
	}
	start := b.tr.now()
	ack := b.SketchBackend.Ingest(batch)
	b.tr.record(span{req: id, kind: spanIngest, n: int32(len(batch.Items)), start: start, end: b.tr.now()})
	return ack
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"req":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d,"n":%d}`+"\n",
			s.req, spanNames[s.kind], spanParents[s.kind], s.start, s.end, s.n)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarizes the spans by layer.
type spanStats struct {
	clientP50Us, handlerMeanUs, handlerP50Us, transportMeanUs float64
	executeMeanUs, executeKeysPerCall, ingestMeanUs           float64
	// backendPerReqUs is all backend span time over all handler spans: the
	// share of a mean handler span spent inside the backend.
	backendPerReqUs float64
}

func (t *tracer) stats() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	type pair struct{ client, handler int64 }
	byReq := make(map[uint64]*pair)
	get := func(id uint64) *pair {
		p := byReq[id]
		if p == nil {
			p = &pair{client: -1, handler: -1}
			byReq[id] = p
		}
		return p
	}
	var client, handler []float64
	var execSum, ingSum, execKeys float64
	var execN, ingN int
	for _, s := range t.spans {
		d := float64(s.end-s.start) / 1e3
		switch s.kind {
		case spanClient:
			client = append(client, d)
			get(s.req).client = s.end - s.start
		case spanHandler:
			handler = append(handler, d)
			get(s.req).handler = s.end - s.start
		case spanExecute:
			execSum += d
			execKeys += float64(s.n)
			execN++
		case spanIngest:
			ingSum += d
			ingN++
		}
	}
	var transport float64
	var paired int
	for _, p := range byReq {
		if p.client >= 0 && p.handler >= 0 {
			transport += float64(p.client-p.handler) / 1e3
			paired++
		}
	}
	return spanStats{
		clientP50Us:        quantile(client, 0.5),
		handlerMeanUs:      mean(handler),
		handlerP50Us:       quantile(handler, 0.5),
		transportMeanUs:    ratio(transport, float64(paired)),
		executeMeanUs:      ratio(execSum, float64(execN)),
		executeKeysPerCall: ratio(execKeys, float64(execN)),
		ingestMeanUs:       ratio(ingSum, float64(ingN)),
		backendPerReqUs:    ratio(execSum+ingSum, float64(len(handler))),
	}
}
