package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queryd"
)

// reqIDs numbers traced requests across every stack of a run.
var reqIDs atomic.Uint64

// client drives one stack over at most conns persistent HTTP/1.1
// connections. Each request runs on its caller's goroutine from the write
// to the last response byte: unlike http.Transport, no per-connection
// reader and writer goroutines sit between the load generator and the
// wire, so a request costs two scheduler wake-ups (server, then client)
// instead of four, and the client's own share of the two CPUs stays small.
type client struct {
	addr string
	pool chan *conn // conns slots; nil until first dialed
	// tr, when set, gives every timed request an id header and a client
	// span. Sweeps and scrapes stay untraced.
	tr *tracer
}

type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte // request being written
}

func newClient(url string, conns int, tr *tracer) *client {
	c := &client{addr: strings.TrimPrefix(url, "http://"), pool: make(chan *conn, conns), tr: tr}
	for range conns {
		c.pool <- nil
	}
	return c
}

// close closes every connection; no request may be in flight.
func (c *client) close() {
	for range cap(c.pool) {
		if cn := <-c.pool; cn != nil {
			cn.nc.Close()
		}
	}
}

// do sends one request on a pooled connection and reads the whole response
// body into out, returning the status code.
func (c *client) do(method, path string, body []byte, id uint64, out *bytes.Buffer) (status int, err error) {
	cn := <-c.pool
	defer func() {
		if err != nil && cn != nil {
			cn.nc.Close()
			cn = nil
		}
		c.pool <- cn
	}()
	if cn == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, err
		}
		cn = &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	}
	b := append(cn.buf[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if id != 0 {
		b = append(b, "\r\n"+reqHeader+": "...)
		b = strconv.AppendUint(b, id, 10)
	}
	b = append(b, "\r\n\r\n"...)
	cn.buf = append(b, body...)
	if _, err := cn.nc.Write(cn.buf); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, err
	}
	out.Reset()
	_, err = out.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = errors.New("server closed the connection")
	}
	return resp.StatusCode, err
}

// post sends one request and reads the whole response into out. A
// transport error or a non-2xx status is an error.
func (c *client) post(path string, body []byte, n int, timed bool, out *bytes.Buffer) error {
	var id uint64
	var start int64
	if timed && c.tr != nil {
		id = reqIDs.Add(1)
		start = c.tr.now()
	}
	status, err := c.do(http.MethodPost, path, body, id, out)
	if id != 0 {
		c.tr.record(span{req: id, kind: spanClient, n: int32(n), start: start, end: c.tr.now()})
	}
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("POST %s: %d: %s", path, status, bytes.TrimSpace(out.Bytes()))
	}
	return nil
}

// get fetches path into out.
func (c *client) get(path string, out *bytes.Buffer) error {
	status, err := c.do(http.MethodGet, path, nil, 0, out)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: %d", path, status)
	}
	return err
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	requests, failed int64
	samples          []sample
	elapsed          time.Duration
	firstErr         error
}

// sample is one successful request: when it completed, from its phase's
// start, its latency, and the keys or items it carried.
type sample struct {
	at time.Duration
	ms float64
	n  int
}

func (p *phaseStats) add(q phaseStats) {
	p.requests += q.requests
	p.failed += q.failed
	p.samples = append(p.samples, q.samples...)
	p.elapsed += q.elapsed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p *phaseStats) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p phaseStats) latencies() []float64 {
	ms := make([]float64, len(p.samples))
	for i, s := range p.samples {
		ms[i] = s.ms
	}
	return ms
}

// window summarizes one equal slice of a timed phase.
type window struct {
	rate      float64 // keys or items completed per second
	mean, p90 float64 // ms, over the requests completing in it; 0 if none
	requests  int
}

// windows splits the phase into equal windows about w long, at least one.
// Metrics are medians over windows, so a stall or a noisy neighbour that
// spoils part of a run moves them less than a whole-run figure.
func (p phaseStats) windows(w time.Duration) []window {
	n := max(1, int(p.elapsed/w))
	length := p.elapsed / time.Duration(n)
	lat := make([][]float64, n)
	units := make([]int, n)
	for _, s := range p.samples {
		i := min(int(s.at/length), n-1)
		lat[i] = append(lat[i], s.ms)
		units[i] += s.n
	}
	out := make([]window, n)
	for i := range out {
		out[i] = window{
			rate:     float64(units[i]) / length.Seconds(),
			mean:     mean(lat[i]),
			p90:      quantile(lat[i], 0.9),
			requests: len(lat[i]),
		}
	}
	return out
}

// ackOK checks an ingest Ack: a batch the server dropped is a failed
// request even though it answered 200.
func ackOK(body []byte) error {
	if !bytes.Contains(body, []byte(`"dropped":0,`)) {
		return fmt.Errorf("ingest ack reports dropped items: %s", bytes.TrimSpace(body))
	}
	return nil
}

// bodySource builds the next request body into dst, returning the keys or
// items it carries; ok false means the phase's fixed work is done.
type bodySource func(dst []byte) (body []byte, n int, ok bool)

// closedLoop runs conns workers, each sending its next request as soon as
// the previous one is answered, until next runs out or the deadline
// passes (a zero deadline runs until next runs out). next is called under
// one lock, so the request sequence is deterministic whichever worker
// sends each request.
//
// Every timed phase is a closed loop. An open loop at a fixed rate turns a
// slower host into a longer queue, which raises its latency percentiles
// far more than the slowdown itself: on a 2-vCPU VM, five query_hot runs
// with open-loop latency at 4500 queries/s spread (interquartile range
// over median) by 0.41 at p50 and 1.06 at p90.
func (c *client) closedLoop(conns int, deadline time.Time, path string, next bodySource, check func([]byte) error) phaseStats {
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := make([]phaseStats, conns)
	start := time.Now()
	for w := range per {
		wg.Add(1)
		go func(ps *phaseStats) {
			defer wg.Done()
			var buf []byte
			var out bytes.Buffer
			for deadline.IsZero() || time.Now().Before(deadline) {
				mu.Lock()
				body, n, ok := next(buf[:0])
				mu.Unlock()
				if !ok {
					return
				}
				buf = body
				t0 := time.Now()
				err := c.post(path, body, n, true, &out)
				if err == nil && check != nil {
					err = check(out.Bytes())
				}
				ps.requests++
				if err != nil {
					ps.fail(err)
					continue
				}
				now := time.Now()
				ps.samples = append(ps.samples, sample{now.Sub(start), float64(now.Sub(t0)) / 1e6, n})
			}
		}(&per[w])
	}
	wg.Wait()
	var total phaseStats
	for _, ps := range per {
		total.add(ps)
	}
	total.elapsed = time.Since(start)
	return total
}

// sweepResult is the correctness sweep's verdict over every distinct key.
type sweepResult struct {
	requests   int64
	violations int // certified intervals that exclude the true count
	overLambda int // estimates off the true count by more than Λ
}

// sweep queries every key over /v2/query in sweepKeys batches on conns
// connections and checks each answer against truth. A missing, misaligned
// or uncertified answer is an error: the check could not be made.
func (c *client) sweep(conns int, keys []uint64, truth func(uint64) uint64) (sweepResult, error) {
	var mu sync.Mutex
	var res sweepResult
	var errs []error
	var wg sync.WaitGroup
	var nextBatch atomic.Int64
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			var out bytes.Buffer
			for {
				lo := int(nextBatch.Add(1)-1) * sweepKeys
				if lo >= len(keys) {
					return
				}
				batch := keys[lo:min(lo+sweepKeys, len(keys))]
				body = appendQueryBody(body[:0], batch)
				r, err := c.checkBatch(body, batch, truth, &out)
				mu.Lock()
				res.requests++
				res.violations += r.violations
				res.overLambda += r.overLambda
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return res, errors.Join(errs...)
}

func (c *client) checkBatch(body []byte, keys []uint64, truth func(uint64) uint64, out *bytes.Buffer) (sweepResult, error) {
	var res sweepResult
	if err := c.post("/v2/query", body, len(keys), false, out); err != nil {
		return res, err
	}
	var resp queryd.ExecResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		return res, fmt.Errorf("decoding sweep answer: %w", err)
	}
	if !resp.Certified {
		return res, errors.New("sweep answer is not certified")
	}
	if len(resp.PerKey) != len(keys) {
		return res, fmt.Errorf("sweep asked %d keys, got %d answers", len(keys), len(resp.PerKey))
	}
	for i, e := range resp.PerKey {
		if e.Key != keys[i] {
			return res, fmt.Errorf("sweep answer %d is for key %d, asked %d", i, e.Key, keys[i])
		}
		t := truth(e.Key)
		if t < e.Lower || t > e.Upper {
			res.violations++
		}
		if max(e.Est, t)-min(e.Est, t) > lambda {
			res.overLambda++
		}
	}
	return res, nil
}
