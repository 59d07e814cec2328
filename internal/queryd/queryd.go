package queryd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/rcache"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
)

// Config tunes the server. The zero value is usable: a 4096-entry sharded
// LRU cache, 250ms TTL for live answers, query-plane batch limits, and no
// checkpointing. The result cache fronts top-k only; /v2/query point and
// window batches are never cached.
type Config struct {
	// CacheCapacity bounds the result cache (entries); ≤ 0 means 4096.
	CacheCapacity int
	// CacheTTL is how long live-window (cumulative) answers stay fresh;
	// ≤ 0 means 250ms. Sealed-window answers ignore it — they are immutable
	// and cache until their generation is superseded.
	CacheTTL time.Duration
	// CachePolicy names the eviction/admission policy: rcache.PolicyLRU
	// (the default), rcache.PolicyS3FIFO, or rcache.PolicyTinyLFU. Unknown
	// names fail New.
	CachePolicy string
	// CacheShards is the result cache's shard count (rounded up to a power
	// of two); ≤ 0 means rcache.DefaultShards.
	CacheShards int
	// CacheSWR is the stale-while-revalidate window appended after
	// CacheTTL: an expired live answer still inside it is served
	// immediately while one background flight refreshes the entry. Sound
	// because a certified interval stays a correct interval for the state
	// it was computed from — staleness costs freshness, never soundness.
	// Zero disables SWR.
	CacheSWR time.Duration
	// MaxBatch caps the keys of one /v2/query request; ≤ 0 means the
	// query-plane-wide query.MaxBatchKeys. Values above that are clamped —
	// the shared limit protects every surface identically.
	MaxBatch int
	// CheckpointPath, when set with CheckpointEvery, periodically
	// checkpoints the backend (it must implement Checkpointer) and writes a
	// final checkpoint on Close.
	CheckpointPath  string
	CheckpointEvery time.Duration
	// Algo and Spec describe the backend's sketch for checkpoint headers.
	Algo string
	Spec sketch.Spec
	// Logf receives server diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Clock overrides time for cache TTLs (tests); nil means wall time.
	Clock func() time.Time
	// Metrics is the registry the server registers its instruments on (and
	// serves at GET /metrics); nil builds a fresh one. Each server needs its
	// own registry — registering two servers on one panics on the duplicate
	// series, exactly like registering the same sketch variant twice.
	Metrics *telemetry.Registry
	// DisableMetrics drops the GET /metrics route. Instruments still
	// register and /v1/status still reads them; only the Prometheus
	// exposition endpoint disappears (rsserve -metrics=false).
	DisableMetrics bool
}

// Server is the HTTP/JSON query server: it fronts a Backend with
//
//	POST /v2/query                one typed query.Request batch — N keys,
//	                              per-key certified bounds, one round trip
//	POST /v2/ingest               one typed ingest.Batch (items + source +
//	                              epoch tag), answered with Ack JSON
//	GET  /v1/status               backend + cache + checkpoint counters
//	POST /v1/checkpoint           checkpoint on demand
//
// plus the replication routes (/v2/delta, /v2/replicate) and GET /metrics.
// /v2/query point and window batches go straight to the backend in one
// batch, uncached, so they always see the writes acked before them; top-k
// goes through the epoch-aware result cache, whole. Errors are a
// consistent JSON envelope: {"error":{"code":"...","message":"..."}}.
type Server struct {
	b     Backend
	cfg   Config
	cache *rcache.Cache
	mux   *http.ServeMux

	// reg is the telemetry plane: every subsystem the server fronts
	// (backend, pipeline, WAL, ring, cache) registers the SAME instruments
	// its JSON status reads, and GET /metrics serves them in Prometheus
	// text format.
	reg       *telemetry.Registry
	batchKeys *telemetry.Histogram

	ckptOK      telemetry.Counter
	ckptFailed  telemetry.Counter
	ckptSeconds *telemetry.Histogram

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// ckptRun serializes whole checkpoint writes: two concurrent cuts would
	// race the backend's cut LSN against the file each cut belongs in, and
	// a WAL truncation must commit the checkpoint that defined its cut.
	ckptRun  sync.Mutex
	ckptMu   sync.Mutex
	lastCkpt time.Time
	ckptErr  error
}

// WALBacked is implemented by backends whose ingest is write-ahead logged;
// both SketchBackend and CollectorBackend answer it from their wal.Journal,
// which owns the cut. The server closes the durability loop: after a
// checkpoint file lands (tmp + fsync + rename + dir fsync),
// CheckpointCommitted lets the backend advance its WAL watermark through
// CutLSN and truncate dead segments.
type WALBacked interface {
	// CutLSN is the WAL position the backend's most recent Checkpoint cut
	// covered; the snapshot in that checkpoint holds every record at or
	// below it.
	CutLSN() uint64
	// CheckpointCommitted reports that the checkpoint holding the last cut
	// is durable, so the WAL may truncate through it.
	CheckpointCommitted() error
}

// New builds a server over b. Close it to stop background checkpointing.
func New(b Backend, cfg Config) (*Server, error) {
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 4096
	}
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = 250 * time.Millisecond
	}
	policy, err := rcache.ParsePolicy(cfg.CachePolicy)
	if err != nil {
		return nil, fmt.Errorf("queryd: %w", err)
	}
	if cfg.MaxBatch <= 0 || cfg.MaxBatch > query.MaxBatchKeys {
		cfg.MaxBatch = query.MaxBatchKeys
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	s := &Server{
		b:   b,
		cfg: cfg,
		cache: rcache.New(rcache.Config{
			Capacity: cfg.CacheCapacity,
			Shards:   cfg.CacheShards,
			Policy:   policy,
			TTL:      cfg.CacheTTL,
			SWR:      cfg.CacheSWR,
			Clock:    cfg.Clock,
		}),
		mux:  http.NewServeMux(),
		reg:  cfg.Metrics,
		stop: make(chan struct{}),
	}
	s.batchKeys = s.reg.Histogram("queryd_batch_keys",
		"Keys per /v2/query batch request.", nil, telemetry.SizeBuckets())
	s.reg.RegisterCounter("queryd_checkpoints_total", "Checkpoint attempts by outcome.",
		telemetry.Labels{"result": "ok"}, &s.ckptOK)
	s.reg.RegisterCounter("queryd_checkpoints_total", "Checkpoint attempts by outcome.",
		telemetry.Labels{"result": "error"}, &s.ckptFailed)
	s.ckptSeconds = s.reg.Histogram("queryd_checkpoint_duration_seconds",
		"Latency of one whole checkpoint write.", nil, telemetry.LatencyBuckets())
	s.cache.RegisterMetrics(s.reg, "queryd_cache")
	// Backends register the instruments their Status counters already read:
	// one source of truth behind both /v1/status JSON and /metrics.
	if rm, ok := b.(interface{ RegisterMetrics(*telemetry.Registry) }); ok {
		rm.RegisterMetrics(s.reg)
	}
	if cfg.CheckpointPath != "" {
		cp, ok := b.(Checkpointer)
		if !ok {
			return nil, fmt.Errorf("queryd: backend %T cannot checkpoint", b)
		}
		// Refuse configurations that could never persist state, instead of
		// logging a failed checkpoint every interval forever.
		if err := cp.CanCheckpoint(); err != nil {
			return nil, fmt.Errorf("queryd: checkpointing configured but impossible: %w", err)
		}
		// A crash mid-checkpoint leaves a .tmp file beside the real one;
		// sweep them now so they cannot accumulate across restarts.
		if err := CleanCheckpointTemps(cfg.CheckpointPath); err != nil {
			return nil, fmt.Errorf("queryd: cleaning stale checkpoint temps: %w", err)
		}
	}
	// Handlers register without method patterns so that method mismatches
	// get the same JSON error envelope as every other failure, instead of
	// the mux's plain-text 405. Each endpoint gets its own request-duration
	// histogram series (one family, labeled by endpoint).
	s.handle("/v2/query", "POST", s.handleExec)
	s.handle("/v2/ingest", "POST", s.handleIngest)
	s.handle("/v2/delta", "GET", s.handleDelta)
	s.handle("/v2/replicate", "POST", s.handleReplicate)
	s.handle("/v1/status", "GET", s.handleStatus)
	s.handle("/v1/checkpoint", "POST", s.handleCheckpoint)
	if !cfg.DisableMetrics {
		s.handle("/metrics", "GET", telhttp.Handler(s.reg).ServeHTTP)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("no such endpoint %s", r.URL.Path))
	})
	if cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0 {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// handle mounts h at path behind the method guard, wrapped with that
// endpoint's request-duration histogram. The histogram is allocated at
// registration (startup), so serving records with one Observe — no
// allocation, no registry lock — per request.
func (s *Server) handle(path, want string, h http.HandlerFunc) {
	hist := s.reg.Histogram("queryd_request_duration_seconds",
		"Request latency by endpoint, method mismatches included.",
		telemetry.Labels{"endpoint": path}, telemetry.LatencyBuckets())
	guarded := method(want, h)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		guarded(w, r)
		hist.ObserveDuration(time.Since(start))
	})
}

// method wraps a handler with a JSON 405 for every other HTTP method.
func method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			httpError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Errorf("%s requires %s, got %s", r.URL.Path, want, r.Method))
			return
		}
		h(w, r)
	}
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops background checkpointing, writing a final checkpoint when
// one is configured.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if s.cfg.CheckpointPath != "" {
			err = s.CheckpointNow()
		}
	})
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// CheckpointNow writes one checkpoint to the configured path. For
// WAL-backed backends the checkpoint header records the backend's cut LSN,
// and once the file is durable the backend is told to truncate its WAL
// through that cut — the incremental-checkpoint loop: log grows, checkpoint
// lands, log shrinks.
func (s *Server) CheckpointNow() error {
	cp, ok := s.b.(Checkpointer)
	if !ok {
		return errors.New("queryd: backend does not support checkpointing")
	}
	if s.cfg.CheckpointPath == "" {
		return errors.New("queryd: no checkpoint path configured")
	}
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	var lsn func() uint64
	wb, walBacked := s.b.(WALBacked)
	if walBacked {
		lsn = wb.CutLSN
	}
	start := time.Now()
	err := WriteCheckpoint(s.cfg.CheckpointPath, s.cfg.Algo, s.cfg.Spec, cp.Checkpoint, lsn)
	s.ckptSeconds.ObserveDuration(time.Since(start))
	if err == nil {
		s.ckptOK.Inc()
	} else {
		s.ckptFailed.Inc()
	}
	if err == nil && walBacked {
		if terr := wb.CheckpointCommitted(); terr != nil {
			// The checkpoint itself is durable; only the log GC failed. Not a
			// checkpoint failure — the next commit retries the truncation —
			// but worth a diagnostic.
			s.logf("queryd: wal truncation after checkpoint: %v", terr)
		}
	}
	s.ckptMu.Lock()
	s.lastCkpt = time.Now()
	s.ckptErr = err
	s.ckptMu.Unlock()
	return err
}

func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.CheckpointNow(); err != nil {
				s.logf("queryd: periodic checkpoint: %v", err)
			}
		case <-s.stop:
			return
		}
	}
}

// ExecResponse is the JSON body of /v2/query: the typed Answer plus the
// whole-answer cache flag. Point and window batches are always computed
// fresh, so Cached is false for them; for top-k it reports a cache hit.
type ExecResponse struct {
	query.Answer
	Cached bool `json:"cached"`
}

// CacheStats is the result cache's counter snapshot as it appears in
// /v1/status. It is rcache.Stats verbatim: the first eight fields keep the
// legacy JSON shape, and the policy-specific fields only appear when
// non-zero.
type CacheStats = rcache.Stats

// StatusResponse is the JSON body of /v1/status.
type StatusResponse struct {
	Backend    Status            `json:"backend"`
	Cache      CacheStats        `json:"cache"`
	Checkpoint *CheckpointStatus `json:"checkpoint,omitempty"`
}

// CheckpointStatus reports the most recent checkpoint attempt.
type CheckpointStatus struct {
	Path     string `json:"path"`
	LastTime string `json:"last_time,omitempty"`
	Error    string `json:"error,omitempty"`
}

// handleExec serves POST /v2/query: one typed query.Request batch. Point
// and window batches run as one backend batch with no result cache — a
// sketch answers a key in a few memory probes, cheaper than a cache round
// trip per key — so every answer reflects the writes acked before it.
// Top-k answers cache whole.
//
// The body is read whole, up to maxQueryBody, into a pooled buffer and
// parsed by decodeQueryBody; the answer is encoded by appendExecResponse
// into the same buffer. A body over the limit is refused even when its
// first value ends before the limit.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	buf := queryBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 {
			buf.Reset()
			queryBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("reading request: %w", err))
		return
	}
	req, err := decodeQueryBody(buf.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding request: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	if len(req.Keys) > s.cfg.MaxBatch {
		httpError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("batch of %d keys exceeds this server's limit of %d", len(req.Keys), s.cfg.MaxBatch))
		return
	}
	s.batchKeys.Observe(float64(len(req.Keys)))
	var resp ExecResponse
	if req.Kind == query.TopK {
		val, hit, ok := s.cached(w, fmt.Sprintf("x/topk/%d/%d", req.K, req.Window), func(gen uint64) (any, error) {
			ans, err := s.b.Execute(req)
			if err != nil {
				return nil, err
			}
			ans.Generation = gen
			return ans, nil
		})
		if !ok {
			return
		}
		resp = ExecResponse{Answer: val.(query.Answer), Cached: hit}
	} else {
		// Stamp the generation read before Execute, as cached does for
		// top-k, so every response labels its answer alike.
		gen := s.b.Generation()
		ans, err := s.b.Execute(req)
		if err != nil {
			s.execError(w, err)
			return
		}
		ans.Generation = gen
		resp = ExecResponse{Answer: ans}
	}
	buf.Reset()
	buf.Write(appendExecResponse(buf.AvailableBuffer(), resp))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// queryBufs recycles /v2/query buffers: a request reads its body into one
// and then encodes its answer into the same bytes. handleExec keeps none
// over 1 MiB, so one large body does not pin its buffer. It is apart from
// ingestBodies, whose far larger bodies would otherwise size it.
var queryBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := StatusResponse{Backend: s.b.Status(), Cache: s.cache.Stats()}
	if s.cfg.CheckpointPath != "" {
		cs := &CheckpointStatus{Path: s.cfg.CheckpointPath}
		s.ckptMu.Lock()
		if !s.lastCkpt.IsZero() {
			cs.LastTime = s.lastCkpt.UTC().Format(time.RFC3339)
		}
		if s.ckptErr != nil {
			cs.Error = s.ckptErr.Error()
		}
		s.ckptMu.Unlock()
		resp.Checkpoint = cs
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestBodies recycles ingest body buffers. decodeIngest keeps none over
// 1 MiB, so one large body does not pin its buffer.
var ingestBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeIngest reads an ingest body, up to maxIngestBody, and parses it
// into the typed batch. Reported errors are the client's (bad_request). A
// body over the limit is refused even when its first value ends before
// the limit.
func decodeIngest(w http.ResponseWriter, r *http.Request) (ingest.Batch, bool) {
	buf := ingestBodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 {
			buf.Reset()
			ingestBodies.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBody)); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("reading items: %w", err))
		return ingest.Batch{}, false
	}
	b, err := decodeIngestBody(buf.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding items: %w", err))
		return ingest.Batch{}, false
	}
	return b, true
}

// handleIngest serves POST /v2/ingest: one typed ingest.Batch — items plus
// source attribution and an optional epoch tag — answered with the Ack
// verbatim. The write-side sibling of /v2/query.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ing, ok := s.b.(Ingester)
	if !ok {
		httpError(w, http.StatusNotImplemented, "unsupported",
			errors.New("backend does not ingest over HTTP (collector backends ingest through the agent protocol)"))
		return
	}
	b, ok := decodeIngest(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ing.Ingest(b))
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	cp, ok := s.b.(Checkpointer)
	if !ok || s.cfg.CheckpointPath == "" {
		httpError(w, http.StatusNotImplemented, "unsupported",
			errors.New("queryd: checkpointing not configured (backend support and -checkpoint path required)"))
		return
	}
	if err := cp.CanCheckpoint(); err != nil {
		httpError(w, http.StatusNotImplemented, "unsupported", err)
		return
	}
	start := time.Now()
	if err := s.CheckpointNow(); err != nil {
		// Support was verified above: what failed is the write itself, a
		// retryable server-side condition, not a missing capability.
		httpError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":       s.cfg.CheckpointPath,
		"elapsed_ms": time.Since(start).Milliseconds(),
	})
}

// cached runs compute through the epoch-aware cache, reporting whether the
// value was a cache hit. Sealed-only backends cache immutably per
// generation; live backends get the short TTL. The generation is read
// exactly once and passed to compute, so the cache key and the response's
// generation field always agree even when a window seals mid-request (the
// answer may then reflect the newer sealed set — still a certified
// interval — but it is labeled and keyed consistently). A refusal is
// answered with the error envelope, and ok is false.
func (s *Server) cached(w http.ResponseWriter, key string, compute func(gen uint64) (any, error)) (val any, hit, ok bool) {
	gen := s.b.Generation()
	val, hit, err := s.cache.Do(key, gen, s.b.Epochal(), func() (any, error) { return compute(gen) })
	if err != nil {
		s.execError(w, err)
		return nil, false, false
	}
	return val, hit, true
}

// execError maps a backend refusal onto the JSON error envelope: requests
// the query plane rejects are the client's fault, an unknown agent is a
// missing resource, a transient refusal is 503 (retry elsewhere — a cluster
// router's cue to try another replica), a backend that lost acked writes is
// a hard 500 no retry will fix, and everything else is a capability the
// backend does not have. Keeping 503 and 500 distinct is load-bearing: a
// router that treated them alike would either hammer a broken node or fail
// over away from a healthy-but-warming one.
func (s *Server) execError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, netsum.ErrUnknownAgent):
		httpError(w, http.StatusNotFound, "not_found", err)
	case errors.Is(err, query.ErrBadKind) || errors.Is(err, query.ErrNoKeys) ||
		errors.Is(err, query.ErrTooManyKeys) || errors.Is(err, query.ErrBadWindow) ||
		errors.Is(err, query.ErrBadK) || errors.Is(err, query.ErrAgentScope):
		httpError(w, http.StatusBadRequest, "bad_request", err)
	case errors.Is(err, query.ErrUnavailable):
		httpError(w, http.StatusServiceUnavailable, "unavailable", err)
	case errors.Is(err, ErrLostWrites):
		httpError(w, http.StatusInternalServerError, "internal", err)
	default:
		httpError(w, http.StatusNotImplemented, "unsupported", err)
	}
}

// jsonBufs recycles writeJSON's encode buffers. writeJSON keeps none over
// 1 MiB, so one large answer does not pin its buffer.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers v as JSON with status. v is encoded whole before the
// header goes out, so a value encoding/json refuses (NaN, ±Inf) is answered
// with the 500 internal envelope instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 {
			buf.Reset()
			jsonBufs.Put(buf)
		}
	}()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "internal", fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// ErrorBody is the JSON error envelope every endpoint answers failures
// with: {"error":{"code":"...","message":"..."}}. Codes are stable
// machine-readable labels; messages are for humans.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries one error's code and message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: err.Error()}})
}
