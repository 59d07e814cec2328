// Command rsserve is the query-serving front end: an HTTP/JSON server
// answering point queries with certified bounds, heavy-hitter top-k, and
// sliding-window queries, with an epoch-aware top-k result cache and
// durable sketch checkpoints.
//
// Standalone mode serves one registry-built sketch ingesting over HTTP:
//
//	rsserve -listen 127.0.0.1:8080 -algo Ours -mem 1048576
//	rsserve -epoch 10s -window 8            # sliding-window (epoch ring) mode
//	rsserve -checkpoint state.ckpt -checkpoint-every 30s
//
// Collector mode embeds a netsum collector (agents connect with rsagent)
// and serves its global view:
//
//	rsserve -collector 127.0.0.1:7777 -listen 127.0.0.1:8080
//
// When -checkpoint names an existing file, the server warm-restarts from
// it: restored certified intervals still contain the pre-restart exact
// counts, and new traffic stacks on top. Endpoints: /v2/query (typed
// batches — up to -max-batch keys with per-key certified bounds in one
// request), /v2/ingest (standalone typed write batches, answered with Ack
// JSON), /v1/status, /v1/checkpoint, and /metrics (Prometheus text
// exposition; disable with -metrics=false). -pprof-addr additionally serves net/http/pprof on a
// separate listener.
//
// The top-k result cache is sharded and policy-pluggable: -cache-policy picks
// lru (default), s3fifo, or tinylfu; -cache-shards spreads lock contention;
// -cache-swr serves expired live answers while one background flight
// refreshes them (stale-while-revalidate).
//
// Writes flow through the async ingest plane: -ingest-workers pipeline
// workers land each acked batch in the served sketch by insertion, under
// its own lock; -ingest-policy picks what a full -ingest-queue does (block
// producers, or drop and report it in the Ack).
//
// Cluster mode scales horizontally: N replicas each run with the same
// -peers list and their own URL as -self, exchanging sealed deltas so any
// node answers any key from a merged view; a stateless router fronts them:
//
//	rsserve -listen :8081 -peers http://h1:8081,http://h2:8081,http://h3:8081 \
//	        -self http://h1:8081 -replicate-every 5s
//	rsserve -listen :8080 -cluster-router -peers http://h1:8081,http://h2:8081,http://h3:8081
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/rcache"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all" // every registered variant servable by name
	"repro/internal/telemetry/telhttp"
	"repro/internal/wal"
)

// serveFlags is every tunable the CLI accepts, gathered so the flag
// combinations can be validated up front with named errors instead of
// surfacing as late panics or silently-dead options.
type serveFlags struct {
	window     int
	epoch      time.Duration
	shards     int
	collector  string
	maxBatch   int
	cacheSize  int
	cacheTTL   time.Duration
	cachePol   string
	cacheShard int
	cacheSWR   time.Duration
	ckpt       string
	ckptEvery  time.Duration
	ingWorkers int
	ingQueue   int
	ingPolicy  string
	walDir     string
	walFsync   string
	walSegSize int64
	peers      string
	self       string
	router     bool
	replEvery  time.Duration
	vnodes     int
}

// Named validation errors: scripts wrapping rsserve can match on the text
// stem, and tests pin each rejected combination to its reason.
var (
	errWindowWithoutEpoch    = errors.New("rsserve: -window needs -epoch (sealed-epoch retention is meaningless without epochs)")
	errNegativeWindow        = errors.New("rsserve: -window must be ≥ 0")
	errNegativeEpoch         = errors.New("rsserve: -epoch must be ≥ 0")
	errBadMaxBatch           = fmt.Errorf("rsserve: -max-batch must be in [1, %d] (the query-plane batch ceiling)", query.MaxBatchKeys)
	errBadCacheSize          = errors.New("rsserve: -cache-size must be ≥ 1")
	errNegativeCacheTTL      = errors.New("rsserve: -cache-ttl must be ≥ 0")
	errNegativeCacheShards   = errors.New("rsserve: -cache-shards must be ≥ 0 (0 = default; rounded up to a power of two)")
	errNegativeCacheSWR      = errors.New("rsserve: -cache-swr must be ≥ 0 (0 = serve-stale disabled)")
	errBadCachePolicy        = errors.New("rsserve: -cache-policy must be lru, s3fifo, or tinylfu")
	errCheckpointEveryNoPath = errors.New("rsserve: -checkpoint-every needs -checkpoint (an interval with nowhere to write)")
	errShardsWithCollector   = errors.New("rsserve: -shards is standalone-only (collector agents shard by construction, one sketch per agent)")
	errNegativeShards        = errors.New("rsserve: -shards must be ≥ 0")
	errNegativeIngestWorkers = errors.New("rsserve: -ingest-workers must be ≥ 0 (0 = synchronous standalone ingest)")
	errBadIngestQueue        = errors.New("rsserve: -ingest-queue must be ≥ 0 (0 = default)")
	errBadWALSegmentSize     = errors.New("rsserve: -wal-segment-size must be ≥ 4096 bytes")
	errRouterNeedsPeers      = errors.New("rsserve: -cluster-router needs -peers (a router with no replicas routes nowhere)")
	errSelfNeedsPeers        = errors.New("rsserve: -self needs -peers (the membership the self URL is a member of)")
	errRouterWithSelf        = errors.New("rsserve: -cluster-router and -self are mutually exclusive (a router is not a ring member)")
	errPeersNeedRole         = errors.New("rsserve: -peers needs a role: -cluster-router or -self")
	errClusterWithCollector  = errors.New("rsserve: cluster flags are standalone-only (a collector already aggregates agents; front plain replicas with the router instead)")
	errClusterWithEpoch      = errors.New("rsserve: cluster mode is cumulative-only (epoch windows age out instead of replicating)")
	errRouterIsStateless     = errors.New("rsserve: -cluster-router holds no local sketch: -wal-dir, -checkpoint, and -shards have nothing to apply to")
	errNegativeReplicate     = errors.New("rsserve: -replicate-every must be ≥ 0 (0 = pull only on POST /v2/replicate)")
	errReplicateNeedsReplica = errors.New("rsserve: -replicate-every needs replica mode (-self)")
	errNegativeVNodes        = errors.New("rsserve: -vnodes must be ≥ 0 (0 = default)")
)

// validate rejects impossible flag combinations before any socket is
// opened.
func (f serveFlags) validate() error {
	switch {
	case f.epoch < 0:
		return errNegativeEpoch
	case f.window < 0:
		return errNegativeWindow
	case f.window > 0 && f.epoch == 0:
		return errWindowWithoutEpoch
	case f.maxBatch < 1 || f.maxBatch > query.MaxBatchKeys:
		return errBadMaxBatch
	case f.cacheSize < 1:
		return errBadCacheSize
	case f.cacheTTL < 0:
		return errNegativeCacheTTL
	case f.cacheShard < 0:
		return errNegativeCacheShards
	case f.cacheSWR < 0:
		return errNegativeCacheSWR
	case f.ckptEvery > 0 && f.ckpt == "":
		return errCheckpointEveryNoPath
	case f.shards < 0:
		return errNegativeShards
	case f.shards > 0 && f.collector != "":
		return errShardsWithCollector
	case f.ingWorkers < 0:
		return errNegativeIngestWorkers
	case f.ingQueue < 0:
		return errBadIngestQueue
	case f.walDir != "" && f.walSegSize < 4096:
		return errBadWALSegmentSize
	case f.router && f.peers == "":
		return errRouterNeedsPeers
	case f.self != "" && f.peers == "":
		return errSelfNeedsPeers
	case f.router && f.self != "":
		return errRouterWithSelf
	case f.peers != "" && !f.router && f.self == "":
		return errPeersNeedRole
	case f.peers != "" && f.collector != "":
		return errClusterWithCollector
	case f.peers != "" && f.epoch > 0:
		return errClusterWithEpoch
	case f.router && (f.walDir != "" || f.ckpt != "" || f.shards > 0):
		return errRouterIsStateless
	case f.replEvery < 0:
		return errNegativeReplicate
	case f.replEvery > 0 && f.self == "":
		return errReplicateNeedsReplica
	case f.vnodes < 0:
		return errNegativeVNodes
	}
	if f.self != "" {
		if _, err := f.selfIndex(); err != nil {
			return err
		}
	}
	if _, err := rcache.ParsePolicy(f.cachePol); err != nil {
		return fmt.Errorf("%w (got %q)", errBadCachePolicy, f.cachePol)
	}
	policy, err := ingest.ParsePolicy(f.ingPolicy)
	if err != nil {
		return fmt.Errorf("rsserve: %w", err)
	}
	if f.walDir != "" {
		// -epoch and -ingest-policy drop are refused by the same check the
		// backends run (wal.ErrEpochMode, wal.ErrDropPolicy).
		if err := wal.Refuse(f.epoch > 0, policy); err != nil {
			return fmt.Errorf("rsserve: -wal-dir: %w", err)
		}
		if _, err := wal.ParseFsync(f.walFsync); err != nil {
			return fmt.Errorf("rsserve: -wal-fsync: %w", err)
		}
	}
	return nil
}

// selfIndex locates -self in the parsed -peers list (both normalized the
// same way, so trailing slashes and spacing don't desync a node from its
// own membership).
func (f serveFlags) selfIndex() (int, error) {
	self := cluster.ParsePeers(f.self)
	if len(self) != 1 {
		return -1, fmt.Errorf("rsserve: -self must name exactly one URL, got %q", f.self)
	}
	for i, p := range cluster.ParsePeers(f.peers) {
		if p == self[0] {
			return i, nil
		}
	}
	return -1, fmt.Errorf("rsserve: %w: -self %s not in -peers", cluster.ErrNotReplica, self[0])
}

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8080", "HTTP address to serve queries on")
		algo       = flag.String("algo", "Ours", "registered sketch variant")
		lambda     = flag.Uint64("lambda", 25, "error tolerance Λ (error-targeting variants)")
		mem        = flag.Int("mem", 1<<20, "sketch memory budget (bytes)")
		seed       = flag.Uint64("seed", 1, "sketch hash seed")
		shards     = flag.Int("shards", 0, "shard the sketch n ways for concurrent ingest (standalone)")
		ep         = flag.Duration("epoch", 0, "epoch length for sliding-window mode (0 = cumulative)")
		window     = flag.Int("window", 0, "sealed epochs retained in -epoch mode (0 = default)")
		collector  = flag.String("collector", "", "embed a netsum collector on this TCP address and serve its global view")
		noMerge    = flag.Bool("no-merge", false, "collector mode: disable the merged global view")
		cacheSize  = flag.Int("cache-size", 4096, "result cache capacity (entries)")
		cacheTTL   = flag.Duration("cache-ttl", 250*time.Millisecond, "freshness of cached live-window answers")
		cachePol   = flag.String("cache-policy", "lru", "result cache eviction policy: lru, s3fifo, or tinylfu")
		cacheShard = flag.Int("cache-shards", 0, "result cache shard count, rounded up to a power of two (0 = default)")
		cacheSWR   = flag.Duration("cache-swr", 0, "stale-while-revalidate window after -cache-ttl: serve the expired answer while one background flight refreshes it (0 = off)")
		maxBatch   = flag.Int("max-batch", query.MaxBatchKeys, "largest /v2/query key batch this server accepts")
		ckpt       = flag.String("checkpoint", "", "checkpoint file path (warm-restarts from it when present)")
		ckptEvery  = flag.Duration("checkpoint-every", 0, "periodic checkpoint interval (0 = only on demand and shutdown)")
		ingWorkers = flag.Int("ingest-workers", ingest.DefaultWorkers, "async ingest pipeline workers (standalone: 0 = synchronous ingest)")
		ingQueue   = flag.Int("ingest-queue", ingest.DefaultQueue, "per-worker ingest queue depth (batches)")
		ingPolicy  = flag.String("ingest-policy", "block", "backpressure when ingest queues fill: block or drop")
		walDir     = flag.String("wal-dir", "", "write-ahead-log directory: acked writes survive a crash and replay on restart (cumulative mode)")
		walFsync   = flag.String("wal-fsync", "batch", "WAL durability: batch (fsync every append), a group-commit interval like 5ms, or off")
		walSegSize = flag.Int64("wal-segment-size", wal.DefaultSegmentBytes, "WAL segment rotation threshold (bytes)")
		metrics    = flag.Bool("metrics", true, "serve GET /metrics (Prometheus text exposition) alongside the query API")
		pprofAddr  = flag.String("pprof-addr", "", "also serve net/http/pprof on this address (off unless set)")
		peers      = flag.String("peers", "", "comma-separated replica base URLs, identical order on every cluster node")
		self       = flag.String("self", "", "this replica's own URL from -peers (replica mode)")
		clusterRtr = flag.Bool("cluster-router", false, "serve as a stateless scatter-gather router over -peers")
		replEvery  = flag.Duration("replicate-every", 0, "replica mode: peer delta pull interval (0 = only on POST /v2/replicate)")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per replica on the consistent-hash ring (0 = default)")
	)
	flag.Parse()

	if err := (serveFlags{
		window:     *window,
		epoch:      *ep,
		shards:     *shards,
		collector:  *collector,
		maxBatch:   *maxBatch,
		cacheSize:  *cacheSize,
		cacheTTL:   *cacheTTL,
		cachePol:   *cachePol,
		cacheShard: *cacheShard,
		cacheSWR:   *cacheSWR,
		ckpt:       *ckpt,
		ckptEvery:  *ckptEvery,
		ingWorkers: *ingWorkers,
		ingQueue:   *ingQueue,
		ingPolicy:  *ingPolicy,
		walDir:     *walDir,
		walFsync:   *walFsync,
		walSegSize: *walSegSize,
		peers:      *peers,
		self:       *self,
		router:     *clusterRtr,
		replEvery:  *replEvery,
		vnodes:     *vnodes,
	}).validate(); err != nil {
		log.Fatal(err)
	}
	policy, _ := ingest.ParsePolicy(*ingPolicy) // validated above
	tuning := ingest.Tuning{Workers: *ingWorkers, Queue: *ingQueue, Policy: policy}

	spec := sketch.Spec{Lambda: *lambda, MemoryBytes: *mem, Seed: *seed, Shards: *shards}
	cfg := queryd.Config{
		CacheCapacity:   *cacheSize,
		CacheTTL:        *cacheTTL,
		CachePolicy:     *cachePol,
		CacheShards:     *cacheShard,
		CacheSWR:        *cacheSWR,
		MaxBatch:        *maxBatch,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		Algo:            *algo,
		Spec:            spec,
		Logf:            log.Printf,
		DisableMetrics:  !*metrics,
	}

	// The WAL opens before any backend: Open repairs a torn tail and loads
	// the manifest, and the backend replays the un-checkpointed suffix
	// before serving anything.
	var wlog *wal.Log
	if *walDir != "" {
		fp, _ := wal.ParseFsync(*walFsync) // validated above
		var err error
		wlog, err = wal.Open(wal.Options{Dir: *walDir, SegmentBytes: *walSegSize, Fsync: fp, Logf: log.Printf})
		if err != nil {
			log.Fatalf("rsserve: %v", err)
		}
		defer wlog.Close()
	}
	ckptLSN, err := checkpointLSN(*ckpt)
	if err != nil {
		log.Fatalf("rsserve: %v", err)
	}

	peerList := cluster.ParsePeers(*peers)

	var (
		backend queryd.Backend
		mode    string
		col     *netsum.Collector
	)
	if *clusterRtr {
		// The router owns no sketch: it partitions batches on the ring,
		// fans them out to the owning replicas, and stitches the answers.
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Membership: cluster.Membership{Peers: peerList, VNodes: *vnodes},
			Algo:       *algo,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("rsserve: %v", err)
		}
		backend = rt
		mode = fmt.Sprintf("cluster router over %d replicas", len(peerList))
	} else if *collector != "" {
		// The collector forces the emergency layer on so composed bounds
		// stay unconditional; the checkpoint header must describe the
		// sketch actually built.
		spec.Emergency = true
		cfg.Spec = spec
		// NewCollector replays the WAL tail past the checkpoint's cut
		// before accepting connections, so replayed and live batches never
		// interleave.
		col, err = netsum.NewCollector(*collector, netsum.CollectorConfig{
			Algo:              *algo,
			Spec:              spec,
			Epoch:             *ep,
			WindowEpochs:      *window,
			DisableMergedView: *noMerge,
			Ingest:            tuning,
			WAL:               wlog,
			WALStartLSN:       ckptLSN,
			Logf:              log.Printf,
		})
		if err != nil {
			log.Fatalf("rsserve: %v", err)
		}
		defer col.Close()
		if err := maybeRestore(*ckpt, *algo, spec, col.RestoreBaseline); err != nil {
			log.Fatalf("rsserve: %v", err)
		}
		backend = queryd.CollectorBackend{C: col, Algo: *algo}
		mode = fmt.Sprintf("collector on %s", col.Addr())
	} else {
		bcfg := queryd.SketchBackendConfig{Algo: *algo, Spec: spec, Epoch: *ep, Windows: *window}
		if *ingWorkers > 0 {
			bcfg.Ingest = &tuning
		}
		b, err := queryd.NewSketchBackendFrom(bcfg)
		if err != nil {
			log.Fatalf("rsserve: %v", err)
		}
		defer b.Close()
		if err := maybeRestore(*ckpt, *algo, spec, b.Restore); err != nil {
			log.Fatalf("rsserve: %v", err)
		}
		// Replays everything past the checkpoint cut through the same ingest
		// path, then starts journaling writes (a no-op without -wal-dir).
		if err := b.AttachWAL(wlog, ckptLSN); err != nil {
			log.Fatalf("rsserve: %v", err)
		}
		backend = b
		mode = "standalone"
		if *ep > 0 {
			mode = fmt.Sprintf("standalone, sliding window (epoch=%v, window=%d)", *ep, *window)
		}
		if *ingWorkers > 0 {
			mode += fmt.Sprintf(", ingest %d workers/%s", *ingWorkers, policy)
		}
		if *self != "" {
			// Replica mode wraps the local backend: ingest stays local, but
			// queries answer from a merged view of every peer's sealed delta.
			selfIdx, err := (serveFlags{peers: *peers, self: *self}).selfIndex()
			if err != nil {
				log.Fatalf("%v", err) // unreachable: validated above
			}
			rep, err := cluster.NewReplica(b, *algo, spec,
				cluster.Membership{Peers: peerList, Self: selfIdx, VNodes: *vnodes}, log.Printf)
			if err != nil {
				log.Fatalf("rsserve: %v", err)
			}
			rp := cluster.NewReplicator(rep, *replEvery, nil)
			rp.Start()
			defer rp.Close()
			backend = rep
			mode = fmt.Sprintf("cluster replica %d of %d (replicate-every=%v)", selfIdx, len(peerList), *replEvery)
		}
	}
	if wlog != nil {
		mode += fmt.Sprintf(", wal %s (fsync=%s)", *walDir, wlog.Stats().Policy)
	}

	s, err := queryd.New(backend, cfg)
	if err != nil {
		log.Fatalf("rsserve: %v", err)
	}
	if *pprofAddr != "" {
		// pprof lives on its own listener and mux: profiles stay off the
		// query port (and its request histograms), and the default mux is
		// never touched.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, telhttp.PprofHandler()); err != nil {
				log.Fatalf("rsserve: pprof: %v", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	srv := &http.Server{Addr: *listen, Handler: s.Handler()}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("rsserve: %v", err)
		}
	}()
	fmt.Printf("rsserve listening on http://%s (%s, %s, %dB, cache %d entries/%v TTL, policy %s)\n",
		*listen, *algo, mode, *mem, *cacheSize, *cacheTTL, *cachePol)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("\nshutting down")
	srv.Close()
	if err := s.Close(); err != nil {
		log.Printf("rsserve: final checkpoint: %v", err)
	}
}

// maybeRestore warm-restarts from path when a checkpoint exists there,
// refusing headers that do not describe the configured sketch (a restored
// snapshot only answers correctly for the Spec it was written from).
func maybeRestore(path, algo string, spec sketch.Spec, restore func(io.Reader) error) error {
	if path == "" {
		return nil
	}
	gotAlgo, gotSpec, _, payload, err := queryd.OpenCheckpoint(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer payload.Close()
	if gotAlgo != algo || gotSpec != spec {
		return fmt.Errorf("checkpoint %s holds %s %+v, server configured for %s %+v",
			path, gotAlgo, gotSpec, algo, spec)
	}
	if err := restore(payload); err != nil {
		return err
	}
	log.Printf("rsserve: warm-restarted from %s (%s)", path, gotAlgo)
	return nil
}

// checkpointLSN peeks the WAL cut recorded in path's checkpoint header — the
// position replay resumes after — without reading the snapshot. 0 when no
// checkpoint exists yet (or it predates WAL support).
func checkpointLSN(path string) (uint64, error) {
	if path == "" {
		return 0, nil
	}
	_, _, lsn, payload, err := queryd.OpenCheckpoint(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	payload.Close()
	return lsn, nil
}
