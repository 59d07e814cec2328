// Command rscollector runs a network-wide measurement collector: agents
// (cmd/rsagent) stream key-value updates over TCP; the collector maintains
// one ReliableSketch per agent and answers global queries with certified
// error bounds.
//
// Usage:
//
//	rscollector -listen 127.0.0.1:7777 -lambda 25 -mem 1048576
//	rscollector -algo SS               # any error-bounded registry variant
//	rscollector -epoch 10s -window 8   # sliding-window (epoch ring) mode
//
// With a Mergeable variant (the default "Ours") the collector additionally
// maintains an incrementally merged global sketch and answers queries from
// the intersection of the merged view and the estimate-sum composition.
// With -epoch, each agent's state becomes an epoch ring retaining -window
// sealed epochs; agents may then issue sliding-window queries
// (rsagent -window).
//
// The collector prints periodic ingest statistics to stdout; stop it with
// SIGINT. Agents may query through their own connections (rsagent -query),
// and -http additionally serves the rsserve HTTP/JSON query API (/v2/query
// point, window and top-k batches) off the same collector. -metrics-addr serves
// GET /metrics (Prometheus text exposition over the collector, its ingest
// pipeline, and the WAL when attached); -pprof-addr serves net/http/pprof.
// Both are off unless set and live on their own listeners, away from the
// agent protocol port.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/ingest"
	"repro/internal/netsum"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
	"repro/internal/wal"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7777", "address to listen on")
		algo        = flag.String("algo", "Ours", "registered error-bounded sketch variant per agent")
		lambda      = flag.Uint64("lambda", 25, "per-agent error tolerance Λ")
		mem         = flag.Int("mem", 1<<20, "per-agent sketch memory (bytes)")
		seed        = flag.Uint64("seed", 1, "sketch hash seed")
		every       = flag.Duration("stats", 5*time.Second, "statistics print interval")
		ep          = flag.Duration("epoch", 0, "epoch length for sliding-window mode (0 = cumulative)")
		window      = flag.Int("window", 0, "sealed epochs retained per agent in -epoch mode (0 = default)")
		noMerge     = flag.Bool("no-merge", false, "disable the merged global view (estimate-sum only)")
		httpAdr     = flag.String("http", "", "also serve HTTP/JSON queries on this address (rsserve endpoints)")
		ingWorkers  = flag.Int("ingest-workers", 0, "ingest pipeline workers (0 = default)")
		ingQueue    = flag.Int("ingest-queue", 0, "per-worker ingest queue depth in batches (0 = default)")
		ingPolicy   = flag.String("ingest-policy", "block", "backpressure when ingest queues fill: block or drop")
		walDir      = flag.String("wal-dir", "", "write-ahead-log directory: acked agent batches survive a crash and replay on restart (cumulative mode)")
		walFsync    = flag.String("wal-fsync", "batch", "WAL durability: batch (fsync every append), a group-commit interval like 5ms, or off")
		walSegSize  = flag.Int64("wal-segment-size", wal.DefaultSegmentBytes, "WAL segment rotation threshold (bytes)")
		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text exposition) on this address (off unless set)")
		pprofAddr   = flag.String("pprof-addr", "", "also serve net/http/pprof on this address (off unless set)")
	)
	flag.Parse()

	policy, err := ingest.ParsePolicy(*ingPolicy)
	if err != nil {
		log.Fatalf("rscollector: %v", err)
	}
	var wlog *wal.Log
	if *walDir != "" {
		if err := wal.Refuse(*ep > 0, policy); err != nil {
			log.Fatalf("rscollector: -wal-dir: %v", err)
		}
		fp, err := wal.ParseFsync(*walFsync)
		if err != nil {
			log.Fatalf("rscollector: -wal-fsync: %v", err)
		}
		wlog, err = wal.Open(wal.Options{Dir: *walDir, SegmentBytes: *walSegSize, Fsync: fp, Logf: log.Printf})
		if err != nil {
			log.Fatalf("rscollector: %v", err)
		}
		defer wlog.Close()
	}
	// No -checkpoint flag here, so replay starts at the log's own watermark
	// (WALStartLSN 0); truncation needs the HTTP checkpoint surface
	// (rsserve -collector) or an external SnapshotGlobal driver.
	c, err := netsum.NewCollector(*listen, netsum.CollectorConfig{
		Algo:              *algo,
		Spec:              sketch.Spec{Lambda: *lambda, MemoryBytes: *mem, Seed: *seed},
		Epoch:             *ep,
		WindowEpochs:      *window,
		DisableMergedView: *noMerge,
		Ingest:            ingest.Tuning{Workers: *ingWorkers, Queue: *ingQueue, Policy: policy},
		WAL:               wlog,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatalf("rscollector: %v", err)
	}
	mode := "estimate-sum aggregation"
	if c.MergeBased() {
		mode = "merge-based aggregation"
	}
	if *ep > 0 {
		mode = fmt.Sprintf("sliding-window mode (epoch=%v, window=%d)", *ep, *window)
	}
	fmt.Printf("rscollector listening on %s (%s, Λ=%d, %dB per agent, %s)\n",
		c.Addr(), *algo, *lambda, *mem, mode)

	if *metricsAddr != "" {
		// A dedicated scrape listener: the raw TCP collector has no HTTP
		// surface of its own, so Prometheus gets one regardless of -http.
		reg := telemetry.NewRegistry()
		c.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", telhttp.Handler(reg))
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Fatalf("rscollector: metrics: %v", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", *metricsAddr)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, telhttp.PprofHandler()); err != nil {
				log.Fatalf("rscollector: pprof: %v", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *httpAdr != "" {
		qs, err := queryd.New(queryd.CollectorBackend{C: c, Algo: *algo}, queryd.Config{Logf: log.Printf})
		if err != nil {
			log.Fatalf("rscollector: %v", err)
		}
		defer qs.Close()
		go func() {
			if err := (&http.Server{Addr: *httpAdr, Handler: qs.Handler()}).ListenAndServe(); err != nil &&
				!errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("rscollector: http: %v", err)
			}
		}()
		fmt.Printf("query API on http://%s (/v2/query batches, /v1/status)\n", *httpAdr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(*every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			agents, updates, queries := c.Stats()
			ist := c.IngestStats()
			fmt.Printf("agents=%d updates=%d queries=%d landed_batches=%d dropped=%d\n",
				agents, updates, queries, ist.Folds, ist.Dropped)
		case <-stop:
			fmt.Println("\nshutting down")
			if err := c.Close(); err != nil {
				log.Printf("rscollector: close: %v", err)
			}
			return
		}
	}
}
