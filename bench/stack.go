package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all" // the registry rsserve builds from
	"repro/internal/stream"
	"repro/internal/wal"
)

// The serving stack is rsserve's default wiring (cmd/rsserve flag
// defaults) with one exception: memory. Ours needs about one byte of
// sketch per eight items of S to ingest it synchronously with no
// insertion failure and no key over Λ; below that the correctness metrics
// would measure an undersized sketch instead of the serving stack.
const (
	algo          = "Ours"
	lambda        = 25
	sketchSeed    = 1 // rsserve -seed default: the sketch's hash seed
	cacheCapacity = 4096
	cacheTTL      = 250 * time.Millisecond
	cachePolicy   = "lru"
)

// sketchSpec sizes the served sketch for a stream of `items` items.
func sketchSpec(items int) sketch.Spec {
	mem := 1 << 12
	for mem*8 < items {
		mem <<= 1
	}
	return sketch.Spec{Lambda: lambda, MemoryBytes: mem, Seed: sketchSeed}
}

// stack is one in-process rsserve: a standalone backend with the default
// two-worker block-policy ingest pipeline (and a batch-fsync WAL when
// walDir is set), the queryd server, and an HTTP server on a loopback port.
type stack struct {
	backend *queryd.SketchBackend
	wal     *wal.Log
	server  *queryd.Server
	http    *http.Server
	served  chan error
	url     string
}

// openStack builds a stack through the constructors rsserve uses. With an
// existing walDir it is a restart: AttachWAL replays the log before the
// server accepts a request. tr, when set, wraps the backend and the handler
// with span recording.
func openStack(spec sketch.Spec, walDir string, tr *tracer) (*stack, error) {
	st := &stack{}
	if walDir != "" {
		l, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}})
		if err != nil {
			return nil, err
		}
		st.wal = l
	}
	b, err := queryd.NewSketchBackendFrom(queryd.SketchBackendConfig{
		Algo:   algo,
		Spec:   spec,
		Ingest: &ingest.Tuning{Workers: ingest.DefaultWorkers, Queue: ingest.DefaultQueue, Policy: ingest.Block},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.backend = b
	if st.wal != nil {
		if err := b.AttachWAL(st.wal, 0); err != nil {
			st.close()
			return nil, err
		}
	}
	var backend queryd.Backend = b
	if tr != nil {
		backend = &tracedBackend{SketchBackend: b, tr: tr}
	}
	srv, err := queryd.New(backend, queryd.Config{
		CacheCapacity: cacheCapacity,
		CacheTTL:      cacheTTL,
		CachePolicy:   cachePolicy,
		MaxBatch:      query.MaxBatchKeys,
		Algo:          algo,
		Spec:          spec,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.server = srv
	handler := srv.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: handler}
	st.served = make(chan error, 1)
	go func() { st.served <- st.http.Serve(ln) }()
	return st, nil
}

// preload lands items through Backend.Ingest in batchItems batches and
// waits until the pipeline has folded them all.
func (st *stack) preload(items []stream.Item) error {
	for i := 0; i < len(items); i += batchItems {
		batch := items[i:min(i+batchItems, len(items))]
		if ack := st.backend.Ingest(ingest.Batch{Items: batch}); ack.Dropped > 0 {
			return fmt.Errorf("preload: %d items dropped", ack.Dropped)
		}
	}
	// Execute drains the pipeline before answering: the read-your-writes
	// barrier every query pays when writes are pending.
	_, err := st.backend.Execute(query.Request{Kind: query.Point, Keys: []uint64{0}})
	return err
}

// close stops the HTTP server, the queryd server, the pipeline and the WAL,
// in the reverse of the order openStack started them.
func (st *stack) close() error {
	var errs []error
	if st.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.http.Shutdown(ctx))
		cancel()
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if st.server != nil {
		errs = append(errs, st.server.Close())
	}
	if st.backend != nil {
		errs = append(errs, st.backend.Close())
	}
	if st.wal != nil {
		errs = append(errs, st.wal.Close())
	}
	return errors.Join(errs...)
}
