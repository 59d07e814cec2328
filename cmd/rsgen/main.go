// Command rsgen generates the synthetic workloads used throughout the
// evaluation and writes them as binary key-value streams, printing
// distribution statistics. The on-disk format is a sequence of
// little-endian (uint64 key, uint64 value) pairs, consumable by any tool.
//
// Usage:
//
//	rsgen -dataset ip -items 1000000 -out iptrace.bin
//	rsgen -dataset zipf3.0 -items 32000000 -stats-only
//	rsgen -dist zipf -skew 1.2 -distinct 5000 -items 100000
//	rsgen -dist zipf -skew 1.1 -items 50000 -ingest http://127.0.0.1:8080 -batch 2000
//	rsgen -dist zipf -skew 1.1 -items 50000 -query http://127.0.0.1:8080 -qbatch 64 -qconc 8
//
// -dist zipf builds a parametric Zipf stream (any -skew and -distinct, not
// just the named zipf0.3/zipf3.0 presets). -ingest streams the workload
// into a running rsserve (or cluster router) over POST /v2/ingest instead
// of writing a file, reporting the summed Ack so dropped writes are
// visible. -query drives the workload's keys through POST /v2/query as
// point batches instead — the read-side sibling, under a realistic
// (zipf-skewed) key popularity — reporting QPS and p50/p99 batch latency.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/stream"
)

func main() {
	var (
		dataset   = flag.String("dataset", "ip", "ip | web | dc | hadoop | zipf0.3 | zipf3.0")
		dist      = flag.String("dist", "", "parametric distribution: zipf (overrides -dataset; tune with -skew and -distinct)")
		skew      = flag.Float64("skew", 1.1, "Zipf skew for -dist zipf")
		distinct  = flag.Int("distinct", 10_000, "distinct keys for -dist zipf")
		items     = flag.Int("items", 1_000_000, "stream length")
		seed      = flag.Uint64("seed", 1, "generator seed")
		out       = flag.String("out", "", "output file (binary stream)")
		statsOnly = flag.Bool("stats-only", false, "print statistics without writing")
		weighted  = flag.Bool("bytes", false, "emit byte-weighted values (packet sizes)")
		ingestURL = flag.String("ingest", "", "stream into this server's POST /v2/ingest instead of a file")
		batch     = flag.Int("batch", 4096, "items per /v2/ingest request")
		queryURL  = flag.String("query", "", "drive this server's POST /v2/query with the stream's keys instead of writing a file")
		qbatch    = flag.Int("qbatch", 64, "keys per /v2/query batch in -query mode")
		qconc     = flag.Int("qconc", 4, "concurrent query clients in -query mode")
	)
	flag.Parse()

	var s *stream.Stream
	switch *dist {
	case "":
		var ok bool
		s, ok = stream.ByName(*dataset, *items, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "rsgen: unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
	case "zipf":
		if *skew < 0 || *distinct < 1 || *items < *distinct {
			fmt.Fprintf(os.Stderr, "rsgen: -dist zipf needs -skew ≥ 0 and -items ≥ -distinct ≥ 1\n")
			os.Exit(2)
		}
		s = stream.Zipf(*items, *distinct, *skew, *seed)
	default:
		fmt.Fprintf(os.Stderr, "rsgen: unknown -dist %q (want zipf)\n", *dist)
		os.Exit(2)
	}
	if *weighted {
		s = stream.ByteWeighted(s, *seed)
	}

	printStats(s)
	if *queryURL != "" {
		if *qbatch < 1 || *qconc < 1 {
			fmt.Fprintln(os.Stderr, "rsgen: -qbatch and -qconc must be ≥ 1")
			os.Exit(2)
		}
		if err := queryStream(*queryURL, s, *qbatch, *qconc); err != nil {
			fmt.Fprintf(os.Stderr, "rsgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *ingestURL != "" {
		if *batch < 1 {
			fmt.Fprintln(os.Stderr, "rsgen: -batch must be ≥ 1")
			os.Exit(2)
		}
		if err := ingestStream(*ingestURL, s, *batch); err != nil {
			fmt.Fprintf(os.Stderr, "rsgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *statsOnly || *out == "" {
		return
	}
	if err := stream.WriteFile(*out, s); err != nil {
		fmt.Fprintf(os.Stderr, "rsgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d items (%d bytes) to %s\n", s.Len(), s.Len()*16, *out)
}

// ingestStream POSTs the stream to base/v2/ingest in JSON batches and sums
// the Acks. A non-200 or short ack aborts: an ingest tool that keeps
// pushing after the server refused a batch would misreport what the server
// actually holds.
func ingestStream(base string, s *stream.Stream, batchSize int) error {
	type wireItem struct {
		Key   uint64 `json:"key"`
		Value uint64 `json:"value"`
	}
	var accepted, dropped int
	for off := 0; off < len(s.Items); off += batchSize {
		end := off + batchSize
		if end > len(s.Items) {
			end = len(s.Items)
		}
		items := make([]wireItem, end-off)
		for i, it := range s.Items[off:end] {
			items[i] = wireItem{Key: it.Key, Value: it.Value}
		}
		body, err := json.Marshal(map[string]any{"items": items})
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/v2/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("batch at %d: %w", off, err)
		}
		var ack struct {
			Accepted int `json:"accepted"`
			Dropped  int `json:"dropped"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("batch at %d: server answered %s", off, resp.Status)
		}
		if decErr != nil {
			return fmt.Errorf("batch at %d: decoding ack: %w", off, decErr)
		}
		accepted += ack.Accepted
		dropped += ack.Dropped
	}
	fmt.Printf("ingested %d items into %s (%d accepted, %d dropped)\n",
		len(s.Items), base, accepted, dropped)
	return nil
}

// queryStream partitions the stream's keys into point-query batches and
// drives them through base/v2/query from conc concurrent clients — the
// read-side load generator. The stream's key order IS the popularity
// distribution (a zipf stream repeats hot keys), so the server sees a
// realistic skewed reference pattern. Prints throughput and batch latency
// percentiles.
func queryStream(base string, s *stream.Stream, batchSize, conc int) error {
	type batchJob struct{ keys []uint64 }
	jobs := make([]batchJob, 0, len(s.Items)/batchSize+1)
	for off := 0; off < len(s.Items); off += batchSize {
		end := off + batchSize
		if end > len(s.Items) {
			end = len(s.Items)
		}
		keys := make([]uint64, end-off)
		for i, it := range s.Items[off:end] {
			keys[i] = it.Key
		}
		jobs = append(jobs, batchJob{keys: keys})
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		totalKeys int
		firstErr  error
	)
	next := make(chan batchJob)
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range next {
				body, err := json.Marshal(map[string]any{"kind": "point", "keys": job.keys})
				if err == nil {
					start := time.Now()
					var resp *http.Response
					resp, err = http.Post(base+"/v2/query", "application/json", bytes.NewReader(body))
					if err == nil {
						decErr := json.NewDecoder(resp.Body).Decode(&struct{}{})
						resp.Body.Close()
						switch {
						case resp.StatusCode != http.StatusOK:
							err = fmt.Errorf("server answered %s", resp.Status)
						case decErr != nil:
							err = fmt.Errorf("decoding answer: %w", decErr)
						default:
							mu.Lock()
							latencies = append(latencies, time.Since(start))
							totalKeys += len(job.keys)
							mu.Unlock()
						}
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	start := time.Now()
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	fmt.Printf("queried %d keys in %d batches against %s (%d clients)\n",
		totalKeys, len(latencies), base, conc)
	fmt.Printf("elapsed:    %v (%.0f keys/s, %.0f batches/s)\n",
		elapsed.Round(time.Millisecond),
		float64(totalKeys)/elapsed.Seconds(), float64(len(latencies))/elapsed.Seconds())
	fmt.Printf("latency:    p50 %v  p99 %v\n", pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	return nil
}

func printStats(s *stream.Stream) {
	truth := s.Truth()
	freqs := make([]uint64, 0, len(truth))
	for _, f := range truth {
		freqs = append(freqs, f)
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	fmt.Printf("dataset:   %s\n", s.Name)
	fmt.Printf("items:     %d\n", s.Len())
	fmt.Printf("total:     %d\n", s.Total())
	fmt.Printf("distinct:  %d\n", s.Distinct())
	fmt.Printf("max key:   %d\n", freqs[0])
	fmt.Printf("median:    %d\n", freqs[len(freqs)/2])
	top10 := uint64(0)
	for i := 0; i < 10 && i < len(freqs); i++ {
		top10 += freqs[i]
	}
	fmt.Printf("top-10 share: %.2f%%\n", 100*float64(top10)/float64(s.Total()))
}
