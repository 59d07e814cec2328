// Distributed network-wide measurement: several vantage points stream
// their local traffic to a central collector over TCP; the collector
// answers global per-flow queries with certified error bounds that compose
// across agents (Σ estimates, Σ MPEs).
//
// This is the "network-wide measurement" deployment the sketch literature
// targets (and the paper's switch + control-plane split, stretched across
// machines).
//
//	go run ./examples/distributed
//	go run ./examples/distributed -algo SS   # any error-bounded variant
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func main() {
	const (
		agents       = 4
		itemsPerSite = 250_000
		lambda       = 25
	)
	algo := flag.String("algo", "Ours", "error-bounded registry variant for the per-agent sketches")
	flag.Parse()
	collector, err := netsum.NewCollector("127.0.0.1:0", netsum.CollectorConfig{
		Algo: *algo,
		Spec: sketch.Spec{Lambda: lambda, MemoryBytes: 256 << 10, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer collector.Close()
	mode := "estimate-sum aggregation"
	if collector.MergeBased() {
		mode = "merge-based aggregation (every batch also lands in one global sketch, intersected with estimate-summing)"
	}
	fmt.Printf("collector listening on %s, %s\n", collector.Addr(), mode)

	// Each site observes its own slice of the network's traffic; flows
	// cross sites (same key space), as backbone flows cross vantage points.
	truth := map[uint64]uint64{}
	var truthMu sync.Mutex
	var wg sync.WaitGroup
	for site := 0; site < agents; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			agent, err := netsum.Dial(collector.Addr(), uint64(site+1))
			if err != nil {
				log.Printf("site %d: %v", site, err)
				return
			}
			defer agent.Close()
			local := stream.IPTrace(itemsPerSite, uint64(site+1))
			for _, it := range local.Items {
				if err := agent.Record(it.Key, it.Value); err != nil {
					log.Printf("site %d: %v", site, err)
					return
				}
			}
			// Synchronize: a stats round-trip guarantees the collector has
			// ingested everything this site sent.
			if _, _, _, err := agent.Stats(); err != nil {
				log.Printf("site %d sync: %v", site, err)
				return
			}
			truthMu.Lock()
			for k, f := range local.Truth() {
				truth[k] += f
			}
			truthMu.Unlock()
			fmt.Printf("site %d streamed %d packets\n", site, local.Len())
		}(site)
	}
	wg.Wait()

	nAgents, updates, _ := collector.Stats()
	fmt.Printf("\ncollector: %d agents, %d updates ingested\n", nAgents, updates)

	// Rank global flows and verify the composed certificates.
	type flow struct {
		key       uint64
		est, real uint64
	}
	keys := make([]uint64, 0, len(truth))
	for key := range truth {
		keys = append(keys, key)
	}
	flows := make([]flow, 0, len(keys))
	violations := 0
	for len(keys) > 0 {
		batch := keys[:min(len(keys), query.MaxBatchKeys)]
		keys = keys[len(batch):]
		ans, err := collector.Execute(query.Request{Kind: query.Point, Keys: batch})
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range ans.PerKey {
			f := truth[e.Key]
			if f > e.Upper || e.Lower > f {
				violations++
			}
			flows = append(flows, flow{e.Key, e.Est, f})
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].est > flows[j].est })

	// Only Lambda-targeting variants promise error ≤ Λ per agent; other
	// error-bounded variants (SS) certify their own per-query MPE instead.
	if e, ok := sketch.Lookup(*algo); ok && e.Caps.Has(sketch.CapLambdaTargeting) {
		fmt.Printf("\ntop global flows (certified error ≤ %d per agent, %d agents):\n", lambda, agents)
	} else {
		fmt.Printf("\ntop global flows (%s per-query certificates composed across %d agents):\n", *algo, agents)
	}
	fmt.Printf("%-4s %-20s %12s %12s %8s\n", "#", "flow", "estimate", "true", "err")
	for i := 0; i < 8 && i < len(flows); i++ {
		f := flows[i]
		fmt.Printf("%-4d %-20d %12d %12d %8d\n", i+1, f.key, f.est, f.real, f.est-f.real)
	}
	fmt.Printf("\ncertified-interval violations across %d global flows: %d\n", len(flows), violations)
}
