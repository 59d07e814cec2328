package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, stamped with what it ran on. Lines of a
// -out file are results; compare reads them back.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Stamp     stamp             `json:"stamp"`
}

// stamp records the build, machine and phase lengths behind a result.
type stamp struct {
	Go         string             `json:"go"`
	Platform   string             `json:"platform"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPU        string             `json:"cpu"`
	Revision   string             `json:"revision"`
	Phases     map[string]float64 `json:"phases,omitempty"`
	// StealShare is the share of all CPUs' time the hypervisor gave to
	// other guests during the timed phases (/proc/stat steal). Wall-clock
	// metrics of a run with a high share measured a busy host; process CPU
	// time (cpu_us_per_req) excludes steal.
	StealShare float64 `json:"steal_share,omitempty"`
}

// declared is a metric the benchmark declares: end-to-end metrics are
// printed by untraced runs and gated, per-layer ones by traced runs.
type declared struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json (a test keeps them equal).
// The end-to-end metrics are role-based because every workload reports
// every one: latency is the workload's measured request (ingest ack on
// ingest_wal, query answer elsewhere), throughput its measured work rate
// (items acked on ingest_wal, keys answered at capacity on the query
// workloads and by the reader on mixed_rw). Latency is gated on its mean
// and p90, not its median: mixed_rw's query latencies fall in three
// clusters (no write pending, one fold, two folds), and its median jumps
// between the two upper ones from run to run while the mean moves
// smoothly.
var (
	endToEnd = []declared{
		{"setup_s", "s"},
		{"latency_mean_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"throughput_per_s", "1/s"},
		{"rss_peak_mb", "MB"},
		{"keys_over_lambda", "count"},
	}
	perLayer = []declared{
		{"queryd.handler_us_mean", "us"},
		{"queryd.handler_us_p50", "us"},
		{"queryd.decode_us", "us"},
		{"queryd.encode_us", "us"},
		{"queryd.unattributed_us", "us"},
		{"http.client_us_p50", "us"},
		{"http.transport_us_mean", "us"},
		{"backend.execute_us_mean", "us"},
		{"backend.execute_keys_per_call", "keys"},
		{"backend.ingest_us_mean", "us"},
		{"rcache.key_hit_ratio", "ratio"},
		{"rcache.evictions_per_req", "1/req"},
		{"rcache.coalesced_per_req", "1/req"},
		{"wal.append_us_mean", "us"},
		{"wal.fsync_us_mean", "us"},
		{"wal.fsyncs_per_append", "ratio"},
		{"wal.bytes_per_item", "B/item"},
		{"wal.replay_items_per_s", "items/s"},
		{"ingest.submit_us_mean", "us"},
		{"ingest.fold_us_mean", "us"},
		{"ingest.items_per_fold", "items"},
		{"ingest.barrier_flush_share", "ratio"},
		{"ingest.dropped_items", "count"},
		{"sketch.insert_ns_per_item", "ns"},
		{"sketch.query_ns_per_key", "ns"},
		{"sketch.insertion_failures", "count"},
		{"runtime.allocs_per_req", "1/req"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"trace.overhead_pct", "%"},
	}
)

// result assembles the run's metrics. rs is nil for untraced runs.
func (r *run) result(rs *replayStats) *result {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// The measured request is the query where a workload queries, else the
	// ingest ack; the measured work rate is keys answered per second where
	// a workload queries (at capacity where it has a capacity phase), else
	// items acked.
	latWins, rateWins := r.queryWins, r.queryWins
	if len(r.capWins) > 0 {
		rateWins = r.capWins
	}
	if len(latWins) == 0 {
		latWins, rateWins = r.ingestWins, r.ingestWins
	}
	lat, p90 := windowLatency(latWins)
	throughput := windowRate(rateWins)
	set("setup_s", median(r.setups), "s")
	set("latency_mean_ms", lat, "ms")
	set("latency_p90_ms", p90, "ms")
	set("throughput_per_s", throughput, "1/s")
	set("rss_peak_mb", r.rssPeak, "MB")
	set("keys_over_lambda", median(r.over), "count")

	// The same numbers under the names of the layer they come from, plus
	// the ones printed but not gated: p50 and p99 over all of the run's
	// requests.
	if len(r.capWins) > 0 {
		set("query_capacity_keys_per_s", throughput, "keys/s")
	}
	if q := r.queries; q.requests > 0 {
		lat, p90 := windowLatency(r.queryWins)
		set("query_keys_per_s", windowRate(r.queryWins), "keys/s")
		set("query_mean_ms", lat, "ms")
		set("query_p50_ms", quantile(q.latencies(), 0.5), "ms")
		set("query_p90_ms", p90, "ms")
		set("query_p99_ms", quantile(q.latencies(), 0.99), "ms")
		set("query_rate_per_s", float64(q.requests)/q.elapsed.Seconds(), "req/s")
	}
	if in := r.ingests; in.requests > 0 {
		lat, p90 := windowLatency(r.ingestWins)
		set("ingest_items_per_s", windowRate(r.ingestWins), "items/s")
		set("ingest_ack_mean_ms", lat, "ms")
		set("ingest_ack_p50_ms", quantile(in.latencies(), 0.5), "ms")
		set("ingest_ack_p90_ms", p90, "ms")
		set("ingest_ack_p99_ms", quantile(in.latencies(), 0.99), "ms")
	}
	if len(r.recoveries) > 0 {
		set("recovery_s", median(r.recoveries), "s")
		set("keys_over_lambda_recovered", median(r.overRecov), "count")
	}
	timedReqs := r.capacity.requests + r.queries.requests + r.ingests.requests
	failed := r.capacity.failed + r.queries.failed + r.ingests.failed
	set("error_ratio", ratio(float64(failed), float64(timedReqs+r.sweepReqs)), "ratio")
	set("certified_violations", float64(r.violations), "count")
	set("rounds", float64(r.rounds), "count")
	set("runtime.allocs_per_req", ratio(r.rt.allocs, float64(timedReqs)), "1/req")
	set("runtime.gc_cpu_fraction", ratio(r.rt.gcCPU, r.rt.totalCPU), "ratio")
	set("cpu_us_per_req", ratio(r.rt.procCPU*1e6, float64(timedReqs)), "us")

	queryReqs := r.capacity.requests + r.queries.requests
	layers := layerMetrics(r.layers, queryReqs, int64(r.rounds*r.cfg.items))
	layers["wal.replay_items_per_s"] = ratio(float64(r.cfg.items), mean(r.recoveries))
	if r.tr != nil && rs != nil {
		sp := r.tr.stats()
		ingestReqs := float64(r.ingests.requests)
		total := float64(queryReqs) + ingestReqs
		decode := ratio(float64(queryReqs)*rs.queryDecodeUs+ingestReqs*rs.ingestDecodeUs, total)
		encode := ratio(float64(queryReqs)*rs.queryEncodeUs+ingestReqs*rs.ackEncodeUs, total)
		layers["queryd.handler_us_mean"] = sp.handlerMeanUs
		layers["queryd.handler_us_p50"] = sp.handlerP50Us
		layers["queryd.decode_us"] = decode
		layers["queryd.encode_us"] = encode
		layers["queryd.unattributed_us"] = sp.handlerMeanUs - decode - encode - sp.backendPerReqUs
		layers["http.client_us_p50"] = sp.clientP50Us
		layers["http.transport_us_mean"] = sp.transportMeanUs
		layers["backend.execute_us_mean"] = sp.executeMeanUs
		layers["backend.execute_keys_per_call"] = sp.executeKeysPerCall
		layers["backend.ingest_us_mean"] = sp.ingestMeanUs
		layers["ingest.submit_us_mean"] = sp.ingestMeanUs - layers["wal.append_us_mean"]
		layers["sketch.insert_ns_per_item"] = rs.insertNsPerItem
		layers["sketch.query_ns_per_key"] = rs.queryNsPerKey
		layers["sketch.insertion_failures"] = float64(rs.insertionFailures)
	}
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	for name, v := range layers {
		set(name, v, units[name])
	}

	res := &result{
		Workload:  r.cfg.workload,
		Seed:      r.cfg.seed,
		Trace:     r.cfg.traced,
		Attempted: timedReqs + r.sweepReqs,
		Failed:    failed,
		Metrics:   m,
		Stamp:     newStamp(),
	}
	res.Correct = r.violations == 0 && len(r.problems) == 0
	for _, p := range r.problems {
		res.Problems = append(res.Problems, p.Error())
	}
	if r.violations > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d certified intervals exclude the true count", r.violations))
	}
	for _, p := range []phaseStats{r.capacity, r.queries, r.ingests} {
		if p.firstErr != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("%d of %d requests failed, first: %v", p.failed, p.requests, p.firstErr))
		}
	}
	res.Stamp.Phases = map[string]float64{
		"seconds":  r.cfg.seconds,
		"rounds":   float64(r.rounds),
		"window_s": r.window.Seconds(),
	}
	res.Stamp.StealShare = ratio(r.rt.steal, r.rt.ticks)
	for name, p := range map[string]phaseStats{"capacity_s": r.capacity, "query_s": r.queries, "ingest_s": r.ingests} {
		if p.requests > 0 {
			res.Stamp.Phases[name] = p.elapsed.Seconds()
		}
	}
	return res
}

// windowLatency is the median over windows of each window's mean and p90
// latency, skipping windows no request completed in.
func windowLatency(ws []window) (avg, p90 float64) {
	var a, b []float64
	for _, w := range ws {
		if w.requests > 0 {
			a, b = append(a, w.mean), append(b, w.p90)
		}
	}
	return median(a), median(b)
}

// windowRate is the median over windows of the completion rate.
func windowRate(ws []window) float64 {
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = w.rate
	}
	return median(rates)
}

func newStamp() stamp {
	st := stamp{
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					st.Revision += "+dirty"
				}
			}
		}
	}
	return st
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sampleRSS samples this process's resident set every 10ms until stop
// closes and returns the largest sample, in MB. Sampling the measured
// phases, rather than reading VmHWM, keeps the generator's own start-up
// peak out of the number.
func sampleRSS(stop <-chan struct{}) float64 {
	var peak float64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if mb, err := residentMB(); err == nil {
			peak = max(peak, mb)
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

// residentMB reads the resident set from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, errors.New("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}
