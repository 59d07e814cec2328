package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/queryd"
)

// series is one /metrics scrape: series name with labels → value.
type series map[string]float64

// scrape reads /metrics.
func (c *client) scrape() (series, error) {
	var out bytes.Buffer
	if err := c.get("/metrics", &out); err != nil {
		return nil, err
	}
	m := series{}
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// addDelta accumulates after − before into s.
func (s series) addDelta(before, after series) {
	for k, v := range after {
		s[k] += v - before[k]
	}
}

// status reads /v1/status.
func (c *client) status() (queryd.StatusResponse, error) {
	var out bytes.Buffer
	var st queryd.StatusResponse
	if err := c.get("/v1/status", &out); err != nil {
		return st, err
	}
	err := json.Unmarshal(out.Bytes(), &st)
	return st, err
}

// layerMetrics derives the per-layer numbers the scrape exposes from the
// accumulated timed-phase deltas d. Layers that did no work report 0.
func layerMetrics(d series, queryReqs, ingestItems int64) map[string]float64 {
	meanUs := func(h string) float64 { return ratio(d[h+"_sum"], d[h+"_count"]) * 1e6 }
	folds := d["ingest_folds_total"]
	return map[string]float64{
		"rcache.key_hit_ratio":       ratio(d["queryd_cache_hits_total"], d["queryd_cache_hits_total"]+d["queryd_cache_misses_total"]),
		"rcache.evictions_per_req":   ratio(d["queryd_cache_evictions_total"], float64(queryReqs)),
		"rcache.coalesced_per_req":   ratio(d["queryd_cache_coalesced_total"], float64(queryReqs)),
		"wal.append_us_mean":         meanUs("wal_append_duration_seconds"),
		"wal.fsync_us_mean":          meanUs("wal_fsync_duration_seconds"),
		"wal.fsyncs_per_append":      ratio(d["wal_fsyncs_total"], d["wal_appended_records_total"]),
		"wal.bytes_per_item":         ratio(d["wal_bytes"], float64(ingestItems)),
		"ingest.fold_us_mean":        meanUs("ingest_fold_duration_seconds"),
		"ingest.items_per_fold":      ratio(d["ingest_folded_items_total"], folds),
		"ingest.barrier_flush_share": ratio(d[`ingest_flushes_total{reason="barrier"}`], folds),
		"ingest.dropped_items":       d["ingest_dropped_items_total"],
	}
}

// runtimeSample is the process-wide counters runtime metrics are deltas of.
type runtimeSample struct {
	allocs, gcCPU, totalCPU float64
	procCPU                 float64 // s of CPU this process ran (user + system)
	steal, ticks            float64 // host clock ticks stolen from, and passed on, every CPU
}

var runtimeNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	steal, ticks := readSteal()
	return runtimeSample{
		allocs:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		procCPU:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		steal:    steal,
		ticks:    ticks,
	}
}

// readSteal reads the steal and total ticks of all CPUs from /proc/stat;
// both are 0 where it is unreadable.
func readSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func (r *runtimeSample) addDelta(before, after runtimeSample) {
	r.allocs += after.allocs - before.allocs
	r.gcCPU += after.gcCPU - before.gcCPU
	r.totalCPU += after.totalCPU - before.totalCPU
	r.procCPU += after.procCPU - before.procCPU
	r.steal += after.steal - before.steal
	r.ticks += after.ticks - before.ticks
}
