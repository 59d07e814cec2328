// Command bench is the end-to-end serving benchmark: it builds rsserve's
// default stack in-process, drives it over loopback HTTP with seeded
// workloads, checks every answer against an exact oracle, and prints each
// metric as `workload metric value unit`, then one JSON summary line.
//
//	go run . -seed 1                         # all workloads, untraced
//	go run . -workload query_hot -seconds 10 # one workload
//	go run . -trace spans.jsonl              # per-layer metrics and spans
//	go run . -seed 2 -out change.jsonl       # append full results for compare
//	go run . compare parent.jsonl change.jsonl
//	go run . summary runs.jsonl              # medians and quartiles as JSON
//
// Each workload runs in a fresh child process (the binary re-executes
// itself), so peak RSS and runtime counters belong to that workload alone.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

const (
	defaultItems    = 4 << 20 // 4M items of S per round
	defaultDistinct = 2 << 20 // 2M keys in S's zipf support
	querySetups     = 5
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "summary":
			os.Exit(summaryMain(os.Args[2:]))
		}
	}
	var (
		name    = flag.String("workload", "", "run only this workload (default: all, in order)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured time per workload run")
		trace   = flag.String("trace", "0", `"0": untraced run printing end-to-end metrics; "1" or a file path: traced run printing per-layer metrics and writing spans (to -workdir for "1")`)
		out     = flag.String("out", "", "append each workload's full result to this JSON-lines file")
		workDir = flag.String("workdir", ".bench_build", "directory for WAL segments and spans")
		child   = flag.Bool("child", false, "run one workload in this process and print its result as JSON (used by the parent)")
	)
	flag.Parse()
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		items:    defaultItems,
		distinct: defaultDistinct,
		conns:    min(2, runtime.NumCPU()),
		setups:   querySetups,
		workDir:  *workDir,
		traced:   *trace != "0",
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatal(err)
	}
	if *child {
		res, err := runChild(cfg, *trace)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(cfg.workload); !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	var results []*result
	for _, n := range names {
		res, err := runParent(n, cfg, *trace)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", n, err))
		}
		printResult(res)
		results = append(results, res)
		if *out != "" {
			if err := appendJSONLine(*out, res); err != nil {
				fatal(err)
			}
		}
	}
	ok := printSummary(results, cfg.traced)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: an answer certified an interval that excludes the true count")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runChild runs one workload in this process.
func runChild(cfg config, trace string) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.in.close()
	if err := w.run(r); err != nil {
		return nil, err
	}
	if r.tr == nil {
		return r.result(nil), nil
	}
	rs, err := r.rp.stats(r.in)
	if err != nil {
		return nil, err
	}
	path := trace
	if path == "1" {
		path = filepath.Join(cfg.workDir, "spans-"+cfg.workload+".jsonl")
	}
	if err := r.tr.writeSpans(path); err != nil {
		return nil, err
	}
	return r.result(&rs), nil
}

// runParent runs one workload in child processes. A traced run is two
// children splitting the measured time: an untraced one, whose latency
// and runtime counters are the baseline, then a traced one.
func runParent(name string, cfg config, trace string) (*result, error) {
	if !cfg.traced {
		return spawn(name, cfg, cfg.seconds, "0")
	}
	base, err := spawn(name, cfg, cfg.seconds/2, "0")
	if err != nil {
		return nil, err
	}
	res, err := spawn(name, cfg, cfg.seconds/2, trace)
	if err != nil {
		return nil, err
	}
	mergeBase(res, base)
	return res, nil
}

// mergeBase completes a traced result with what only its untraced twin
// measures faithfully: the runtime counters and the tracing overhead.
func mergeBase(traced, base *result) {
	for _, k := range []string{"runtime.allocs_per_req", "runtime.gc_cpu_fraction"} {
		traced.Metrics[k] = base.Metrics[k]
	}
	lat := base.Metrics["latency_mean_ms"].Value
	traced.Metrics["trace.overhead_pct"] = metric{ratio(traced.Metrics["latency_mean_ms"].Value-lat, lat) * 100, "%"}
	traced.Correct = traced.Correct && base.Correct
	traced.Attempted += base.Attempted
	traced.Failed += base.Failed
	traced.Problems = append(traced.Problems, base.Problems...)
}

// spawn re-executes this binary as a child running one workload.
func spawn(name string, cfg config, seconds float64, trace string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace, "-workdir", cfg.workDir)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("reading child result: %w", err)
	}
	return &res, nil
}

// printResult prints the stamp and every metric of one workload.
func printResult(res *result) {
	st := res.Stamp
	fmt.Printf("# %s %s seed=%d trace=%v go=%s %s cpus=%d gomaxprocs=%d cpu=%q rev=%s phases=%s steal=%.4f\n",
		res.Workload, verdict(res), res.Seed, res.Trace, st.Go, st.Platform, st.NumCPU, st.GOMAXPROCS,
		st.CPU, st.Revision, phasesString(st.Phases), st.StealShare)
	for _, p := range res.Problems {
		fmt.Printf("# %s problem: %s\n", res.Workload, p)
	}
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[n]
		fmt.Printf("%s %s %s %s\n", res.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

func verdict(res *result) string {
	if !res.Correct {
		return "FAILED"
	}
	return "ok"
}

func phasesString(p map[string]float64) string {
	var b bytes.Buffer
	for i, k := range slices.Sorted(maps.Keys(p)) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", k, p[k])
	}
	return b.String()
}

// printSummary prints the last line: one JSON object with the declared
// metrics of the run's kind. With several workloads, metric names carry a
// "workload/" prefix. It reports whether every workload was correct.
func printSummary(results []*result, traced bool) bool {
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, res := range results {
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for _, d := range decl {
			name := d.name
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			sum.Metrics[name] = metric{res.Metrics[d.name].Value, d.unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return sum.Correct
}

func appendJSONLine(path string, v any) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return err
	}
	return errors.Join(w.Flush(), f.Close())
}

// readResults reads a -out file.
func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, nil
}
