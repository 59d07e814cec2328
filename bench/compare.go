package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var errs []error
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		return spec, json.Unmarshal(b, &spec)
	}
	return spec, errors.Join(errs...)
}

// Verdicts, per metric × workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs an improvement claim needs.
const minPairs = 10

// judge applies the pairing rule to one metric of one workload. Runs pair
// up in file order, so the files should come from alternating runs.
//   - worse: the change's median is worse than the parent's by more than
//     bound × the parent's median;
//   - improved: at least minPairs pairs, the change wins at least 9 in 10
//     of them (ties count for neither), and the medians differ by more
//     than the parent's interquartile range;
//   - unresolved: either side's spread (IQR over median) exceeds the bound,
//     unless every change run reads better than every parent run;
//   - unchanged otherwise.
//
// spreadGated false skips the unresolved rule: set-up happens only a few
// times per run, so like the benchmark's own acceptance, compare judges
// it by its median alone.
func judge(parent, change []float64, bound float64, higherBetter, spreadGated bool) string {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	// worseBy is the change's regression as a share of the parent median.
	worseBy := ratio(cm-pm, math.Abs(pm))
	if higherBetter {
		worseBy = -worseBy
	}
	if pm == 0 && better(pm, cm) {
		worseBy = math.Inf(1)
	}
	n := min(len(parent), len(change))
	wins := 0
	for i := range n {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case n >= minPairs && wins*10 >= 9*n && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		return improved
	case worseBy > bound:
		return worse
	case spreadGated && !allBetter && (ratio(pq3-pq1, math.Abs(pm)) > bound || ratio(cq3-cq1, math.Abs(cm)) > bound):
		return unresolved
	}
	return unchanged
}

// compareMain implements `bench compare [-spec BENCHMARK.json] parent change`:
// it judges every end-to-end metric × workload and exits 1 when any is
// worse or unresolved, or when the change fails or errs more.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json holding the bounds (default: ./ or ../BENCHMARK.json)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-spec BENCHMARK.json] parent.jsonl change.jsonl")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sides [2]map[string][]*result
	for i := range sides {
		rs, err := readResults(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sides[i] = map[string][]*result{}
		for _, r := range rs {
			if !r.Trace {
				sides[i][r.Workload] = append(sides[i][r.Workload], r)
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tbound\tverdict")
	bad := 0
	for _, w := range workloads {
		parent, change := sides[0][w.name], sides[1][w.name]
		if len(parent) == 0 || len(change) == 0 {
			continue
		}
		if failures(change) > failures(parent) {
			fmt.Fprintf(tw, "%s\tfailed+incorrect\t%d\t%d\t\t0\t%s\n", w.name, failures(parent), failures(change), worse)
			bad++
		}
		for _, m := range spec.EndToEnd {
			p, c := values(parent, m.Name), values(change, m.Name)
			v := judge(p, c, m.Bound, m.Better == "higher", m.Name != "setup_s")
			if v == worse || v == unresolved {
				bad++
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, pm, pq1, pq3, cm, cq1, cq3, 100*ratio(cm-pm, math.Abs(pm)), 100*m.Bound, v)
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Printf("%d metric × workload pairs are worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// summaryMain implements `bench summary runs.jsonl`: it prints the median
// and quartiles of every end-to-end metric of each workload's untraced
// runs as JSON, the form baseline.json records them in.
func summaryMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench summary runs.jsonl")
		return 2
	}
	rs, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench summary:", err)
		return 2
	}
	type stat struct {
		Unit   string  `json:"unit"`
		Runs   int     `json:"runs"`
		Q1     float64 `json:"q1"`
		Median float64 `json:"median"`
		Q3     float64 `json:"q3"`
	}
	out := struct {
		Stamp     stamp                      `json:"stamp"`
		Seconds   float64                    `json:"seconds"`
		Seeds     []uint64                   `json:"seeds"`
		Workloads map[string]map[string]stat `json:"workloads"`
	}{Workloads: map[string]map[string]stat{}}
	byWorkload := map[string][]*result{}
	for _, r := range rs {
		if r.Trace {
			continue
		}
		if len(byWorkload) == 0 {
			out.Stamp, out.Seconds = r.Stamp, r.Stamp.Phases["seconds"]
			out.Stamp.Phases, out.Stamp.StealShare = nil, 0
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		if !slices.Contains(out.Seeds, r.Seed) {
			out.Seeds = append(out.Seeds, r.Seed)
		}
	}
	for name, runs := range byWorkload {
		out.Workloads[name] = map[string]stat{}
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(values(runs, d.name))
			out.Workloads[name][d.name] = stat{Unit: d.unit, Runs: len(runs), Q1: q1, Median: med, Q3: q3}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench summary:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func values(rs []*result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// failures counts failed requests plus incorrect runs.
func failures(rs []*result) int64 {
	var n int64
	for _, r := range rs {
		n += r.Failed
		if !r.Correct {
			n++
		}
	}
	return n
}
