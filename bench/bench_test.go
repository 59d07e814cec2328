package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSmoke runs every workload untraced and traced at a small scale and
// checks that each declared metric is reported, nothing failed, and every
// certified interval held.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	base := config{seed: 1, seconds: 0.2, items: 100_000, distinct: 20_000, conns: 2, setups: 1, workDir: dir}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := base
			cfg.workload = w.name
			un, err := runChild(cfg, "0")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, un, endToEnd)
			cfg.traced = true
			spans := filepath.Join(dir, w.name+".jsonl")
			tr, err := runChild(cfg, spans)
			if err != nil {
				t.Fatal(err)
			}
			mergeBase(tr, un)
			checkResult(t, tr, perLayer)
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
			// No replay may exceed the handler span it stands in for. At this
			// scale the means cover a few dozen requests, so allow a tenth of
			// the span for noise.
			h := tr.Metrics["queryd.handler_us_mean"].Value
			if u := tr.Metrics["queryd.unattributed_us"].Value; u < -h/10 && !raceEnabled {
				t.Errorf("decode + encode + backend exceed the %.1fus handler span by %.1fus", h, -u)
			}
			if w.name == "ingest_wal" {
				for _, m := range []string{"wal.append_us_mean", "wal.fsync_us_mean", "wal.replay_items_per_s", "backend.ingest_us_mean"} {
					if tr.Metrics[m].Value <= 0 {
						t.Errorf("%s = %v: the traced stack lost a layer", m, tr.Metrics[m].Value)
					}
				}
			}
		})
	}
}

func checkResult(t *testing.T, res *result, want []declared) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	for _, name := range []string{"error_ratio", "certified_violations"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	for _, d := range endToEnd {
		if d.name != "keys_over_lambda" && res.Metrics[d.name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json, the metrics the code reports
// and the workloads it runs in agreement.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range workloads {
		names, whys = append(names, w.name), append(whys, w.why)
	}
	var specNames, specWhys []string
	for _, w := range spec.Workloads {
		specNames, specWhys = append(specNames, w.Name), append(specWhys, w.Why)
	}
	if !slices.Equal(names, specNames) || !slices.Equal(whys, specWhys) {
		t.Errorf("workloads: code %q, BENCHMARK.json %q", names, specNames)
	}
	for _, c := range []struct {
		code []declared
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		var got []declared
		for _, m := range c.spec {
			got = append(got, declared{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.code) {
			t.Errorf("metrics: code %v, BENCHMARK.json %v", c.code, got)
		}
	}
}

func TestJudge(t *testing.T) {
	seq := func(from, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = from + step*float64(i%5)
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"same", seq(100, 1), seq(100, 1), false, unchanged},
		{"faster", seq(100, 1), seq(80, 1), false, improved},
		{"slower past bound", seq(100, 1), seq(120, 1), false, worse},
		{"slower within bound", seq(100, 1), seq(105, 1), false, unchanged},
		{"throughput drop", seq(100, 1), seq(80, 1), true, worse},
		{"noisy", seq(100, 10), seq(100, 10), false, unresolved},
		{"noisy but all better", seq(100, 10), seq(10, 1), false, improved},
		{"too few pairs", seq(100, 1)[:5], seq(80, 1)[:5], false, unchanged},
	} {
		if got := judge(c.parent, c.change, 0.1, c.higher, true); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(seq(100, 10), seq(100, 10), 0.1, false, false); got != unchanged {
		t.Errorf("noisy, spread not gated: judge = %s, want %s", got, unchanged)
	}
}
