package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter // zero value usable
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("Gauge = %d, want 4", g.Value())
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	// Register out of name order; exposition must sort.
	g := r.Gauge("zz_depth", "Queue depth.", nil)
	g.Set(3)
	c := r.Counter("aa_total", "Things.", Labels{"kind": "x"})
	c.Add(2)
	r.Counter("aa_total", "Things.", Labels{"kind": "y"}).Inc()
	r.GaugeFunc("mm_ratio", "A ratio.", nil, func() float64 { return 0.25 })
	r.CounterFunc("nn_total", "Sampled.", nil, func() float64 { return 9 })
	r.CollectFunc("pp_total", "Per-agent.", TypeCounter, func(emit Emit) {
		emit(Labels{"agent": "1"}, 11)
		emit(Labels{"agent": "2"}, 22)
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP aa_total Things.`,
		`# TYPE aa_total counter`,
		`aa_total{kind="x"} 2`,
		`aa_total{kind="y"} 1`,
		`# HELP mm_ratio A ratio.`,
		`# TYPE mm_ratio gauge`,
		`mm_ratio 0.25`,
		`# HELP nn_total Sampled.`,
		`# TYPE nn_total counter`,
		`nn_total 9`,
		`# HELP pp_total Per-agent.`,
		`# TYPE pp_total counter`,
		`pp_total{agent="1"} 11`,
		`pp_total{agent="2"} 22`,
		`# HELP zz_depth Queue depth.`,
		`# TYPE zz_depth gauge`,
		`zz_depth 3`,
	}, "\n") + "\n"
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A second scrape must be byte-identical (deterministic ordering).
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != want {
		t.Error("second scrape differs from first")
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "Request latency.", Labels{"endpoint": "/v2/query"}, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP req_seconds Request latency.`,
		`# TYPE req_seconds histogram`,
		`req_seconds_bucket{endpoint="/v2/query",le="0.1"} 1`,
		`req_seconds_bucket{endpoint="/v2/query",le="1"} 3`,
		`req_seconds_bucket{endpoint="/v2/query",le="+Inf"} 4`,
		`req_seconds_sum{endpoint="/v2/query"} 3.05`,
		`req_seconds_count{endpoint="/v2/query"} 4`,
	}, "\n") + "\n"
	if got := b.String(); got != want {
		t.Errorf("histogram exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusUnlabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fold_seconds", "", nil, []float64{1})
	h.ObserveDuration(500 * time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE fold_seconds histogram`,
		`fold_seconds_bucket{le="1"} 1`,
		`fold_seconds_bucket{le="+Inf"} 1`,
		`fold_seconds_sum 0.5`,
		`fold_seconds_count 1`,
	}, "\n") + "\n"
	if got := b.String(); got != want {
		t.Errorf("unlabeled histogram mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	ls := Labels{"path": `C:\tmp`, "q": `say "hi"`, "nl": "a\nb"}
	got := ls.render()
	want := `{nl="a\nb",path="C:\\tmp",q="say \"hi\""}`
	if got != want {
		t.Errorf("render = %s, want %s", got, want)
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "", nil)
	expectPanic("duplicate series", func() { r.Counter("a_total", "", nil) })
	expectPanic("type conflict", func() { r.Gauge("a_total", "", nil) })
	expectPanic("empty name", func() { r.Counter("", "", nil) })
	expectPanic("histogram collector", func() { r.CollectFunc("h", "", TypeHistogram, func(Emit) {}) })
	expectPanic("nil histogram", func() { r.RegisterHistogram("h2", "", nil, nil) })

	// Distinct labels under one family are fine; so are multiple collectors.
	r.Counter("a_total", "", Labels{"k": "v"})
	r.CollectFunc("b_total", "", TypeCounter, func(Emit) {})
	r.CollectFunc("b_total", "", TypeCounter, func(Emit) {})
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {3, "3"}, {-2, "-2"}, {0.25, "0.25"}, {1e18, "1e+18"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%g) = %s, want %s", tc.v, got, tc.want)
		}
	}
}
