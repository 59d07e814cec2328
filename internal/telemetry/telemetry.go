// Package telemetry is the serving system's metrics plane: a
// dependency-free registry of atomic counters, gauges, and fixed-bucket
// latency histograms, exposed in Prometheus text format (WritePrometheus,
// Handler) and readable programmatically (snapshots) so JSON status
// surfaces and the time-series exposition derive from ONE set of
// instruments instead of per-subsystem ad-hoc Stats structs.
//
// The design contract is the same one the sketches live under: recording
// must never cost the hot path an allocation or a lock.
//
//   - Counter and Gauge are single atomic words whose zero value is usable,
//     so subsystems embed them directly in their hot structs (the ingest
//     pipeline's accepted/dropped counters, the WAL's fsync counter) and
//     register the SAME instrument for exposition — no double counting, no
//     sampling thread.
//   - Histogram records into fixed buckets with one atomic add per bucket
//     and a CAS loop for the sum: exact, lock-free, allocation-free. Reads
//     take a snapshot; recording never waits for a scrape.
//   - Exposition walks the registry under its mutex, but instruments are
//     read with independent atomic loads — a scrape observes each counter
//     exactly, though counters incremented together may skew relative to
//     one another mid-flight (the standard Prometheus contract).
//
// Registration is startup-time configuration, like sketch registration:
// duplicate (name, labels) pairs and type conflicts panic.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, so it embeds directly in hot-path structs.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; deltas are unsigned by construction.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, generation). The
// zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Type is a metric family's Prometheus type.
type Type string

// The exposition type strings, as they appear on # TYPE lines.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Labels name one series within a family, e.g. {"endpoint": "/v2/query"}.
// Keys are rendered in sorted order, so equal label sets are equal strings.
type Labels map[string]string

// render produces the canonical `{k="v",...}` form ("" for no labels).
// Label values are escaped per the text format (backslash, quote, newline).
func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(ls[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Emit publishes one sample from a CollectFunc collector.
type Emit func(labels Labels, value float64)

// series is one registered instrument (or collector) within a family.
type series struct {
	labels  string // rendered label set; "" for collectors that emit their own
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
	collect func(Emit)
}

// family groups every series sharing one metric name under a single
// HELP/TYPE header.
type family struct {
	name   string
	help   string
	typ    Type
	series []*series
}

// Registry holds metric families and exposes them. Safe for concurrent
// registration and exposition; instruments themselves are atomic and never
// touch the registry lock when recording.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order; exposition sorts a copy
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register attaches s to the named family, creating it on first use.
// Conflicting types or duplicate (name, labels) pairs are programming
// errors and panic, like registering the same sketch variant twice.
func (r *Registry) register(name, help string, typ Type, s *series) {
	if name == "" {
		panic("telemetry: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.names = append(r.names, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	for _, have := range f.series {
		if have.collect == nil && s.collect == nil && have.labels == s.labels {
			panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// RegisterCounter exposes an existing counter (typically a struct field on
// a hot-path type) under name and labels.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	r.register(name, help, TypeCounter, &series{labels: labels.render(), counter: c})
}

// Counter allocates, registers, and returns a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, labels, c)
	return c
}

// RegisterGauge exposes an existing gauge under name and labels.
func (r *Registry) RegisterGauge(name, help string, labels Labels, g *Gauge) {
	r.register(name, help, TypeGauge, &series{labels: labels.render(), gauge: g})
}

// Gauge allocates, registers, and returns a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, help, labels, g)
	return g
}

// GaugeFunc registers a gauge computed at scrape time — the
// snapshot-on-read path for values a subsystem already maintains (queue
// depth, segment counts, generations). f must be safe to call from any
// goroutine and should not block on the paths it observes.
func (r *Registry) GaugeFunc(name, help string, labels Labels, f func() float64) {
	r.register(name, help, TypeGauge, &series{labels: labels.render(), gaugeFn: f})
}

// CounterFunc registers a counter sampled at scrape time from an existing
// monotonic source (a seal count, an atomic another struct owns).
func (r *Registry) CounterFunc(name, help string, labels Labels, f func() float64) {
	r.register(name, help, TypeCounter, &series{labels: labels.render(), gaugeFn: f})
}

// RegisterHistogram exposes an existing histogram under name and labels.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	if h == nil {
		panic("telemetry: RegisterHistogram given a nil histogram")
	}
	r.register(name, help, TypeHistogram, &series{labels: labels.render(), hist: h})
}

// Histogram allocates a histogram with the given bucket bounds, registers
// it, and returns it.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.RegisterHistogram(name, help, labels, h)
	return h
}

// CollectFunc registers a scrape-time collector that may emit any number
// of samples under one family — the path for dynamic series like per-agent
// counters, where the label set is not known at startup. typ must be
// TypeCounter or TypeGauge.
func (r *Registry) CollectFunc(name, help string, typ Type, collect func(Emit)) {
	if typ != TypeCounter && typ != TypeGauge {
		panic(fmt.Sprintf("telemetry: CollectFunc supports counter and gauge families, not %s", typ))
	}
	r.register(name, help, typ, &series{collect: collect})
}

// sortedFamilies snapshots the family list in name order for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	return fams
}

// formatValue renders a sample value the way the text format expects:
// integral values without an exponent, everything else in Go's shortest
// round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
