package harness

import (
	"fmt"
	"sort"
)

// Experiment is a registered paper artifact that can be regenerated.
type Experiment struct {
	// ID is the canonical identifier ("fig4a", "table3", ...).
	ID string
	// Description summarizes the artifact.
	Description string
	// Run executes the experiment and returns one or more result tables.
	Run func(o Options) ([]*Table, error)
}

// registry holds every reproducible table and figure, keyed by ID.
var registry = map[string]Experiment{}

func register(id, desc string, run func(o Options) ([]*Table, error)) {
	registry[id] = Experiment{ID: id, Description: desc, Run: run}
}

func one(t *Table) ([]*Table, error) { return []*Table{t}, nil }

func init() {
	register("table1", "complexity comparison + measured overall confidence",
		func(o Options) ([]*Table, error) { return one(Table1(o)) })
	register("table3", "FPGA implementation resources",
		func(o Options) ([]*Table, error) { return one(Table3(o)) })
	register("table4", "switch (Tofino) resources",
		func(o Options) ([]*Table, error) { return one(Table4(o)) })

	register("fig4a", "#outliers vs memory, Λ=5, IP trace",
		func(o Options) ([]*Table, error) { return one(Fig4(5, o)) })
	register("fig4b", "#outliers vs memory, Λ=25, IP trace",
		func(o Options) ([]*Table, error) { return one(Fig4(25, o)) })
	register("fig5", "zero-outlier memory consumption",
		func(o Options) ([]*Table, error) { return one(Fig5(o)) })
	for _, v := range []struct{ id, ds string }{
		{"fig6a", "web"}, {"fig6b", "dc"}, {"fig6c", "zipf0.3"}, {"fig6d", "zipf3.0"},
	} {
		ds := v.ds
		register(v.id, "#outliers vs memory on "+ds,
			func(o Options) ([]*Table, error) {
				t, err := Fig6(ds, o)
				if err != nil {
					return nil, err
				}
				return one(t)
			})
	}
	register("fig7a", "worst-case frequent-key outliers, T=100",
		func(o Options) ([]*Table, error) { return one(Fig7(100, o)) })
	register("fig7b", "worst-case frequent-key outliers, T=1000",
		func(o Options) ([]*Table, error) { return one(Fig7(1000, o)) })
	for _, v := range []struct{ id, ds string }{
		{"fig8a", "ip"}, {"fig8b", "zipf3.0"},
	} {
		ds := v.ds
		register(v.id, "AAE vs memory on "+ds,
			func(o Options) ([]*Table, error) {
				t, err := Fig8(ds, o)
				if err != nil {
					return nil, err
				}
				return one(t)
			})
	}
	for _, v := range []struct{ id, ds string }{
		{"fig9a", "ip"}, {"fig9b", "zipf3.0"},
	} {
		ds := v.ds
		register(v.id, "ARE vs memory on "+ds,
			func(o Options) ([]*Table, error) {
				t, err := Fig9(ds, o)
				if err != nil {
					return nil, err
				}
				return one(t)
			})
	}
	register("fig10", "insertion/query throughput, all algorithms",
		func(o Options) ([]*Table, error) { return one(Fig10(o)) })
	register("merge", "merged vs single-sketch accuracy on a split stream (Mergeable variants)",
		func(o Options) ([]*Table, error) { return one(MergeAccuracy(o)) })
	register("serve", "/v2/query serving latency and key throughput under concurrent load",
		func(o Options) ([]*Table, error) {
			t, err := ServeLoad(o)
			if err != nil {
				return nil, err
			}
			return one(t)
		})
	register("fig11", "Rw impact under zero outlier",
		func(o Options) ([]*Table, error) { return Fig11(o), nil })
	register("fig12", "Rw impact under same AAE",
		func(o Options) ([]*Table, error) { return Fig12(o), nil })
	register("fig13", "Rl impact under zero outlier",
		func(o Options) ([]*Table, error) { return Fig13(o), nil })
	register("fig14", "Rl impact under same AAE",
		func(o Options) ([]*Table, error) { return Fig14(o), nil })
	register("fig15", "memory vs error threshold Λ",
		func(o Options) ([]*Table, error) { return Fig15(o), nil })
	register("fig16", "average # hash calls vs memory",
		func(o Options) ([]*Table, error) { return one(Fig16(o)) })
	register("fig17", "sensed interval correctness",
		func(o Options) ([]*Table, error) { return one(Fig17(o)) })
	register("fig18", "sensed vs actual error",
		func(o Options) ([]*Table, error) { return Fig18(o), nil })
	register("fig19", "error-controlling: layer + error distributions",
		func(o Options) ([]*Table, error) { return Fig19(o), nil })
	for _, v := range []struct{ id, ds string }{
		{"fig20a", "ip"}, {"fig20b", "hadoop"},
	} {
		ds := v.ds
		register(v.id, "switch testbed accuracy on "+ds,
			func(o Options) ([]*Table, error) {
				t, err := Fig20(ds, o)
				if err != nil {
					return nil, err
				}
				return one(t)
			})
	}
}

// Run executes the experiment with the given ID.
func Run(id string, o Options) ([]*Table, error) {
	exp, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (see List)", id)
	}
	return exp.Run(o)
}

// List returns all registered experiments sorted by ID.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
