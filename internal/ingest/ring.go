package ingest

import (
	"time"

	"repro/internal/epoch"
)

// ForRing builds a pipeline whose target is an epoch ring's active window
// and wires the two together: workers land batches through
// r.InsertBatchAt(0, …), which inserts into the active window without
// rotating, and the pipeline's Drain is attached as the ring's pre-seal
// flusher — so when a read path seals an overdue epoch, every batch
// submitted during that epoch has already landed in it and the sealed
// window is exact.
//
// Because a pipelined ring's lands never rotate (rotation must follow a
// drain), ForRing also starts a janitor goroutine that pokes the ring's
// read path on a wall-clock schedule: epochs seal on time even when nobody
// queries, instead of a read-free stretch collapsing several epochs' worth
// of traffic into one late window. The janitor exits when the pipeline is
// closed.
//
// The returned pipeline should be the ring's only writer; Close it before
// discarding the ring.
func ForRing(r *epoch.Ring, t Tuning) *Pipeline {
	p := New(Options{
		Tuning: t,
		Apply: func(b Batch) error {
			r.InsertBatchAt(0, b.Items)
			return nil
		},
	})
	r.AttachFlusher(func() { _ = p.Drain() })
	go ringJanitor(r, p)
	return p
}

// ringJanitor drives rotation for rings nobody reads: Rotations() is the
// full read-path poke (drain attached pipelines when overdue, then seal).
// The tick is a fraction of the epoch so a seal lands close to its
// boundary; rings on test clocks simply see no-op pokes.
func ringJanitor(r *epoch.Ring, p *Pipeline) {
	tick := r.Interval() / 4
	if min := 10 * time.Millisecond; tick < min {
		tick = min
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			r.Rotations()
		case <-p.done:
			return
		}
	}
}
