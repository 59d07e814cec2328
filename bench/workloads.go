package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// config is one workload run's inputs and scale.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured time
	items    int     // items of S per round: the state a round ends with
	distinct int     // keys in S's zipf support
	conns    int     // client connections, at most the CPU count
	setups   int     // timed set-ups per query-workload run
	workDir  string  // WAL directories are made here
	traced   bool
}

// workload is one traffic mix against the stack.
type workload struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workload{
	{"ingest_wal", "closed-loop /v2/ingest with a batch-fsync WAL, then WAL recovery: decode, append/fsync and pipeline submit/fold, no reads",
		runIngestWAL},
	{"query_hot", "64-key zipf /v2/query batches on a preloaded stack: most keys hit the result cache, so decode, encode and the cache dominate",
		func(r *run) error { return runQuery(r, queryMix{keys: 64}) }},
	{"query_cold", "256 keys uniform over S's keys per /v2/query batch: nearly every key misses the cache, so the sketch batch query dominates",
		func(r *run) error { return runQuery(r, queryMix{keys: 256, cold: true}) }},
	{"mixed_rw", "one connection ingests while the other queries right behind each acked batch, so every query pays the pipeline's drain barrier",
		runMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// queryMix shapes a query workload's requests.
type queryMix struct {
	keys int  // keys per request
	cold bool // uniform over S's distinct keys instead of S's own order
}

const (
	mixedKeys     = 64
	coldRNG       = 0x636f6c64 // second PCG word of the cold key draw
	querySlices   = 5          // latency/capacity phase pairs per query run
	windowsPerRun = 30         // metric windows per run's measured time
	walRestarts   = 3          // WAL recoveries per ingest_wal round
)

// run accumulates one workload run's measurements.
type run struct {
	cfg    config
	spec   sketch.Spec
	window time.Duration // metric window length
	in     *input
	tr     *tracer
	rp     *replayer

	rounds     int
	setups     []float64 // s per set-up
	capacity   phaseStats
	queries    phaseStats // query latency phases
	ingests    phaseStats // ingest phases
	capWins    []window
	queryWins  []window
	ingestWins []window
	recoveries []float64 // s per WAL recovery
	over       []float64 // keys over Λ per sweep of a live stack
	overRecov  []float64 // keys over Λ per sweep of a WAL-recovered stack
	violations int
	sweepReqs  int64
	rssPeak    float64 // MB, sampled during timed phases
	rt         runtimeSample
	layers     series
	problems   []error // correctness failures other than violations
}

// newRun generates S for cfg, then returns the memory the generator used
// to the OS, so the measured phases see only S and the serving stack.
func newRun(cfg config) (*run, error) {
	in, err := newInput(cfg.distinct, cfg.items, cfg.seed)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	r := &run{
		cfg:    cfg,
		spec:   sketchSpec(cfg.items),
		window: max(seconds(cfg.seconds)/windowsPerRun, 20*time.Millisecond),
		in:     in,
		layers: series{},
	}
	if cfg.traced {
		r.tr = newTracer()
		if r.rp, err = newReplayer(r.spec, in); err != nil {
			return nil, errors.Join(err, in.close())
		}
	}
	return r, nil
}

func (r *run) addCapacity(p phaseStats) {
	r.capacity.add(p)
	r.capWins = append(r.capWins, p.windows(r.window)...)
}

func (r *run) addQueries(p phaseStats) {
	r.queries.add(p)
	r.queryWins = append(r.queryWins, p.windows(r.window)...)
}

func (r *run) addIngests(p phaseStats) {
	r.ingests.add(p)
	r.ingestWins = append(r.ingestWins, p.windows(r.window)...)
}

// timed runs one measured phase, accumulating the runtime and /metrics
// deltas across it and sampling the resident set. The scrapes sit outside
// the runtime window. Memory freed before the phase, such as a previous
// round's sweep, is returned to the OS first, so the resident set
// measures the phase alone.
func (r *run) timed(c *client, phase func()) error {
	before, err := c.scrape()
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() { peak <- sampleRSS(stop) }()
	rt0 := readRuntime()
	phase()
	r.rt.addDelta(rt0, readRuntime())
	close(stop)
	r.rssPeak = max(r.rssPeak, <-peak)
	after, err := c.scrape()
	if err != nil {
		return err
	}
	r.layers.addDelta(before, after)
	return nil
}

// setup times open (build a stack and load its initial state) and keeps
// the stack.
func (r *run) setup(open func() (*stack, error)) (*stack, error) {
	t0 := time.Now()
	st, err := open()
	if err == nil {
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	return st, err
}

// check sweeps every distinct key of S and confirms the backend counted
// every item of S, the state each workload ends a round with.
func (r *run) check(c *client, recovered bool) error {
	st, err := c.status()
	if err != nil {
		return err
	}
	if st.Backend.Updates != uint64(len(r.in.items)) {
		r.problems = append(r.problems, fmt.Errorf("backend counted %d updates, S has %d items", st.Backend.Updates, len(r.in.items)))
	}
	res, err := c.sweep(r.cfg.conns, r.in.keys, r.in.truth)
	r.sweepReqs += res.requests
	r.violations += res.violations
	if recovered {
		r.overRecov = append(r.overRecov, float64(res.overLambda))
	} else {
		r.over = append(r.over, float64(res.overLambda))
	}
	return err
}

// ingestSource sends items in batchItems batches, in order, once.
func (r *run) ingestSource(items []stream.Item) bodySource {
	pos := 0
	return func(dst []byte) ([]byte, int, bool) {
		if pos == len(items) {
			return nil, 0, false
		}
		batch := items[pos:min(pos+batchItems, len(items))]
		pos += len(batch)
		body := appendIngestBody(dst, batch)
		r.rp.add("/v2/ingest", body)
		return body, len(batch), true
	}
}

// querySource sends n keys per request taken in order from items,
// wrapping around: a zipf draw from S's own distribution.
func (r *run) querySource(items []stream.Item, n int) bodySource {
	keys := make([]uint64, n)
	pos := 0
	return func(dst []byte) ([]byte, int, bool) {
		for i := range keys {
			keys[i] = items[pos].Key
			pos = (pos + 1) % len(items)
		}
		body := appendQueryBody(dst, keys)
		r.rp.add("/v2/query", body)
		return body, n, true
	}
}

// coldSource sends n keys per request drawn uniformly from S's distinct
// keys.
func (r *run) coldSource(n int) bodySource {
	rng := rand.New(rand.NewPCG(r.cfg.seed, coldRNG))
	buf := make([]uint64, n)
	return func(dst []byte) ([]byte, int, bool) {
		for i := range buf {
			buf[i] = r.in.keys[rng.IntN(len(r.in.keys))]
		}
		body := appendQueryBody(dst, buf)
		r.rp.add("/v2/query", body)
		return body, n, true
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// moreRounds reports whether a workload made of whole rounds should run
// another, given the time its rounds measured so far: yes until one more
// round, of the mean length so far, would overshoot the measured time by
// more than stopping now falls short of it.
func (r *run) moreRounds(measured time.Duration) bool {
	if r.rounds == 0 {
		return true
	}
	next := measured / time.Duration(r.rounds)
	return measured+next/2 < seconds(r.cfg.seconds)
}

// closeStack closes st if it was opened.
func closeStack(st *stack) error {
	if st == nil {
		return nil
	}
	return st.close()
}

// runQuery preloads S through Backend.Ingest, once untimed to warm up and
// then timed as set-up, and measures over the last stack: an untimed
// warm-up, then latency slices on one connection alternating with
// capacity slices on every connection, so both spread over the run. One
// caller waiting for each answer sees the stack's service time; capacity
// needs a request in flight per CPU.
func runQuery(r *run, mix queryMix) (err error) {
	cfg := r.cfg
	open := func() (*stack, error) {
		st, err := openStack(r.spec, "", r.tr)
		if err != nil {
			return nil, err
		}
		return st, st.preload(r.in.items)
	}
	var st *stack
	for i := range cfg.setups + 1 {
		if err := closeStack(st); err != nil {
			return err
		}
		if i == 0 {
			st, err = open()
		} else {
			st, err = r.setup(open)
		}
		if err != nil {
			return errors.Join(err, closeStack(st))
		}
	}
	defer func() { err = errors.Join(err, st.close()) }()
	r.rounds = 1
	c := newClient(st.url, cfg.conns, r.tr)
	defer c.close()

	next := r.querySource(r.in.items, mix.keys)
	if mix.cold {
		next = r.coldSource(mix.keys)
	}
	slice := seconds(cfg.seconds) / (2 * querySlices)
	c.closedLoop(cfg.conns, time.Now().Add(seconds(cfg.seconds)/10), "/v2/query", next, nil)
	if err := r.timed(c, func() {
		for range querySlices {
			r.addQueries(c.closedLoop(1, time.Now().Add(slice), "/v2/query", next, nil))
			r.addCapacity(c.closedLoop(cfg.conns, time.Now().Add(slice), "/v2/query", next, nil))
		}
	}); err != nil {
		return err
	}
	return r.check(c, false)
}

// runIngestWAL repeats rounds until the ingest and recovery time is
// nearest the measured time. Each round's fresh stack with an empty WAL
// ingests S over HTTP and is checked; then it is closed and restarted from its WAL
// walRestarts times, the last restart checked again. A durable server's
// set-up is exactly that restart: building the stack and replaying the
// log into it, so the restarts are this workload's timed set-ups.
func runIngestWAL(r *run) error {
	var measured time.Duration
	for r.moreRounds(measured) {
		r.rounds++
		dir, err := os.MkdirTemp(r.cfg.workDir, "wal-")
		if err != nil {
			return err
		}
		d, err := r.walRound(dir)
		if err = errors.Join(err, os.RemoveAll(dir)); err != nil {
			return err
		}
		measured += d
	}
	return nil
}

func (r *run) walRound(dir string) (time.Duration, error) {
	st, err := openStack(r.spec, dir, r.tr)
	if err != nil {
		return 0, err
	}
	c := newClient(st.url, r.cfg.conns, r.tr)
	var ing phaseStats
	err = r.timed(c, func() {
		ing = c.closedLoop(1, time.Time{}, "/v2/ingest", r.ingestSource(r.in.items), ackOK)
	})
	if err == nil {
		r.addIngests(ing)
		err = r.check(c, false)
	}
	c.close()
	if err := errors.Join(err, st.close()); err != nil {
		return 0, err
	}

	measured := ing.elapsed
	for i := range walRestarts {
		if st, err = r.setup(func() (*stack, error) { return openStack(r.spec, dir, r.tr) }); err != nil {
			return 0, err
		}
		rec := r.setups[len(r.setups)-1]
		r.recoveries = append(r.recoveries, rec)
		measured += seconds(rec)
		if i < walRestarts-1 {
			if err := st.close(); err != nil {
				return 0, err
			}
		}
	}
	c = newClient(st.url, r.cfg.conns, r.tr)
	err = r.check(c, true)
	c.close()
	return measured, errors.Join(err, st.close())
}

// runMixed repeats rounds until the ingest time is nearest the measured
// time. Each round's fresh stack is preloaded with the first half of S
// (timed as set-up), then ingests the second half on one connection,
// closed loop, while the other connection reads behind the writes: each
// acked batch triggers one query, keys taken from the first half, unless
// the last query is still out, and the next query then goes as soon as it
// is answered. So every query pays the drain barrier, for the writes
// acked since the last one. Queries in a closed loop of their own beside a
// paced ingest found writes pending in a share that swung with the
// machine's speed: their mean latency spread by 0.12 over ten runs. The
// ingest rate here still spreads by about a fifth, because each drain
// sets both pipeline workers folding beside the ingest handler on two
// CPUs, so the workload's gated work rate is the reader's.
func runMixed(r *run) error {
	var measured time.Duration
	for r.moreRounds(measured) {
		r.rounds++
		d, err := r.mixedRound()
		if err != nil {
			return err
		}
		measured += d
	}
	return nil
}

func (r *run) mixedRound() (d time.Duration, err error) {
	half := len(r.in.items) / 2
	st, err := r.setup(func() (*stack, error) {
		st, err := openStack(r.spec, "", r.tr)
		if err != nil {
			return nil, err
		}
		return st, st.preload(r.in.items[:half])
	})
	if err != nil {
		return 0, errors.Join(err, closeStack(st))
	}
	defer func() { err = errors.Join(err, st.close()) }()
	c := newClient(st.url, r.cfg.conns, r.tr)
	defer c.close()
	var ing phaseStats
	// acked holds at most one query trigger: acks that arrive while a query
	// is out fold into the next query.
	acked := make(chan struct{}, 1)
	signal := func(body []byte) error {
		select {
		case acked <- struct{}{}:
		default:
		}
		return ackOK(body)
	}
	queries := r.querySource(r.in.items[:half], mixedKeys)
	afterAck := func(dst []byte) ([]byte, int, bool) {
		if _, ok := <-acked; !ok {
			return nil, 0, false
		}
		return queries(dst)
	}
	if err := r.timed(c, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(acked)
			ing = c.closedLoop(1, time.Time{}, "/v2/ingest", r.ingestSource(r.in.items[half:]), signal)
		}()
		r.addQueries(c.closedLoop(1, time.Time{}, "/v2/query", afterAck, nil))
		wg.Wait()
	}); err != nil {
		return 0, err
	}
	r.addIngests(ing)
	// Answers cached during the phase are up to one TTL old; let them
	// expire so the sweep reads the final state.
	time.Sleep(cacheTTL + 10*time.Millisecond)
	return ing.elapsed, r.check(c, false)
}
