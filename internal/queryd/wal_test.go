package queryd_test

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/wal"
)

// TestMain lets TestKillRecoveryReadYourAckedWrites re-exec this test binary
// as its victim: with the env var set, the process becomes a WAL-backed
// ingest server that prints an ack line per durable batch until killed.
func TestMain(m *testing.M) {
	if dir := os.Getenv("QUERYD_WAL_KILL_CHILD"); dir != "" {
		runKillChild(dir)
		return
	}
	os.Exit(m.Run())
}

func walTestSpec() sketch.Spec {
	return sketch.Spec{MemoryBytes: 256 << 10, Lambda: 25, Seed: 1, Emergency: true}
}

// newWALBackend builds a pipelined (Block policy) backend with a WAL rooted
// at dir attached, replaying past ckptLSN first.
func newWALBackend(t *testing.T, dir string, ckptLSN uint64, opts wal.Options) (*queryd.SketchBackend, *wal.Log) {
	t.Helper()
	opts.Dir = dir
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := queryd.NewSketchBackendFrom(queryd.SketchBackendConfig{
		Algo: "Ours", Spec: walTestSpec(),
		Ingest: &ingest.Tuning{Policy: ingest.Block},
	})
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	if err := b.AttachWAL(l, ckptLSN); err != nil {
		l.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(); l.Close() })
	return b, l
}

func TestAttachWALRefusesDropPolicy(t *testing.T) {
	// Drop could refuse a batch the log already made durable — live state
	// would say dropped while replay resurrects it — so attaching a WAL to a
	// Drop pipeline is rejected, like WAL + epoch mode.
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncPolicy{Mode: wal.SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b, err := queryd.NewSketchBackendFrom(queryd.SketchBackendConfig{
		Algo: "Ours", Spec: walTestSpec(),
		Ingest: &ingest.Tuning{Policy: ingest.Drop},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.AttachWAL(l, 0); err == nil {
		t.Fatal("AttachWAL accepted a Drop-policy pipeline")
	}
}

// assertContains asserts key's certified interval contains truth.
func assertContains(t *testing.T, b queryd.Backend, key, truth uint64) {
	t.Helper()
	ans, err := b.Execute(query.Request{Kind: query.Point, Keys: []uint64{key}})
	if err != nil {
		t.Fatalf("point query for %d: %v", key, err)
	}
	e := ans.PerKey[0]
	if !ans.Certified || truth < e.Lower || truth > e.Upper {
		t.Errorf("key %d: certified=%v interval [%d,%d] misses truth %d",
			key, ans.Certified, e.Lower, e.Upper, truth)
	}
}

func TestWALRecoveryWithoutCheckpoint(t *testing.T) {
	// Acked writes survive a restart with no checkpoint at all: the whole
	// log replays through the same ingest path.
	dir := t.TempDir()
	b1, _ := newWALBackend(t, dir, 0, wal.Options{Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}})
	truth := map[uint64]uint64{}
	for i := uint64(1); i <= 200; i++ {
		ack := b1.Ingest(ingest.Batch{Items: []stream.Item{{Key: i, Value: i}}, Source: i % 4})
		if ack.Dropped != 0 {
			t.Fatalf("ingest %d dropped %d items", i, ack.Dropped)
		}
		truth[i] = i
	}
	// "Crash": abandon b1 without checkpointing and rebuild purely from the
	// log. (The log is closed so the new Open owns the tail cleanly; with
	// per-batch fsync every acked record was already durable before Close.)
	b1.Close()

	b2, l2 := newWALBackend(t, dir, 0, wal.Options{Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}})
	if got := l2.Stats().Replayed; got != 200 {
		t.Fatalf("replayed %d records, want 200", got)
	}
	for _, key := range []uint64{1, 77, 200} {
		assertContains(t, b2, key, truth[key])
	}
}

func TestCheckpointCutTruncatesWAL(t *testing.T) {
	// The incremental-checkpoint loop: log grows, checkpoint lands, log
	// truncates — and recovery = checkpoint + remaining tail, exactly once
	// each.
	dir := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	// Tiny segments so truncation has something to delete.
	opts := wal.Options{SegmentBytes: 4096, Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}}
	b1, l1 := newWALBackend(t, dir, 0, opts)
	s1, err := queryd.New(b1, queryd.Config{Algo: "Ours", Spec: walTestSpec(), CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]uint64{}
	add := func(lo, hi uint64) {
		for i := lo; i <= hi; i++ {
			if ack := b1.Ingest(ingest.Batch{Items: []stream.Item{{Key: i, Value: i}}}); ack.Dropped != 0 {
				t.Fatalf("ingest %d dropped %d items", i, ack.Dropped)
			}
			truth[i] = i
		}
	}
	add(1, 300)
	segsBefore := l1.Stats().Segments
	if err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	st := l1.Stats()
	if st.Watermark != 300 {
		t.Fatalf("watermark after checkpoint = %d, want 300", st.Watermark)
	}
	if segsBefore > 1 && st.Segments >= segsBefore {
		t.Fatalf("checkpoint kept all %d segments", st.Segments)
	}
	// More traffic after the cut: it lives only in the WAL tail.
	add(301, 400)
	b1.Close()
	l1.Close()

	// The header carries the cut, so recovery replays only (300, 400] —
	// restore first, then attach, same order as the server startup path.
	_, _, walLSN, payload, err := queryd.OpenCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if walLSN != 300 {
		t.Fatalf("checkpoint header records cut LSN %d, want 300", walLSN)
	}
	opts.Dir = dir
	l2, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := queryd.NewSketchBackendFrom(queryd.SketchBackendConfig{
		Algo: "Ours", Spec: walTestSpec(),
		Ingest: &ingest.Tuning{Policy: ingest.Block},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close(); l2.Close() })
	if err := func() error { defer payload.Close(); return b2.Restore(payload) }(); err != nil {
		t.Fatal(err)
	}
	// ckptLSN 0: the log's own watermark alone must already cover the cut.
	if err := b2.AttachWAL(l2, 0); err != nil {
		t.Fatal(err)
	}
	if got := l2.Stats().Replayed; got != 100 {
		t.Fatalf("replayed %d records, want exactly the 100 past the cut", got)
	}
	for _, key := range []uint64{1, 300, 301, 400} {
		assertContains(t, b2, key, truth[key])
	}
}

func TestStatusReportsWALCounters(t *testing.T) {
	dir := t.TempDir()
	b, _ := newWALBackend(t, dir, 0, wal.Options{Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}})
	s, err := queryd.New(b, queryd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	for i := uint64(1); i <= 5; i++ {
		b.Ingest(ingest.Batch{Items: []stream.Item{{Key: i, Value: 1}}})
	}
	st := getJSON[queryd.StatusResponse](t, ts.URL+"/v1/status")
	w := st.Backend.WAL
	if w == nil {
		t.Fatal("/v1/status has no wal section on a WAL-backed backend")
	}
	if w.Appended != 5 || w.LastLSN != 5 || w.Segments != 1 || w.Bytes == 0 {
		t.Errorf("wal counters %+v: want 5 appends through LSN 5 in 1 segment", w)
	}
	if w.Fsyncs < 5 || w.LastFsync == "" {
		t.Errorf("per-batch policy reported %d fsyncs (last %q), want ≥ 5 with a timestamp", w.Fsyncs, w.LastFsync)
	}
	if w.Policy != "batch" {
		t.Errorf("policy = %q, want batch", w.Policy)
	}
}

func TestStaleCheckpointTempsCleanedAtStartup(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.ckpt")
	stale := ckpt + ".tmp12345"
	if err := os.WriteFile(stale, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _ = newStandaloneServer(t, queryd.Config{CheckpointPath: ckpt})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint temp survived server startup (stat err: %v)", err)
	}
}

func TestAttachWALRefusesEpochMode(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b, err := queryd.NewSketchBackend("Ours", walTestSpec(), 50e6, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachWAL(l, 0); err == nil {
		t.Fatal("epoch-mode backend accepted a WAL")
	}
}

// runKillChild is the victim process of the kill-recovery test: a WAL-backed
// backend (per-batch fsync, Block policy) that ingests forever, printing one
// "ack <key> <value>" line to stdout after each acked — therefore durable —
// batch. It never exits on its own; the parent SIGKILLs it mid-stream.
func runKillChild(dir string) {
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	b, err := queryd.NewSketchBackendFrom(queryd.SketchBackendConfig{
		Algo: "Ours", Spec: walTestSpec(),
		Ingest: &ingest.Tuning{Policy: ingest.Block},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := b.AttachWAL(l, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := uint64(0); ; i++ {
		key := 1 + i%16
		ack := b.Ingest(ingest.Batch{Items: []stream.Item{{Key: key, Value: 1}}})
		if ack.Dropped != 0 {
			fmt.Fprintf(os.Stderr, "batch %d: %d items dropped\n", i, ack.Dropped)
			os.Exit(2)
		}
		// os.Stdout is unbuffered: once this line is readable by the
		// parent, the ack — and with it the fsync — already happened.
		fmt.Printf("ack %d 1\n", key)
	}
}

func TestKillRecoveryReadYourAckedWrites(t *testing.T) {
	// The durability contract, certified end to end: SIGKILL the server
	// mid-ingest and every write it acked must be in the recovered state.
	// The child's stdout is the proof stream — a line is printed only after
	// its batch's Ingest returned under per-batch fsync, so every line read
	// here names a batch the recovered backend must contain.
	dir := t.TempDir()
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), "QUERYD_WAL_KILL_CHILD="+dir)
	out, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	acked := map[uint64]uint64{}
	sc := bufio.NewScanner(out)
	lines := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || fields[0] != "ack" {
			t.Fatalf("child printed %q", sc.Text())
		}
		key, err1 := strconv.ParseUint(fields[1], 10, 64)
		val, err2 := strconv.ParseUint(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("child printed %q", sc.Text())
		}
		acked[key] += val
		if lines++; lines == 200 {
			// Kill mid-stream, no warning, no flush — then drain whatever
			// acks were already in flight in the pipe (each is as binding
			// as the first 200).
			if err := child.Process.Kill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = child.Wait() // expected: killed
	if lines < 200 {
		t.Fatalf("child died after only %d acks", lines)
	}
	t.Logf("child SIGKILLed after %d acked batches", lines)

	b, l := newWALBackend(t, dir, 0, wal.Options{Fsync: wal.FsyncPolicy{Mode: wal.SyncEachBatch}})
	st := l.Stats()
	if st.Replayed < uint64(lines) {
		t.Fatalf("recovered only %d records from %d acked writes", st.Replayed, lines)
	}
	for key, want := range acked {
		ans, err := b.Execute(query.Request{Kind: query.Point, Keys: []uint64{key}})
		if err != nil {
			t.Fatal(err)
		}
		e := ans.PerKey[0]
		// The true recovered count for key is ≥ its acked count (the kill
		// may have let a few un-printed appends land too — that's allowed;
		// losing an acked one is not). The certified interval contains the
		// truth, so its upper end must reach the acked count.
		if !ans.Certified || e.Upper < want {
			t.Errorf("key %d: certified=%v upper bound %d below acked count %d — acked writes lost",
				key, ans.Certified, e.Upper, want)
		}
	}
}

// TestWALIngestAllocs pins the cost of one 1024-item batch through a
// WAL-backed pipelined backend with fsync off, so the count covers the
// journal, the append and the submit, not the disk. None of them may
// allocate per batch.
//
// Judged on the best of a few attempts: AllocsPerRun counts process-wide
// mallocs and interference only ever adds.
func TestWALIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, _ := newWALBackend(t, t.TempDir(), 0, wal.Options{Fsync: wal.FsyncPolicy{Mode: wal.SyncOff}})
	items := make([]stream.Item, 1024)
	for i := range items {
		items[i] = stream.Item{Key: uint64(i + 1), Value: 1}
	}
	batch := ingest.Batch{Items: items}
	if ack := b.Ingest(batch); ack.Dropped != 0 {
		t.Fatalf("warm-up batch dropped %d items", ack.Dropped)
	}
	best := 1e18
	for attempt := 0; attempt < 3; attempt++ {
		best = min(best, testing.AllocsPerRun(200, func() { b.Ingest(batch) }))
	}
	if best > 0 {
		t.Errorf("a WAL-backed 1024-item Ingest allocates %.2f times, want 0", best)
	}
}
