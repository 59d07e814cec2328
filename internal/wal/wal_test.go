package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// testBatch builds a deterministic batch whose identity is i.
func testBatch(i int) ingest.Batch {
	items := make([]stream.Item, 1+i%3)
	for j := range items {
		items[j] = stream.Item{Key: uint64(i*10 + j), Value: uint64(i + 1)}
	}
	return ingest.Batch{Items: items, Source: uint64(i % 5), Epoch: uint64(i % 7)}
}

func batchesEqual(a, b ingest.Batch) bool {
	if a.Source != b.Source || a.Epoch != b.Epoch || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// appendN appends batches 0..n-1 and fails the test on any error.
func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := l.Append(testBatch(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); lsn != want {
			t.Fatalf("append %d: lsn %d, want %d", i, lsn, want)
		}
	}
}

// replayAll collects every record past after.
func replayAll(t *testing.T, l *Log, after uint64) ([]ingest.Batch, []uint64) {
	t.Helper()
	var got []ingest.Batch
	var lsns []uint64
	n, err := l.Replay(after, func(b ingest.Batch, lsn uint64) error {
		got = append(got, b)
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if int(n) != len(got) {
		t.Fatalf("replay reported %d records, delivered %d", n, len(got))
	}
	return got, lsns
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	appendN(t, l, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, lsns := replayAll(t, l2, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, b := range got {
		if !batchesEqual(b, testBatch(i)) {
			t.Fatalf("record %d = %+v, want %+v", i, b, testBatch(i))
		}
		if lsns[i] != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, lsns[i])
		}
	}
	// Appends continue exactly where the recovered log ends.
	if lsn, err := l2.Append(testBatch(n)); err != nil || lsn != n+1 {
		t.Fatalf("post-recovery append: lsn %d err %v, want %d", lsn, err, n+1)
	}
}

// TestReopenRecordLargerThanScanBuffer pins a recovery bug: scanSegment's
// payload buffer started at 64 KiB and never grew, so reopening a log whose
// tail held a single larger record (HTTP ingest allows bodies well past
// that) panicked on every restart — recovery was impossible exactly when it
// mattered.
func TestReopenRecordLargerThanScanBuffer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	// ~80 KiB encoded: comfortably past the scanner's initial buffer.
	items := make([]stream.Item, 10_000)
	for i := range items {
		items[i] = stream.Item{Key: uint64(i) << 40, Value: uint64(i + 1)}
	}
	big := ingest.Batch{Items: items, Source: 3}
	if _, err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ := replayAll(t, l2, 0)
	if len(got) != 1 || !batchesEqual(got[0], big) {
		t.Fatalf("large record did not survive reopen: got %d records", len(got))
	}
	if lsn, err := l2.Append(testBatch(0)); err != nil || lsn != 2 {
		t.Fatalf("post-recovery append: lsn %d err %v, want 2", lsn, err)
	}
}

func TestRotationManifestAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// ~40-byte records against a 256-byte threshold: several segments.
	l, err := Open(Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	appendN(t, l, n)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce ≥3 segments, got %d", st.Segments)
	}
	if st.LastLSN != n {
		t.Fatalf("LastLSN = %d, want %d", st.LastLSN, n)
	}

	// Truncating through the middle deletes fully covered segments and
	// replays only the tail.
	const mark = n / 2
	if err := l.TruncateThrough(mark); err != nil {
		t.Fatal(err)
	}
	if got := l.Watermark(); got != mark {
		t.Fatalf("watermark = %d, want %d", got, mark)
	}
	if after := l.Stats(); after.Segments >= st.Segments {
		t.Fatalf("truncation kept all %d segments", after.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The watermark and the surviving tail persist across reopen.
	l2, err := Open(Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Watermark(); got != mark {
		t.Fatalf("reopened watermark = %d, want %d", got, mark)
	}
	got, _ := replayAll(t, l2, l2.Watermark())
	// Records (mark, n] must all be there; earlier ones may survive in a
	// partially covered segment but are filtered by the watermark.
	if len(got) != n-mark {
		t.Fatalf("replayed %d records past watermark, want %d", len(got), n-mark)
	}
	for i, b := range got {
		if want := testBatch(mark + i); !batchesEqual(b, want) {
			t.Fatalf("record %d = %+v, want %+v", i, b, want)
		}
	}
}

// corruptTail reopens the newest segment file and mangles it with mutate.
func corruptTail(t *testing.T, dir string, mutate func(data []byte) []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	path := filepath.Join(dir, last)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedMidRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	appendN(t, l, n)
	l.Close()

	// Tear the last record in half, as a crash mid-write would.
	corruptTail(t, dir, func(data []byte) []byte { return data[:len(data)-5] })

	l2, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", st.TornTruncations)
	}
	got, _ := replayAll(t, l2, 0)
	if len(got) != n-1 {
		t.Fatalf("replayed %d records, want the durable prefix of %d", len(got), n-1)
	}
	for i, b := range got {
		if !batchesEqual(b, testBatch(i)) {
			t.Fatalf("record %d corrupted by recovery: %+v", i, b)
		}
	}
	// The log keeps working: the torn LSN is reused by the next append.
	if lsn, err := l2.Append(testBatch(0)); err != nil || lsn != n {
		t.Fatalf("append after tear: lsn %d err %v, want %d", lsn, err, n)
	}
}

func TestCorruptCRCDropsFromFlipOn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	appendN(t, l, n)
	l.Close()

	// Flip one payload byte roughly 2/3 into the segment: everything from
	// the first bad record on is untrusted (frame boundaries past it are
	// unknowable), so recovery keeps exactly the durable prefix.
	var flipAt int
	corruptTail(t, dir, func(data []byte) []byte {
		flipAt = segmentHeaderLen + (len(data)-segmentHeaderLen)*2/3
		data[flipAt] ^= 0xFF
		return data
	})

	l2, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("TornTruncations = %d, want 1", st.TornTruncations)
	}
	got, _ := replayAll(t, l2, 0)
	if len(got) == 0 || len(got) >= n {
		t.Fatalf("replayed %d records, want a strict durable prefix of %d", len(got), n)
	}
	for i, b := range got {
		if !batchesEqual(b, testBatch(i)) {
			t.Fatalf("record %d corrupted by recovery: %+v", i, b)
		}
	}
}

// blockSync makes the nth fsync of l (1-based) signal entered, then wait
// for an error on release: nil lets it fsync for real, anything else fails
// it. Every other fsync is a plain one. Install it before the first Append.
func blockSync(l *Log, nth int32) (entered <-chan struct{}, release chan<- error) {
	ent, rel := make(chan struct{}), make(chan error)
	var calls atomic.Int32
	l.syncFile = func(f *os.File) error {
		if calls.Add(1) == nth {
			close(ent)
			if err := <-rel; err != nil {
				return err
			}
		}
		return f.Sync()
	}
	return ent, rel
}

type appendResult struct {
	i   int
	lsn uint64
	err error
}

// goAppend appends testBatch(i) on its own goroutine, reporting on out.
func goAppend(l *Log, i int, out chan<- appendResult) {
	go func() {
		lsn, err := l.Append(testBatch(i))
		out <- appendResult{i, lsn, err}
	}()
}

// collect gathers n results, failing the test if any appender is still
// waiting after 5 s.
func collect(t *testing.T, out <-chan appendResult, n int) []appendResult {
	t.Helper()
	res := make([]appendResult, 0, n)
	timeout := time.After(5 * time.Second)
	for len(res) < n {
		select {
		case r := <-out:
			res = append(res, r)
		case <-timeout:
			t.Fatalf("%d of %d appenders still waiting", n-len(res), n)
		}
	}
	return res
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// leaderWithFollowers opens a batch log whose first fsync blocks, starts a
// leader append, then n followers, and returns once all n+1 records are
// written while the leader is still inside its fsync.
func leaderWithFollowers(t *testing.T, opts Options, n int) (*Log, chan<- error, chan appendResult) {
	t.Helper()
	opts.Fsync = FsyncPolicy{Mode: SyncEachBatch}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	l.RegisterMetrics(telemetry.NewRegistry())
	entered, release := blockSync(l, 1)
	out := make(chan appendResult, n+1)
	goAppend(l, 0, out)
	<-entered
	for i := 1; i <= n; i++ {
		goAppend(l, i, out)
	}
	return l, release, out
}

// TestFollowersShareNextFsync: writers that arrive while a leader is inside
// its fsync all ride the next single fsync — two fsyncs for n+1 appends,
// with cohorts of 1 and n.
func TestFollowersShareNextFsync(t *testing.T) {
	const n = 6
	l, release, out := leaderWithFollowers(t, Options{Dir: t.TempDir()}, n)
	defer l.Close()
	waitFor(t, "followers to write", func() bool { return l.Stats().Appended == n+1 })
	release <- nil
	for _, r := range collect(t, out, n+1) {
		if r.err != nil {
			t.Fatalf("append %d: %v", r.i, r.err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 2 {
		t.Fatalf("fsyncs = %d for %d appends, want 2", st.Fsyncs, n+1)
	}
	cohorts := l.cohortSizes.Load().Snapshot()
	if cohorts.Count != 2 || cohorts.Sum != n+1 || cohorts.Counts[0] != 1 {
		t.Fatalf("cohorts: count %d sum %g, %d of size 1; want the leader alone, then %d",
			cohorts.Count, cohorts.Sum, cohorts.Counts[0], n)
	}
}

// TestFailedLeaderFsyncFailsItsCohort: a failed fsync fails every append it
// did not cover and every later one, while a record made durable before the
// failure stays acked.
func TestFailedLeaderFsyncFailsItsCohort(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncPolicy{Mode: SyncEachBatch}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	entered, release := blockSync(l, 2)
	if _, err := l.Append(testBatch(0)); err != nil {
		t.Fatal(err)
	}
	const n = 5
	out := make(chan appendResult, n+1)
	goAppend(l, 1, out)
	<-entered
	for i := 2; i <= n; i++ {
		goAppend(l, i, out)
	}
	waitFor(t, "followers to write", func() bool { return l.Stats().Appended == n+1 })
	injected := errors.New("injected EIO")
	release <- injected
	for _, r := range collect(t, out, n) {
		if !errors.Is(r.err, injected) {
			t.Fatalf("append %d (lsn %d): err = %v, want the leader's fsync error", r.i, r.lsn, r.err)
		}
	}
	if _, err := l.Append(testBatch(0)); !errors.Is(err, injected) {
		t.Fatalf("append after a failed fsync: err = %v, want it refused", err)
	}
	l.mu.Lock()
	early, late := l.awaitDurableLocked(1), l.awaitDurableLocked(2)
	l.mu.Unlock()
	if early != nil || !errors.Is(late, injected) {
		t.Fatalf("record 1 (durable before the failure): %v; record 2: %v", early, late)
	}
	if st := l.Stats(); st.LastError == "" {
		t.Fatal("Stats does not report the sticky failure")
	}
}

// TestCloseWhileLeaderBlocked: Close waits out an in-flight leader and
// strands no appender, whether that leader's fsync succeeds or fails.
func TestCloseWhileLeaderBlocked(t *testing.T) {
	for _, fail := range []error{nil, errors.New("injected EIO")} {
		const n = 4
		l, release, out := leaderWithFollowers(t, Options{Dir: t.TempDir()}, n)
		waitFor(t, "followers to write", func() bool { return l.Stats().Appended == n+1 })
		closed := make(chan error, 1)
		go func() { closed <- l.Close() }()
		waitFor(t, "Close to begin", func() bool {
			l.mu.Lock()
			defer l.mu.Unlock()
			return l.closed
		})
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) while a leader was inside its fsync", err)
		default:
		}
		release <- fail
		select {
		case err := <-closed:
			if !errors.Is(err, fail) {
				t.Fatalf("Close: err = %v, want %v", err, fail)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close stranded behind the leader")
		}
		// A failed fsync fails the whole cohort: Close does not retry it.
		for _, r := range collect(t, out, n+1) {
			if !errors.Is(r.err, fail) {
				t.Fatalf("append %d: err = %v, want %v", r.i, r.err, fail)
			}
		}
		if _, err := l.Append(testBatch(0)); err == nil {
			t.Fatal("append on a closed log succeeded")
		}
	}
}

// TestRotationWaitsForLeader: a rotation due while a leader is inside its
// fsync waits for it instead of closing the file under it, and loses no
// record — a reopen replays every acked append in LSN order.
func TestRotationWaitsForLeader(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	l, release, out := leaderWithFollowers(t, Options{Dir: dir, SegmentBytes: 256}, n)
	// Followers write until the segment is full; the rest wait to rotate.
	// A waiting rotation leaves no event to wait on, so let the append
	// count settle instead. Slow scheduling only weakens the check below:
	// 31 records never fit one 256-byte segment, and with the leader still
	// inside its fsync no rotation may have happened.
	last := uint64(0)
	for stable := 0; stable < 50; stable++ {
		if a := l.Stats().Appended; a != last {
			last, stable = a, 0
		}
		time.Sleep(time.Millisecond)
	}
	if st := l.Stats(); st.Segments != 1 || st.Appended > n {
		t.Fatalf("while the leader fsyncs: %d segments, %d of %d appended; want 1 segment and a waiting rotation",
			st.Segments, st.Appended, n+1)
	}
	release <- nil
	byLSN := map[uint64]int{}
	for _, r := range collect(t, out, n+1) {
		if r.err != nil {
			t.Fatalf("append %d: %v", r.i, r.err)
		}
		byLSN[r.lsn] = r.i
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("no rotation happened: %d segment(s)", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, lsns := replayAll(t, l2, 0)
	if len(got) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(got), n+1)
	}
	for k, b := range got {
		i, ok := byLSN[lsns[k]]
		if lsns[k] != uint64(k+1) || !ok || !batchesEqual(b, testBatch(i)) {
			t.Fatalf("replayed record %d: lsn %d = %+v, want lsn %d = batch %d", k, lsns[k], b, k+1, i)
		}
	}
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in   string
		mode SyncMode
		ok   bool
	}{
		{"", SyncEachBatch, true},
		{"batch", SyncEachBatch, true},
		{"per-batch", SyncEachBatch, true},
		{"off", SyncOff, true},
		{"none", SyncOff, true},
		{"5ms", 0, false},
		{"1s", 0, false},
		{"-5ms", 0, false},
		{"0", 0, false},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		p, err := ParseFsync(c.in)
		if c.ok != (err == nil) || (!c.ok && !errors.Is(err, ErrFsyncPolicy)) {
			t.Errorf("ParseFsync(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && p.Mode != c.mode {
			t.Errorf("ParseFsync(%q).Mode = %d, want %d", c.in, p.Mode, c.mode)
		}
	}
	if _, err := ParseFsync("5ms"); err == nil || !strings.Contains(err.Error(), "batch or off") {
		t.Errorf("a duration's refusal %v does not name batch and off", err)
	}
	for _, p := range []FsyncPolicy{{Mode: SyncEachBatch}, {Mode: SyncOff}} {
		if back, err := ParseFsync(p.String()); err != nil || back != p {
			t.Errorf("%v does not round-trip through its spelling: %v, %v", p, back, err)
		}
	}
}

func TestPerBatchFsyncCountsSyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncEachBatch}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5)
	st := l.Stats()
	if st.Fsyncs < 5 {
		t.Fatalf("per-batch policy fsynced %d times for 5 appends", st.Fsyncs)
	}
	if st.LastFsync == "" {
		t.Error("LastFsync not stamped")
	}
}

func TestClosedLogRefusesAppends(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(testBatch(0)); err == nil {
		t.Fatal("append on closed log succeeded")
	}
}

func TestMissingManifestSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 60)
	if l.Stats().Segments < 2 {
		t.Fatal("need multiple segments")
	}
	l.Close()
	// Deleting a manifest-listed segment is real loss, not a torn tail.
	if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncPolicy{Mode: SyncOff}}); err == nil {
		t.Fatal("open succeeded with a manifest-listed segment missing")
	}
}

// TestRegisterMetricsExposition checks the log's Prometheus surface: the
// registered counters are the same instruments Stats reads, latency and
// cohort histograms record, and the scrape-time gauges track manifest
// state.
func TestRegisterMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncEachBatch}})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	l.RegisterMetrics(reg)
	appendN(t, l, 8)
	if err := l.TruncateThrough(3); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		fmt.Sprintf("wal_appended_records_total %d", st.Appended),
		fmt.Sprintf("wal_fsyncs_total %d", st.Fsyncs),
		fmt.Sprintf("wal_last_lsn %d", st.LastLSN),
		fmt.Sprintf("wal_watermark %d", st.Watermark),
		fmt.Sprintf("wal_segments %d", st.Segments),
		fmt.Sprintf("wal_bytes %d", st.Bytes),
		"wal_truncations_total 1",
		fmt.Sprintf("wal_append_duration_seconds_count %d", st.Appended),
		"wal_cohort_size_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One cohort per fsync, and together they cover every append.
	cohorts := l.cohortSizes.Load().Snapshot()
	if cohorts.Sum != float64(st.Appended) || cohorts.Count != st.Fsyncs {
		t.Errorf("%d cohorts cover %g appends, want %d covering %d", cohorts.Count, cohorts.Sum, st.Fsyncs, st.Appended)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsConsistentUnderAppends hammers Append while snapshotting Stats:
// because every counter write happens under l.mu and Stats now reads under
// one l.mu hold, appended_records can never exceed last_lsn within one
// snapshot (the skew the old read-after-unlock path allowed).
func TestStatsConsistentUnderAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.Append(testBatch(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		st := l.Stats()
		if st.Appended != st.LastLSN {
			t.Fatalf("snapshot skew: appended_records=%d last_lsn=%d", st.Appended, st.LastLSN)
		}
	}
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
