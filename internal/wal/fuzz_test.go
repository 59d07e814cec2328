package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// encodePayload is appendRecord's payload without the frame header.
func encodePayload(b ingest.Batch) []byte {
	return appendRecord(nil, b)[frameHeaderLen:]
}

// FuzzDecodeRecord hardens the replay decoder against payloads that pass a
// CRC but were never written by the encoder. Every refusal is errBadRecord,
// a refused payload never allocates more items than half its length, and
// every accepted payload re-encodes to exactly the bytes it came from.
func FuzzDecodeRecord(f *testing.F) {
	for i := 0; i < 4; i++ {
		f.Add(encodePayload(testBatch(i)))
	}
	f.Add(encodePayload(ingest.Batch{}))
	f.Add(encodePayload(ingest.Batch{
		Source: math.MaxUint64, Epoch: 1 << 40,
		Items: []stream.Item{{Key: math.MaxUint64, Value: math.MaxUint64}},
	}))
	// Source 0, epoch 0, count 4 in 4 bytes: the bound the old guard let
	// through.
	f.Add([]byte{0, 0, 4, 1, 1, 1, 1})
	f.Add([]byte{0x80, 0x00, 0, 0}) // non-canonical source
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := decodeRecord(payload)
		if len(b.Items) > len(payload)/2 {
			t.Fatalf("%d items allocated from %d bytes", len(b.Items), len(payload))
		}
		if err != nil {
			if !errors.Is(err, errBadRecord) {
				t.Fatalf("refusal %v is not errBadRecord", err)
			}
			return
		}
		if again := encodePayload(b); !bytes.Equal(again, payload) {
			t.Fatalf("round trip changed the payload:\n in  %x\n out %x", payload, again)
		}
	})
}

// FuzzScanSegment feeds arbitrary bytes to the torn-tail scanner as the
// segment whose first LSN is 1. It must not panic. Whenever it accepts the
// header, the valid and torn byte counts partition the file, and cutting
// the file at validBytes rescans to the same records with nothing torn.
// The payload buffer never grows past min(maxRecordBytes, file size): a
// frame that lies about its length allocates nothing.
func FuzzScanSegment(f *testing.F) {
	for _, n := range []int{0, 1, 7} {
		dir := f.TempDir()
		l, err := Open(Options{Dir: dir, Fsync: FsyncPolicy{Mode: SyncOff}})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := l.Append(testBatch(i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
		if n > 0 {
			f.Add(seg[:len(seg)-3]) // torn mid-record
			flipped := bytes.Clone(seg)
			flipped[len(flipped)-1] ^= 0xFF // CRC mismatch
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openFrames(path)
		if err != nil {
			t.Fatal(err)
		}
		records, valid, torn, err := r.scan(1)
		r.f.Close()
		size := int64(len(data))
		if c := int64(cap(r.payload)); c > min(maxRecordBytes, size) {
			t.Fatalf("payload buffer grew to %d bytes for a %d-byte file", c, size)
		}
		if err != nil {
			return // bad magic or first LSN: refused, not torn
		}
		if valid+torn != size {
			t.Fatalf("valid %d + torn %d != size %d", valid, torn, size)
		}
		if err := os.Truncate(path, valid); err != nil {
			t.Fatal(err)
		}
		again, valid2, torn2, err := scanSegment(path, 1)
		if err != nil || again != records || valid2 != valid || torn2 != 0 {
			t.Fatalf("rescan of the valid prefix: %d records, %d valid, %d torn, %v; want %d, %d, 0",
				again, valid2, torn2, err, records, valid)
		}
	})
}
