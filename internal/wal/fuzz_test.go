package wal

import (
	"bytes"
	"errors"
	"math"
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
