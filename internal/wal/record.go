package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// On-disk layout.
//
// Segment files are named wal-%016d.seg, the number being the LSN of the
// segment's first record — a record's LSN is its ordinal position, never
// stored per record. Each segment starts with a 12-byte header:
//
//	magic "RWL1" | first LSN (8 bytes little-endian)
//
// followed by length-framed records:
//
//	payload length (4 bytes LE) | CRC32-C of payload (4 bytes LE) | payload
//
// The payload is the typed ingest.Batch in uvarints: source, epoch, item
// count, then key/value pairs. The CRC is the torn-tail detector: a crash
// mid-write leaves a frame whose checksum cannot match, and recovery
// truncates to the last whole record instead of ever replaying a partial
// batch.

var segmentMagic = [4]byte{'R', 'W', 'L', '1'}

const (
	segmentHeaderLen = 12
	frameHeaderLen   = 8
	// maxRecordBytes bounds a frame's declared length: anything larger is
	// treated as a torn tail, not an allocation request. Comfortably above
	// the HTTP ingest body cap.
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentName renders the file name of the segment starting at lsn.
func segmentName(lsn uint64) string { return fmt.Sprintf("wal-%016d.seg", lsn) }

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	var lsn uint64
	if _, err := fmt.Sscanf(name, "wal-%016d.seg", &lsn); err != nil || segmentName(lsn) != name {
		return 0, false
	}
	return lsn, true
}

// writeSegmentHeader stamps a segment file's header and positions the file
// for the first record.
func writeSegmentHeader(f *os.File, first uint64) error {
	var hdr [segmentHeaderLen]byte
	copy(hdr[:4], segmentMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:], first)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if _, err := f.Seek(segmentHeaderLen, 0); err != nil {
		return err
	}
	return nil
}

// checkSegmentHeader validates a segment's 12-byte header against the LSN
// its file name claims.
func checkSegmentHeader(hdr []byte, wantFirst uint64) error {
	if len(hdr) < segmentHeaderLen || [4]byte(hdr[:4]) != segmentMagic {
		return fmt.Errorf("wal: bad segment magic %q", hdr[:min(len(hdr), 4)])
	}
	if got := binary.LittleEndian.Uint64(hdr[4:]); got != wantFirst {
		return fmt.Errorf("wal: segment header claims first LSN %d, file name says %d", got, wantFirst)
	}
	return nil
}

// appendRecord encodes one framed record onto dst.
func appendRecord(dst []byte, b ingest.Batch) []byte {
	frameAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	payloadAt := len(dst)
	dst = binary.AppendUvarint(dst, b.Source)
	dst = binary.AppendUvarint(dst, b.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(b.Items)))
	for _, it := range b.Items {
		dst = binary.AppendUvarint(dst, it.Key)
		dst = binary.AppendUvarint(dst, it.Value)
	}
	payload := dst[payloadAt:]
	binary.LittleEndian.PutUint32(dst[frameAt:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[frameAt+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// errBadRecord marks a CRC-verified payload the encoder cannot have
// written: corruption that slipped past a CRC collision.
var errBadRecord = errors.New("wal: malformed record payload")

// decodeRecord parses a CRC-verified payload back into the typed batch. It
// accepts exactly what appendRecord writes — canonical uvarints, no
// trailing bytes — and refuses anything else with errBadRecord.
func decodeRecord(payload []byte) (ingest.Batch, error) {
	bad := false
	next := func() uint64 {
		v, n := binary.Uvarint(payload)
		// A multi-byte uvarint ending in a zero byte is a longer spelling
		// of a smaller one; the encoder always writes the shortest.
		if n <= 0 || (n > 1 && payload[n-1] == 0) {
			bad = true
			return 0
		}
		payload = payload[n:]
		return v
	}
	b := ingest.Batch{Source: next(), Epoch: next()}
	count := next()
	// Each item is ≥ 2 bytes (two uvarints), so a count beyond half the
	// remaining payload is corruption — refuse it before allocating.
	if bad || count > uint64(len(payload)/2) {
		return b, fmt.Errorf("%w: bad header, or %d items claimed in %d bytes", errBadRecord, count, len(payload))
	}
	b.Items = make([]stream.Item, count)
	for i := range b.Items {
		b.Items[i] = stream.Item{Key: next(), Value: next()}
	}
	if bad || len(payload) != 0 {
		return b, fmt.Errorf("%w: truncated, non-canonical or trailing bytes", errBadRecord)
	}
	return b, nil
}
