package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ingest"
)

// scanSegment walks a segment validating every frame, returning the number
// of whole records, the byte offset of the last whole record's end, and how
// many bytes past it are torn (partial frame, implausible length, or CRC
// mismatch — everything from the first bad frame on is untrusted, because
// record boundaries past it cannot be known).
func scanSegment(path string, wantFirst uint64) (records int, validBytes, tornBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 256<<10)
	var hdr [segmentHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// Shorter than a header: the crash interrupted segment creation.
		return 0, 0, size, nil
	}
	if err := checkSegmentHeader(hdr[:], wantFirst); err != nil {
		return 0, 0, 0, err
	}
	offset := int64(segmentHeaderLen)
	var frame [frameHeaderLen]byte
	payload := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return records, offset, 0, nil // clean end
			}
			return records, offset, size - offset, nil // partial frame header
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		crc := binary.LittleEndian.Uint32(frame[4:])
		if int64(n) > maxRecordBytes || offset+frameHeaderLen+int64(n) > size {
			return records, offset, size - offset, nil // implausible or past EOF
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, offset, size - offset, nil
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return records, offset, size - offset, nil // torn or corrupt record
		}
		records++
		offset += frameHeaderLen + int64(n)
	}
}

// Replay feeds every record with LSN strictly greater than after to fn, in
// append order — the recovery path Journal.Recover drives. Call it after
// Open and before the first Append; appends are excluded for the duration.
// A CRC failure inside a sealed segment (mid-log corruption, not a torn
// tail — Open already truncated that) is a hard error: whole durable
// segments are never silently skipped.
func (l *Log) Replay(after uint64, fn func(b ingest.Batch, lsn uint64) error) (replayed uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	end := l.nextLSN // records on disk are exactly [segs[0].first, end)
	for i, seg := range l.segs {
		segEnd := end
		if i+1 < len(l.segs) {
			segEnd = l.segs[i+1].first
		}
		if segEnd <= after+1 {
			continue // every record in this segment is checkpoint-covered
		}
		n, err := l.replaySegment(seg, segEnd, after, fn)
		replayed += n
		if err != nil {
			return replayed, err
		}
	}
	l.replayed.Add(replayed)
	return replayed, nil
}

// replaySegment streams one segment's records [seg.first, segEnd) through
// fn, skipping those at or below after.
func (l *Log) replaySegment(seg segment, segEnd, after uint64, fn func(ingest.Batch, uint64) error) (uint64, error) {
	f, err := os.Open(filepath.Join(l.opts.Dir, seg.name))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256<<10)
	var hdr [segmentHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: %s: reading header: %w", seg.name, err)
	}
	if err := checkSegmentHeader(hdr[:], seg.first); err != nil {
		return 0, err
	}
	var replayed uint64
	var frame [frameHeaderLen]byte
	payload := make([]byte, 0, 64<<10)
	for lsn := seg.first; lsn < segEnd; lsn++ {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return replayed, fmt.Errorf("wal: %s: record %d: %w", seg.name, lsn, err)
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		crc := binary.LittleEndian.Uint32(frame[4:])
		if int64(n) > maxRecordBytes {
			return replayed, fmt.Errorf("wal: %s: record %d claims %d bytes", seg.name, lsn, n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return replayed, fmt.Errorf("wal: %s: record %d payload: %w", seg.name, lsn, err)
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return replayed, fmt.Errorf("wal: %s: record %d fails its CRC (mid-log corruption)", seg.name, lsn)
		}
		if lsn <= after {
			continue
		}
		b, err := decodeRecord(payload)
		if err != nil {
			return replayed, fmt.Errorf("wal: %s: record %d: %w", seg.name, lsn, err)
		}
		if err := fn(b, lsn); err != nil {
			return replayed, err
		}
		replayed++
	}
	return replayed, nil
}
