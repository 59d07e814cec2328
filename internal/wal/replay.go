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

// frameReader walks one segment file's frames after its header, and is the
// one place that decides what a bad frame is: a partial header, a length
// past maxRecordBytes or past the end of the file, a short payload, or a
// CRC mismatch. scanSegment reads a bad frame as a torn tail, Replay as
// corruption.
type frameReader struct {
	f       *os.File
	br      *bufio.Reader
	size    int64 // file size: no frame may claim bytes past it
	offset  int64 // end of the last whole frame
	frame   [frameHeaderLen]byte
	payload []byte
}

// openFrames opens the segment at path, positioned at its header.
func openFrames(path string) (*frameReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &frameReader{f: f, br: bufio.NewReaderSize(f, 256<<10), size: fi.Size()}, nil
}

// header reads and checks the segment header against the file name's LSN.
func (r *frameReader) header(wantFirst uint64) error {
	var hdr [segmentHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return fmt.Errorf("wal: %s: reading header: %w", filepath.Base(r.f.Name()), err)
	}
	r.offset = segmentHeaderLen
	return checkSegmentHeader(hdr[:], wantFirst)
}

// next returns the next frame's payload, valid until the following call.
// It returns io.EOF exactly at a clean end of file. The payload buffer
// grows at most to the file's size and never past maxRecordBytes, so a
// frame that lies about its length costs no allocation.
func (r *frameReader) next() ([]byte, error) {
	frame := r.frame[:]
	if _, err := io.ReadFull(r.br, frame); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("partial frame header at offset %d", r.offset)
	}
	n := int64(binary.LittleEndian.Uint32(frame[:4]))
	if n > maxRecordBytes || r.offset+frameHeaderLen+n > r.size {
		return nil, fmt.Errorf("frame at offset %d claims %d bytes", r.offset, n)
	}
	if int64(cap(r.payload)) < n {
		r.payload = make([]byte, min(max(n, 2*int64(cap(r.payload))), r.size, maxRecordBytes))
	}
	r.payload = r.payload[:n]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return nil, fmt.Errorf("frame at offset %d: %w", r.offset, err)
	}
	if crc32.Checksum(r.payload, crcTable) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, fmt.Errorf("frame at offset %d fails its CRC", r.offset)
	}
	r.offset += frameHeaderLen + n
	return r.payload, nil
}

// scanSegment validates every frame of the segment at path, returning the
// number of whole records, the byte offset of the last whole record's end,
// and how many bytes past it are torn.
func scanSegment(path string, wantFirst uint64) (records int, validBytes, tornBytes int64, err error) {
	r, err := openFrames(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.f.Close()
	return r.scan(wantFirst)
}

// scan is scanSegment on an open reader. Everything from the first bad
// frame on is untrusted, because record boundaries past it cannot be known.
func (r *frameReader) scan(wantFirst uint64) (records int, validBytes, tornBytes int64, err error) {
	if r.size < segmentHeaderLen {
		// Shorter than a header: the crash interrupted segment creation.
		return 0, 0, r.size, nil
	}
	if err := r.header(wantFirst); err != nil {
		return 0, 0, 0, err
	}
	for {
		if _, err := r.next(); err != nil {
			if err == io.EOF {
				return records, r.offset, 0, nil
			}
			return records, r.offset, r.size - r.offset, nil
		}
		records++
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
	r, err := openFrames(filepath.Join(l.opts.Dir, seg.name))
	if err != nil {
		return 0, err
	}
	defer r.f.Close()
	if err := r.header(seg.first); err != nil {
		return 0, err
	}
	var replayed uint64
	for lsn := seg.first; lsn < segEnd; lsn++ {
		payload, err := r.next()
		if err != nil {
			// Open already truncated the torn tail, so a bad frame here is
			// mid-log corruption.
			return replayed, fmt.Errorf("wal: %s: record %d: %w", seg.name, lsn, err)
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
