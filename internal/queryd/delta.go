package queryd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/sketch"
)

// Delta replication: GET /v2/delta serves the backend's authoritative LOCAL
// state — never a peer-merged view, which would double-count once the peer
// pulled its own contribution back — as a self-describing envelope a cluster
// replicator can restore into a same-Spec sketch and fold with Merge. The
// envelope is magic "RDL1" | the checkpoint header's algo + Spec fields |
// the delta version | the sketch snapshot. The version is the backend's
// monotonic local write count: pullers pass it back as ?after= so an
// unchanged backend answers 304 instead of re-serializing.

// deltaMagic versions the delta envelope format.
var deltaMagic = [4]byte{'R', 'D', 'L', '1'}

// DeltaSource is implemented by backends whose authoritative local state
// can be served to cluster peers as a sealed delta snapshot.
type DeltaSource interface {
	// DeltaVersion is a monotonic counter that advances with every accepted
	// local write; equal versions mean an identical snapshot.
	DeltaVersion() uint64
	// SnapshotDelta serializes the local state (drained to read-your-writes
	// visibility) and reports the version the snapshot covers at least.
	SnapshotDelta(w io.Writer) (uint64, error)
}

// Replicating is implemented by backends that can pull peer deltas on
// demand — the deterministic trigger POST /v2/replicate exposes for tests
// and operators, alongside any periodic pull loop.
type Replicating interface {
	// ReplicateNow pulls every peer once, returning how many peers yielded
	// a new delta. Per-peer failures are folded into the returned error but
	// do not stop the sweep.
	ReplicateNow() (int, error)
}

// WriteDeltaHeader writes the delta envelope header: everything a receiver
// needs to refuse a mismatched peer by name before touching the payload.
func WriteDeltaHeader(w io.Writer, algo string, spec sketch.Spec, version uint64) error {
	if _, err := w.Write(deltaMagic[:]); err != nil {
		return err
	}
	return writeSpecHeader(w, algo, spec, version)
}

// ReadDeltaHeader decodes a delta envelope's header and returns the reader
// positioned at the snapshot payload. A non-delta stream (wrong magic —
// e.g. a checkpoint file offered as a delta) is refused with
// sketch.ErrSnapshotMismatch so replicators can classify it.
func ReadDeltaHeader(r io.Reader) (algo string, spec sketch.Spec, version uint64, payload io.Reader, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return "", sketch.Spec{}, 0, nil, fmt.Errorf("queryd: reading delta magic: %w", err)
	}
	if magic != deltaMagic {
		return "", sketch.Spec{}, 0, nil, fmt.Errorf("%w: bad delta magic %q", sketch.ErrSnapshotMismatch, magic[:])
	}
	algo, spec, version, err = readSpecHeader(br, true)
	if err != nil {
		return "", sketch.Spec{}, 0, nil, fmt.Errorf("queryd: delta header: %w", err)
	}
	return algo, spec, version, br, nil
}

// DeltaVersion reports the backend's local write count — the replication
// staleness signal.
func (b *SketchBackend) DeltaVersion() uint64 { return b.updates.Value() }

// SnapshotDelta serializes the backend's authoritative local state. The
// version is read before the cut, so a snapshot is never attributed writes
// it might not contain; concurrent writes land in a later version. Unlike
// Checkpoint this never touches the WAL cut LSN — a delta served to a peer
// is not durable locally, so it must not license WAL truncation.
func (b *SketchBackend) SnapshotDelta(w io.Writer) (uint64, error) {
	if err := b.CanCheckpoint(); err != nil {
		return 0, err
	}
	ver := b.updates.Value()
	var buf bytes.Buffer
	if err := b.snapshot(&buf); err != nil {
		return 0, err
	}
	_, err := w.Write(buf.Bytes())
	return ver, err
}

// handleDelta serves GET /v2/delta[?after=V]: the local delta envelope, or
// 304 when the caller's version is still current.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.b.(DeltaSource)
	if !ok {
		httpError(w, http.StatusNotImplemented, "unsupported",
			errors.New("queryd: backend does not serve replication deltas"))
		return
	}
	afterStr := r.URL.Query().Get("after")
	var after uint64
	if afterStr != "" {
		var err error
		if after, err = strconv.ParseUint(afterStr, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("after: %w", err))
			return
		}
		if ds.DeltaVersion() == after {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	var body bytes.Buffer
	ver, err := ds.SnapshotDelta(&body)
	if err != nil {
		s.execError(w, err)
		return
	}
	if afterStr != "" && ver == after {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Delta-Version", strconv.FormatUint(ver, 10))
	if err := WriteDeltaHeader(w, s.cfg.Algo, s.cfg.Spec, ver); err != nil {
		s.logf("queryd: writing delta header: %v", err)
		return
	}
	if _, err := body.WriteTo(w); err != nil {
		s.logf("queryd: writing delta payload: %v", err)
	}
}

// handleReplicate serves POST /v2/replicate: a deterministic "pull every
// peer now" trigger for smoke tests and operators.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	rp, ok := s.b.(Replicating)
	if !ok {
		httpError(w, http.StatusNotImplemented, "unsupported",
			errors.New("queryd: backend does not replicate (start rsserve with -peers)"))
		return
	}
	pulled, err := rp.ReplicateNow()
	if err != nil {
		httpError(w, http.StatusBadGateway, "replication_failed", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"peers_pulled": pulled})
}
