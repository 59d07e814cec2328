// Package netsum implements network-wide stream summary: measurement
// agents (one per switch/vantage point, as in network-wide telemetry
// systems built on sketches) maintain local ReliableSketches and stream
// key-value updates to a collector over TCP; the collector answers global
// queries with certified error bounds.
//
// Correctness note: per-agent certified intervals compose — the global sum
// of a key equals the sum of per-agent sums, so summing estimates and MPEs
// across agents preserves the guarantee: truth ∈ [Σest − Σmpe, Σest]. When
// the configured variant is sketch.Mergeable, the collector additionally
// folds every batch into one global merged sketch and answers with the
// INTERSECTION of the merged view's interval and the estimate-sum interval
// — certified because both contain the truth, and never looser than either.
//
// The wire protocol is a minimal length-prefixed binary framing
// (little-endian), in the spirit of the paper's switch/control-plane
// split: the data plane streams compact updates, queries are rare.
package netsum

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/query"
	"repro/internal/stream"
)

// ProtocolVersion is the wire protocol generation this package speaks.
// Version 2 added the batched exec frames (msgExecQuery/msgExecResp/
// msgExecErr) carrying whole query.Request/query.Answer batches in one
// round trip, and extended msgHello with the agent's version.
//
// Compatibility rule: a v1 agent's hello and batch frames still land on a
// current collector (its hello simply lacks the version, which the
// collector treats as optional), so v1 agents keep reporting. Their
// single-key query frames (msgQuery, msgWindowQuery) are no longer served:
// the collector closes the connection with ErrV1Query. Queries go through
// msgExecQuery, which needs a v2 collector (an old collector drops the
// connection on the unknown frame type). Agents of this package send only
// frames a v2 collector serves, so the version stays 2.
const ProtocolVersion = 2

// Message types. The values are wire bytes: a retired type keeps its
// constant, reserved, so the later types keep their numbers.
const (
	// msgHello announces an agent: payload is agentID uvarint, optionally
	// followed by the agent's protocol version (absent = version 1; the
	// collector ignores trailing bytes it does not understand, and so did
	// v1 collectors, which is what makes the extension compatible).
	msgHello = byte(iota + 1)
	// msgBatch carries updates: uvarint count, then count × (key, value)
	// uvarint pairs.
	msgBatch
	// msgQuery is the v1 single-key query (payload: the key). Reserved:
	// the collector refuses it with ErrV1Query.
	msgQuery
	// msgQueryResp was msgQuery's answer. Reserved, never sent.
	msgQueryResp
	// msgStats asks for collector statistics.
	msgStats
	// msgStatsResp answers: agents, updates, queries.
	msgStatsResp
	// msgWindowQuery is the v1 single-key window query (payload: key, n).
	// Reserved: the collector refuses it with ErrV1Query.
	msgWindowQuery
	// msgWindowResp was msgWindowQuery's answer. Reserved, never sent.
	msgWindowResp
	// msgExecQuery (v2) carries one typed query.Request: kind, agent,
	// window, k, key count, then the packed keys — N point or window
	// queries in one round trip.
	msgExecQuery
	// msgExecResp (v2) carries the matching query.Answer: flags (bit 0 =
	// certified), coverage, generation, source string, estimate count,
	// then count × (key, est, lower).
	msgExecResp
	// msgExecErr (v2) reports a refused exec request: a human-readable
	// message (the request was decoded but could not be answered — e.g.
	// top-k without a merged view, or a validation failure).
	msgExecErr
)

// maxFrame bounds a frame's payload to keep malicious or corrupt peers
// from forcing giant allocations.
const maxFrame = 1 << 20

// Update is one key-value increment. It aliases stream.Item so decoded
// batches feed the collector's sketches through the native batch-ingestion
// path without copying.
type Update = stream.Item

// writeFrame emits a type byte, a uvarint payload length, and the payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("netsum: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:1+n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. It returns io.EOF cleanly on connection end.
func readFrame(r interface {
	io.Reader
	io.ByteReader
}) (typ byte, payload []byte, err error) {
	typ, err = r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, fmt.Errorf("netsum: frame length: %w", err)
	}
	if size > maxFrame {
		return 0, nil, fmt.Errorf("netsum: frame of %d bytes exceeds limit", size)
	}
	payload = make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("netsum: frame payload: %w", err)
	}
	return typ, payload, nil
}

// appendUvarints appends values in uvarint encoding.
func appendUvarints(dst []byte, vs ...uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vs {
		n := binary.PutUvarint(buf[:], v)
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// uvarintReader walks a payload of packed uvarints.
type uvarintReader struct {
	buf []byte
	off int
}

func (u *uvarintReader) next() (uint64, error) {
	v, n := binary.Uvarint(u.buf[u.off:])
	if n <= 0 {
		return 0, fmt.Errorf("netsum: truncated uvarint at offset %d", u.off)
	}
	u.off += n
	return v, nil
}

// encodeRequest packs a typed query request into a msgExecQuery payload.
func encodeRequest(req query.Request) []byte {
	payload := appendUvarints(nil, uint64(req.Kind), req.Agent,
		uint64(req.Window), uint64(req.K), uint64(len(req.Keys)))
	return appendUvarints(payload, req.Keys...)
}

// errMalformedRequest marks a msgExecQuery payload whose fields do not fit
// query.Request: a kind above 255, or a window or k above math.MaxInt.
var errMalformedRequest = errors.New("netsum: malformed exec request")

// decodeRequest unpacks a msgExecQuery payload. Validation is the
// executor's job — the wire layer only guards against malformed framing
// and refuses values its conversions would truncate, so no malformed
// request is answered as a different, valid one.
func decodeRequest(payload []byte) (query.Request, error) {
	u := &uvarintReader{buf: payload}
	var req query.Request
	kind, err := u.next()
	if err != nil {
		return req, err
	}
	if kind > math.MaxUint8 {
		return req, fmt.Errorf("%w: kind %d", errMalformedRequest, kind)
	}
	req.Kind = query.Kind(kind)
	if req.Agent, err = u.next(); err != nil {
		return req, err
	}
	window, err := u.next()
	if err != nil {
		return req, err
	}
	if window > math.MaxInt {
		return req, fmt.Errorf("%w: window %d", errMalformedRequest, window)
	}
	req.Window = int(window)
	k, err := u.next()
	if err != nil {
		return req, err
	}
	if k > math.MaxInt {
		return req, fmt.Errorf("%w: k %d", errMalformedRequest, k)
	}
	req.K = int(k)
	count, err := u.next()
	if err != nil {
		return req, err
	}
	if count > query.MaxBatchKeys {
		return req, fmt.Errorf("netsum: exec request with %d keys exceeds batch limit %d",
			count, query.MaxBatchKeys)
	}
	if count > 0 {
		req.Keys = make([]uint64, count)
		for i := range req.Keys {
			if req.Keys[i], err = u.next(); err != nil {
				return req, err
			}
		}
	}
	return req, nil
}

// encodeAnswer packs a typed answer into a msgExecResp payload. Upper
// always equals Est on this repository's surfaces (never-underestimating
// sketches), so only (key, est, lower) travel per estimate.
func encodeAnswer(ans query.Answer) []byte {
	var flags uint64
	if ans.Certified {
		flags |= 1
	}
	payload := appendUvarints(nil, flags, uint64(ans.Coverage), ans.Generation,
		uint64(len(ans.Source)))
	payload = append(payload, ans.Source...)
	payload = appendUvarints(payload, uint64(len(ans.PerKey)))
	for _, e := range ans.PerKey {
		payload = appendUvarints(payload, e.Key, e.Est, e.Lower)
	}
	return payload
}

// decodeAnswer unpacks a msgExecResp payload.
func decodeAnswer(payload []byte) (query.Answer, error) {
	u := &uvarintReader{buf: payload}
	var ans query.Answer
	flags, err := u.next()
	if err != nil {
		return ans, err
	}
	ans.Certified = flags&1 != 0
	coverage, err := u.next()
	if err != nil {
		return ans, err
	}
	if coverage > math.MaxInt {
		return ans, fmt.Errorf("netsum: answer coverage %d out of range", coverage)
	}
	ans.Coverage = int(coverage)
	if ans.Generation, err = u.next(); err != nil {
		return ans, err
	}
	srcLen, err := u.next()
	if err != nil {
		return ans, err
	}
	if srcLen > 256 || int(srcLen) > len(u.buf)-u.off {
		return ans, fmt.Errorf("netsum: implausible answer source length %d", srcLen)
	}
	ans.Source = string(u.buf[u.off : u.off+int(srcLen)])
	u.off += int(srcLen)
	count, err := u.next()
	if err != nil {
		return ans, err
	}
	if count > query.MaxBatchKeys {
		return ans, fmt.Errorf("netsum: exec answer with %d estimates exceeds batch limit %d",
			count, query.MaxBatchKeys)
	}
	ans.PerKey = make([]query.Estimate, count)
	for i := range ans.PerKey {
		e := &ans.PerKey[i]
		if e.Key, err = u.next(); err != nil {
			return ans, err
		}
		if e.Est, err = u.next(); err != nil {
			return ans, err
		}
		if e.Lower, err = u.next(); err != nil {
			return ans, err
		}
		e.Upper = e.Est
	}
	return ans, nil
}

// encodeBatch packs updates into a msgBatch payload.
func encodeBatch(ups []Update) []byte { return appendBatch(nil, ups) }

// appendBatch packs updates onto dst — the allocation-free form agents use
// to reuse one send buffer across pushes.
func appendBatch(dst []byte, ups []Update) []byte {
	dst = appendUvarints(dst, uint64(len(ups)))
	for _, u := range ups {
		dst = appendUvarints(dst, u.Key, u.Value)
	}
	return dst
}

// decodeBatch unpacks a msgBatch payload.
func decodeBatch(payload []byte) ([]Update, error) {
	u := &uvarintReader{buf: payload}
	count, err := u.next()
	if err != nil {
		return nil, err
	}
	if count > maxFrame/2 {
		return nil, fmt.Errorf("netsum: implausible batch count %d", count)
	}
	ups := make([]Update, count)
	for i := range ups {
		if ups[i].Key, err = u.next(); err != nil {
			return nil, err
		}
		if ups[i].Value, err = u.next(); err != nil {
			return nil, err
		}
	}
	return ups, nil
}
