// Package query defines the one typed query contract every serving surface
// of this repository answers: a Request names what is being asked (point
// estimates, sliding-window sums, heavy-hitter top-k) for a whole batch of
// keys at once, and an Answer carries per-key certified intervals under a
// single generation snapshot.
//
// The same Request/Answer pair flows end to end — sketch batch queries
// (sketch.BatchQuerier), epoch.Ring.Execute, netsum.Collector.Execute, the
// netsum wire protocol's exec frames, and queryd's /v2/query HTTP endpoint
// — so batching amortizations (one lock per shard per batch, one merged-view
// fold) compose instead of being reinvented per layer, mirroring what
// InsertBatch did for ingestion.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/sketch"
)

// Kind selects what a Request asks for.
type Kind uint8

const (
	// Point asks for each key's value sum over the backend's whole visible
	// history (all time, or the retained sliding window in epoch mode).
	Point Kind = iota + 1
	// Window asks for each key's value sum over the last Request.Window
	// sealed epochs.
	Window
	// TopK asks for the K heaviest tracked keys, heaviest first.
	TopK
)

// kindNames maps kinds to their wire/JSON spellings.
var kindNames = map[Kind]string{Point: "point", Window: "window", TopK: "topk"}

// String renders the kind's JSON spelling ("point", "window", "topk").
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its string spelling.
func (k Kind) MarshalJSON() ([]byte, error) {
	name, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("query: cannot encode %s", k)
	}
	return json.Marshal(name)
}

// UnmarshalJSON accepts the string spellings (and the numeric values, for
// terse clients).
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		var n uint8
		if err := json.Unmarshal(data, &n); err != nil {
			return fmt.Errorf("query: kind must be a string or number: %s", data)
		}
		*k = Kind(n)
		return nil
	}
	for kind, kn := range kindNames {
		if kn == name {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("query: unknown kind %q (want point, window, or topk)", name)
}

// Limits every surface enforces, so a giant batch is refused identically at
// the HTTP edge, on the wire, and in-process.
const (
	// MaxBatchKeys bounds Request.Keys. Large enough for bulk dashboard
	// refreshes, small enough that one batch fits a single wire frame and
	// never pins a shard lock for unbounded work.
	MaxBatchKeys = 4096
	// MaxTopK bounds Request.K: each returned key costs a point query for
	// its certified bounds.
	MaxTopK = 1024
	// MaxWindow bounds Request.Window (requests beyond the retained history
	// are clamped by the ring; this only rejects nonsense).
	MaxWindow = 1 << 20
)

// Validation errors, named so callers (CLI flag checks, HTTP handlers, the
// wire protocol) can classify refusals without string matching.
var (
	ErrBadKind     = errors.New("query: kind must be point, window, or topk")
	ErrNoKeys      = errors.New("query: point and window requests need at least one key")
	ErrTooManyKeys = fmt.Errorf("query: too many keys in one batch (max %d)", MaxBatchKeys)
	ErrBadWindow   = fmt.Errorf("query: window must be in [1, %d] epochs", MaxWindow)
	ErrBadK        = fmt.Errorf("query: k must be in [1, %d]", MaxTopK)
	ErrAgentScope  = errors.New("query: agent scoping applies to window requests only")
)

// ErrUnavailable marks a transient refusal: the backend cannot answer right
// now (merged cluster view unavailable, replica still warming) but another
// replica might. HTTP surfaces map it to 503 so routers know to retry
// elsewhere, as opposed to hard 500 failures that no retry will fix.
var ErrUnavailable = errors.New("query: backend temporarily unavailable")

// Request is one typed query: what is asked (Kind), for which keys, over
// which sealed-epoch span, optionally scoped to one measurement agent.
// The zero value is invalid; every Execute implementation validates first.
type Request struct {
	Kind Kind `json:"kind"`
	// Keys are the queried keys (Point and Window). Answer.PerKey is
	// aligned with this slice: PerKey[i] answers Keys[i], duplicates
	// included.
	Keys []uint64 `json:"keys,omitempty"`
	// Window is the sliding-window span in sealed epochs (Window kind).
	Window int `json:"window,omitempty"`
	// K is how many heavy hitters to return (TopK kind).
	K int `json:"k,omitempty"`
	// Agent scopes a window request to one measurement agent's ring on
	// backends that track agents; 0 means global.
	Agent uint64 `json:"agent,omitempty"`
}

// Validate checks the request against the shared limits, returning one of
// the named errors (possibly wrapped with detail) on refusal.
func (r Request) Validate() error {
	switch r.Kind {
	case Point, Window:
		if len(r.Keys) == 0 {
			return ErrNoKeys
		}
		if len(r.Keys) > MaxBatchKeys {
			return fmt.Errorf("%w: got %d", ErrTooManyKeys, len(r.Keys))
		}
		if r.Kind == Window && (r.Window < 1 || r.Window > MaxWindow) {
			return fmt.Errorf("%w: got %d", ErrBadWindow, r.Window)
		}
		if r.Kind == Point && r.Agent != 0 {
			return ErrAgentScope
		}
	case TopK:
		if r.K < 1 || r.K > MaxTopK {
			return fmt.Errorf("%w: got %d", ErrBadK, r.K)
		}
		// Window optionally bounds the top-k span on epochal backends;
		// 0 means the full retained history.
		if r.Window < 0 || r.Window > MaxWindow {
			return fmt.Errorf("%w: got %d", ErrBadWindow, r.Window)
		}
		if r.Agent != 0 {
			return ErrAgentScope
		}
	default:
		return fmt.Errorf("%w: got %d", ErrBadKind, r.Kind)
	}
	return nil
}

// Estimate is one key's answer: the certified interval [Lower, Upper] with
// Est the reported estimate (Est == Upper for the never-underestimating
// sketches this repository serves; uncertified answers carry Lower == Upper
// == Est with Answer.Certified false).
type Estimate struct {
	Key   uint64 `json:"key"`
	Est   uint64 `json:"est"`
	Lower uint64 `json:"lower"`
	Upper uint64 `json:"upper"`
}

// Answer is the whole batch's result, computed under one state snapshot: no
// key in PerKey saw a different sealed set or agent state than another.
type Answer struct {
	// PerKey is aligned with Request.Keys for Point and Window requests;
	// for TopK it lists the heavy hitters, heaviest first.
	PerKey []Estimate `json:"per_key"`
	// Coverage is the sealed-epoch span the answer actually covers: for
	// window requests, the number of sealed windows answered (which may be
	// less than requested when history is shorter); 0 for cumulative
	// all-time answers.
	Coverage int `json:"coverage"`
	// Generation is the sealed-set generation the answer derives from; it
	// advances exactly when a window seals and stays 0 for cumulative
	// backends. Sealed-only answers are immutable per generation — the
	// contract result caches key on.
	Generation uint64 `json:"generation"`
	// Source names the surface that computed the answer ("sketch", "ring",
	// "collector", ...), for observability across the serving stack.
	Source string `json:"source"`
	// Certified reports whether every interval in PerKey is a certified
	// bound (truth ∈ [Lower, Upper]).
	Certified bool `json:"certified"`
	// KeyCoverage is the fraction of requested keys answered
	// authoritatively, in [0, 1]. Single-node surfaces leave it 0 (unset:
	// every answer is authoritative by construction); cluster surfaces set
	// it to 1 when every key was answered by its owning replica and to a
	// smaller fraction when replicas were down or answers came from lagged
	// non-owner fallbacks. KeyCoverage < 1 always implies Certified ==
	// false: a degraded answer is reported honestly, never silently
	// narrowed.
	KeyCoverage float64 `json:"key_coverage,omitempty"`
}

// Executor is the one contract every query surface implements: the sketch
// backends, the epoch ring, and the netsum collector (locally and over the
// wire) all answer a Request with an Answer.
type Executor interface {
	Execute(Request) (Answer, error)
}

// EstimatesFrom shapes raw batch-query output (aligned est/mpe slices, as
// produced by sketch.QueryBatch) into per-key Estimates. mpe may be nil for
// uncertified answers, in which case Lower == Upper == Est.
func EstimatesFrom(keys []uint64, est, mpe []uint64) []Estimate {
	out := make([]Estimate, len(keys))
	for i, k := range keys {
		out[i] = Estimate{Key: k, Est: est[i], Lower: est[i], Upper: est[i]}
		if mpe != nil {
			out[i].Lower = sketch.CertifiedLowerBound(est[i], mpe[i])
		}
	}
	return out
}

// TopKOf sorts tracked keys heaviest-first, tie-breaking on key for
// deterministic listings, and keeps the top k.
func TopKOf(kvs []sketch.KV, k int) []sketch.KV {
	out := make([]sketch.KV, len(kvs))
	copy(out, kvs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Est != out[j].Est {
			return out[i].Est > out[j].Est
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
