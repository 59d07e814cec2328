package netsum

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/query"
)

// Agent is a measurement point's connection to the collector. It batches
// updates locally (the data-plane pattern: cheap appends on the hot path,
// one frame per flush) and supports synchronous global queries.
//
// Agent is not safe for concurrent use; run one per goroutine, as a
// per-pipeline deployment would.
type Agent struct {
	id      uint64
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pending []Update
	// sendBuf is the reusable batch-frame encoding buffer: one allocation
	// warms up to the steady-state frame size and every later Flush encodes
	// into it instead of allocating per push.
	sendBuf []byte
	// BatchSize is the flush threshold (default 512 updates).
	BatchSize int
}

// Dial connects an agent to the collector and announces its identity.
func Dial(addr string, agentID uint64) (*Agent, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsum: dial: %w", err)
	}
	a := &Agent{
		id:        agentID,
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 16<<10),
		bw:        bufio.NewWriterSize(conn, 64<<10),
		BatchSize: 512,
	}
	// The hello carries the protocol version after the agent ID; v1
	// collectors read only the ID and ignore the rest, which is what makes
	// the extension compatible.
	hello := appendUvarints(nil, agentID, ProtocolVersion)
	if err := writeFrame(a.bw, msgHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	if err := a.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return a, nil
}

// Record buffers one update, flushing automatically at BatchSize.
func (a *Agent) Record(key, value uint64) error {
	a.pending = append(a.pending, Update{Key: key, Value: value})
	if len(a.pending) >= a.BatchSize {
		return a.Flush()
	}
	return nil
}

// Flush sends all buffered updates.
func (a *Agent) Flush() error {
	if len(a.pending) == 0 {
		return nil
	}
	a.sendBuf = appendBatch(a.sendBuf[:0], a.pending)
	if err := writeFrame(a.bw, msgBatch, a.sendBuf); err != nil {
		return err
	}
	a.pending = a.pending[:0]
	return a.bw.Flush()
}

// Execute flushes pending updates and runs one typed batch request against
// the collector: N point or window queries (or a top-k enumeration) in a
// single round trip, answered under one state snapshot per agent — the wire
// surface of the unified query plane (protocol v2; v1 collectors drop the
// connection on the frame, see ProtocolVersion). The request is validated
// locally before anything is sent.
func (a *Agent) Execute(req query.Request) (query.Answer, error) {
	if err := req.Validate(); err != nil {
		return query.Answer{}, err
	}
	if err := a.Flush(); err != nil {
		return query.Answer{}, err
	}
	if err := writeFrame(a.bw, msgExecQuery, encodeRequest(req)); err != nil {
		return query.Answer{}, err
	}
	if err := a.bw.Flush(); err != nil {
		return query.Answer{}, err
	}
	typ, payload, err := readFrame(a.br)
	if err != nil {
		return query.Answer{}, err
	}
	switch typ {
	case msgExecResp:
		ans, err := decodeAnswer(payload)
		if err != nil {
			return query.Answer{}, err
		}
		if req.Kind != query.TopK && len(ans.PerKey) != len(req.Keys) {
			return query.Answer{}, fmt.Errorf("netsum: answer for %d keys, asked %d",
				len(ans.PerKey), len(req.Keys))
		}
		return ans, nil
	case msgExecErr:
		return query.Answer{}, fmt.Errorf("netsum: collector refused query: %s", payload)
	default:
		return query.Answer{}, fmt.Errorf("netsum: expected exec response, got type %d", typ)
	}
}

// QueryBatch is the convenience form of Execute for global point queries:
// every key's certified interval in one round trip.
func (a *Agent) QueryBatch(keys []uint64) ([]query.Estimate, error) {
	ans, err := a.Execute(query.Request{Kind: query.Point, Keys: keys})
	if err != nil {
		return nil, err
	}
	return ans.PerKey, nil
}

// Stats flushes and fetches collector-side statistics.
func (a *Agent) Stats() (agents int, updates, queries uint64, err error) {
	if err := a.Flush(); err != nil {
		return 0, 0, 0, err
	}
	if err := writeFrame(a.bw, msgStats, nil); err != nil {
		return 0, 0, 0, err
	}
	if err := a.bw.Flush(); err != nil {
		return 0, 0, 0, err
	}
	typ, payload, err := readFrame(a.br)
	if err != nil {
		return 0, 0, 0, err
	}
	if typ != msgStatsResp {
		return 0, 0, 0, fmt.Errorf("netsum: expected stats response, got type %d", typ)
	}
	u := &uvarintReader{buf: payload}
	ag, err := u.next()
	if err != nil {
		return 0, 0, 0, err
	}
	up, err := u.next()
	if err != nil {
		return 0, 0, 0, err
	}
	q, err := u.next()
	if err != nil {
		return 0, 0, 0, err
	}
	return int(ag), up, q, nil
}

// Close flushes and closes the connection.
func (a *Agent) Close() error {
	flushErr := a.Flush()
	closeErr := a.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
