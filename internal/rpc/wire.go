package rpc

import (
	"bufio"
	"encoding/gob"
	"io"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// Wire protocol v2.
//
// A connection opens with the single magic byte MagicV2; the server closes
// (and counts as malformed) any connection that opens with another byte.
// After the magic byte each direction is one persistent stream of
// length-prefixed frames:
//
//	[uvarint payload length][gob payload]
//
// using gob's native message framing with per-connection codec state, so
// type descriptors cross the wire once per connection rather than once per
// frame. Client→server payloads decode as Frame, server→client as Reply.
//
// Every frame carries a client-chosen nonzero request ID; the client may
// have any number of requests in flight and the server dispatches them
// concurrently, so replies arrive in completion order, matched by ID. A
// request normally produces exactly one reply with Final set; OpWatch
// produces a stream of event replies (Final false) terminated by a Final
// reply when the subscription ends.
const MagicV2 = 0xB2

// Stream operations.
const (
	// OpWatch subscribes to job-state transitions (JobID, or
	// scheduler.AllJobs) and streams them until cancelled.
	OpWatch Op = "watch"
	// OpCancel cancels the in-flight request identified by CancelID
	// (a pending Wait or a Watch subscription).
	OpCancel Op = "cancel"
)

// Reply error codes (Reply.Code).
const (
	// CodeBadRequest marks malformed or unparseable requests.
	CodeBadRequest = "bad-request"
	// CodeUnknownOp marks structurally valid requests naming no operation.
	CodeUnknownOp = "unknown-op"
	// CodeApp marks scheduler-level failures (unknown job, invalid spec…).
	CodeApp = "app"
	// CodeCancelled marks requests terminated by OpCancel or shutdown.
	CodeCancelled = "cancelled"
	// CodeOverload marks requests shed by admission control (see
	// ErrOverload); the request never reached the scheduler and may be
	// retried after backing off.
	CodeOverload = "overload"
)

// Frame is the v2 client→server request envelope.
type Frame struct {
	// ID matches replies to requests; it must be nonzero and unique among
	// the connection's in-flight requests.
	ID uint64
	Op Op
	// Tenant attributes the request for admission control and, on submits
	// with an unset Spec.Tenant, tags the submitted job. Typed clients
	// stamp it from their configured identity (reshape.WithTenant).
	Tenant     string
	JobID      int
	Topo       grid.Topology
	IterTime   float64
	RedistTime float64
	Spec       scheduler.JobSpec
	// CancelID names the request an OpCancel frame targets.
	CancelID uint64
}

// Reply is the v2 server→client envelope. Exactly one of the payload
// fields is meaningful, selected by the originating op.
type Reply struct {
	ID    uint64
	Final bool
	Err   string
	Code  string

	JobID    int
	Decision scheduler.Decision
	Status   *scheduler.ClusterStatus
	Event    *scheduler.JobEvent
}

// FrameWriter emits one direction of a v2 stream. Writes are buffered and
// flushed per frame; callers serialize Write calls per connection.
type FrameWriter struct {
	bw  *bufio.Writer
	enc *gob.Encoder
}

// NewFrameWriter starts a frame stream on w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	bw := bufio.NewWriter(w)
	return &FrameWriter{bw: bw, enc: gob.NewEncoder(bw)}
}

// Write appends one frame to the stream.
func (fw *FrameWriter) Write(v any) error {
	if err := fw.enc.Encode(v); err != nil {
		return err
	}
	return fw.bw.Flush()
}

// FrameReader consumes one direction of a v2 stream.
type FrameReader struct {
	dec *gob.Decoder
}

// NewFrameReader starts reading a frame stream from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{dec: gob.NewDecoder(r)}
}

// Read decodes the next frame into v.
func (fr *FrameReader) Read(v any) error { return fr.dec.Decode(v) }
