// Package wire defines the binary protocol of the networked HDD service:
// length-prefixed frames over a byte stream, a request/response pair per
// engine operation, and the error-code mapping that preserves abort
// semantics (cc.IsAbort, cc.ErrEngineClosed, cc.ErrTxnDone) across the
// connection.
//
// # Framing
//
// Every message is one frame:
//
//	uint32 big-endian payload length | payload
//
// A declared length above MaxFrame is a protocol error and is rejected
// before any allocation, so a hostile or corrupt peer cannot make the
// receiver over-allocate. A request payload is
//
//	byte 2 | byte opcode | uint64 tag | opcode-specific fields
//
// and a response payload
//
//	byte 2 | byte status | uint64 tag | status-specific fields
//
// The leading byte is the protocol version; there is one, Version2, and a
// payload that starts with anything else is rejected by every decoder. All
// integers are big-endian. Variable-length fields carry their own length
// prefix: values a uint32, strings a uint16. Decoders are strict —
// truncated fields, trailing bytes, unknown opcodes or statuses, and
// version mismatches all return errors, never panic.
//
// # Tags and pipelining
//
// The tag is chosen by the client and echoed verbatim by the server in the
// matching response, for every status. Tags let a client pipeline many
// requests on one connection and demultiplex the responses, which MAY
// arrive out of order: the server only promises that operations addressing
// the same transaction execute (and are answered) in arrival order. Tag
// uniqueness among a connection's in-flight requests is the client's
// responsibility; the server never interprets the value.
//
// # Transactions over the wire
//
// The server names an open transaction by its engine TxnID (the initiation
// instant, unique per attempt) and scopes the name to the connection that
// began it: Read/Write/Commit/Abort requests carry the id, and a
// connection can only address transactions it opened. Dropping the
// connection orphans its open transactions; the server force-aborts them
// with reaper semantics (see internal/server).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"hdd/internal/cc"
)

// Version2 is the protocol version, the first byte of every payload. (The
// untagged version 1 it replaced is gone; its frames are rejected.)
const Version2 = 2

// MaxFrame is the largest payload a frame may declare or carry. It bounds
// receiver allocation per frame.
const MaxFrame = 1 << 20

// MaxValue is the largest granule value a Write request may carry, leaving
// headroom for the fixed request fields inside MaxFrame.
const MaxValue = MaxFrame - 128

// Op is a request opcode.
type Op byte

// Request opcodes, one per engine operation the service exposes.
const (
	OpBegin         Op = 1 // begin an update transaction of a class
	OpBeginReadOnly Op = 2 // begin an ad-hoc read-only transaction (Protocol C)
	// Op 3 began the removed §7.1 ad-hoc update; it stays unassigned, and
	// a frame carrying it is rejected as an unknown opcode.
	OpRead   Op = 4 // read one granule in an open transaction
	OpWrite  Op = 5 // write one granule in an open transaction
	OpCommit Op = 6 // commit an open transaction
	OpAbort  Op = 7 // abort an open transaction
	OpStats  Op = 8 // snapshot engine + server counters
	// OpHello reports what the connection is talking to: the backend
	// engine's name and its capability bits (cc.Capability), so a client
	// can feature-detect before issuing capability-gated opcodes.
	OpHello Op = 9
	// OpBeginReadOnlyFor begins a read-only transaction declared over a
	// segment set (cc.ScopedReadOnlyBeginner); the engine picks the
	// freshest protocol the declaration allows.
	OpBeginReadOnlyFor Op = 10
	// OpBatch runs many reads and/or writes against one open transaction
	// in a single round trip, in declaration order.
	OpBatch Op = 11
)

// String renders an opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpBegin:
		return "Begin"
	case OpBeginReadOnly:
		return "BeginReadOnly"
	case OpRead:
		return "Read"
	case OpWrite:
		return "Write"
	case OpCommit:
		return "Commit"
	case OpAbort:
		return "Abort"
	case OpStats:
		return "Stats"
	case OpHello:
		return "Hello"
	case OpBeginReadOnlyFor:
		return "BeginReadOnlyFor"
	case OpBatch:
		return "Batch"
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Status is a response status code. Non-OK statuses map one-to-one onto
// the engine's error taxonomy so the client can reconstruct errors that
// behave identically to the embedded API's.
type Status byte

const (
	// StatusOK carries the operation's result.
	StatusOK Status = 0
	// StatusAbort carries an engine abort (reason + message); the client
	// surfaces it as a *cc.AbortError, so hdd.IsAbort holds.
	StatusAbort Status = 1
	// StatusEngineClosed reports the engine (or server) is shut down; the
	// client surfaces cc.ErrEngineClosed.
	StatusEngineClosed Status = 2
	// StatusTxnDone reports an operation on a finished transaction; the
	// client surfaces cc.ErrTxnDone.
	StatusTxnDone Status = 3
	// StatusError carries any other error as text.
	StatusError Status = 4
	// StatusDurabilityFailed reports the engine's fail-stop degraded mode:
	// storage failed, commits cannot be made durable, and the engine serves
	// reads only. The client surfaces cc.ErrDurabilityFailed — not an
	// abort, so retry loops stop instead of hammering a poisoned engine.
	StatusDurabilityFailed Status = 5
	// StatusUnsupported reports that the opcode needs a capability the
	// serving backend does not implement (e.g. OpBeginReadOnlyFor against
	// a 2PL engine). The client surfaces cc.ErrNotSupported — typed, not a
	// panic or a generic error, so callers can feature-detect by probing
	// or, better, read the capability bits from OpHello first.
	StatusUnsupported Status = 6
)

// BatchOp is one operation inside an OpBatch request: a read of (Seg, Key)
// or, when Write is set, a write of Value to it.
type BatchOp struct {
	Write bool
	Seg   int32
	Key   uint64
	Value []byte // write payload; ignored for reads
}

// BatchResult is one operation's result inside an OpBatch response.
// Writes carry no payload; reads carry the Found flag and value with
// OpRead's semantics.
type BatchResult struct {
	Write bool
	Found bool
	Value []byte
}

// Request is the decoded form of one request frame. Fields beyond Op are
// meaningful only for the opcodes that carry them.
type Request struct {
	Op Op

	// Tag is the client-chosen correlation tag; the server echoes it in
	// the response.
	Tag uint64

	// Class is the update class for OpBegin.
	Class int32
	// ReadSegs declares an OpBeginReadOnlyFor read scope.
	ReadSegs []int32

	// Txn addresses an open transaction (OpRead/OpWrite/OpCommit/OpAbort/
	// OpBatch).
	Txn uint64
	// Seg and Key name the granule for OpRead/OpWrite.
	Seg int32
	Key uint64
	// Value is the payload for OpWrite.
	Value []byte

	// Batch is the operation list for OpBatch.
	Batch []BatchOp
}

// Response is the decoded form of one response frame. Result fields are
// meaningful only under StatusOK, and only for the operation that was
// requested; Reason and Message carry error detail for the other statuses.
type Response struct {
	Status Status

	// Tag echoes the request's tag (carried for every status so errors
	// demultiplex too).
	Tag uint64

	// Txn and Class answer the Begin* family.
	Txn   uint64
	Class int32

	// Found and Value answer OpRead. Found=false with an empty Value is a
	// read of a granule that does not exist at the visible instant.
	Found bool
	Value []byte

	// Batch answers OpBatch, one entry per request operation in order.
	Batch []BatchResult

	// Stats answers OpStats.
	Stats []StatEntry

	// EngineName and Caps answer OpHello: the backend engine's Name() and
	// its capability bits (cc.Capability widened to uint64).
	EngineName string
	Caps       uint64

	// Reason is the abort reason for StatusAbort (cc.AbortReason).
	Reason string
	// Message is the error text for every non-OK status.
	Message string
}

// StatEntry is one named counter in a Stats response. Entries are a flat
// name/value list so the server can add metrics without a protocol bump.
type StatEntry struct {
	Name  string
	Value int64
}

// WriteFrame buffers payload as one length-prefixed frame in w. The
// header is built in w's free buffer space, so a frame whose header fits
// there (FrameWriter makes room first) costs no allocation.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame (%d)", len(payload), MaxFrame)
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf when it is large enough, and
// returns the payload. The header is peeked in r's buffer and its declared
// length validated against MaxFrame before anything is allocated. A clean
// EOF before the header is returned as io.EOF (end of session); a
// truncated header or payload is io.ErrUnexpectedEOF. An error inside the
// header (a read deadline, say) consumes nothing.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame declares %d bytes, exceeding MaxFrame (%d)", n, MaxFrame)
	}
	r.Discard(4)
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// FrameBuffered reports whether r already holds one complete frame, so
// that the next ReadFrame cannot block.
func FrameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	return uint32(n-4) >= binary.BigEndian.Uint32(hdr)
}

// ResponseTag extracts the tag from a response payload without
// decoding the rest — the demultiplexing peek a pipelined client performs
// before it knows which request (and so which opcode) the frame answers.
func ResponseTag(p []byte) (uint64, error) {
	if len(p) < 10 {
		return 0, fmt.Errorf("wire: %d-byte payload too short for a tagged response", len(p))
	}
	if p[0] != Version2 {
		return 0, fmt.Errorf("wire: protocol version %d, want %d", p[0], Version2)
	}
	return binary.BigEndian.Uint64(p[2:10]), nil
}

// AppendRequest2 appends req's encoded payload to buf (usually buf[:0] of
// a reused buffer) and returns the extended slice.
func AppendRequest2(buf []byte, req *Request) []byte {
	e := encoder{buf: buf}
	e.u8(Version2)
	e.u8(byte(req.Op))
	e.u64(req.Tag)
	switch req.Op {
	case OpBegin:
		e.i32(req.Class)
	case OpBeginReadOnly, OpStats, OpHello:
		// no operands
	case OpBeginReadOnlyFor:
		e.u16(uint16(len(req.ReadSegs)))
		for _, s := range req.ReadSegs {
			e.i32(s)
		}
	case OpRead:
		e.u64(req.Txn)
		e.i32(req.Seg)
		e.u64(req.Key)
	case OpWrite:
		e.u64(req.Txn)
		e.i32(req.Seg)
		e.u64(req.Key)
		e.bytes(req.Value)
	case OpCommit, OpAbort:
		e.u64(req.Txn)
	case OpBatch:
		e.u64(req.Txn)
		e.u16(uint16(len(req.Batch)))
		for i := range req.Batch {
			op := &req.Batch[i]
			if op.Write {
				e.u8(1)
			} else {
				e.u8(0)
			}
			e.i32(op.Seg)
			e.u64(op.Key)
			if op.Write {
				e.bytes(op.Value)
			}
		}
	}
	return e.buf
}

// DecodeRequestAny decodes one request payload. It is strict: a version
// byte other than Version2, unknown opcodes, truncated fields, oversized
// counts, and trailing bytes are all errors. Write values (Value, and each
// Batch entry's) alias p, capped at their length: a caller that keeps one
// past p's reuse must copy it.
func DecodeRequestAny(p []byte) (Request, error) {
	d := decoder{b: p}
	if err := d.version(); err != nil {
		return Request{}, err
	}
	var req Request
	req.Op = Op(d.u8())
	req.Tag = d.u64()
	switch req.Op {
	case OpBegin:
		req.Class = d.i32()
	case OpBeginReadOnly, OpStats, OpHello:
		// no operands
	case OpBeginReadOnlyFor:
		n := int(d.u16())
		if d.err == nil && n*4 > len(d.b) {
			return Request{}, fmt.Errorf("wire: read-only scope declares %d segments, only %d bytes remain", n, len(d.b))
		}
		if d.err == nil && n > 0 {
			req.ReadSegs = make([]int32, n)
			for i := range req.ReadSegs {
				req.ReadSegs[i] = d.i32()
			}
		}
	case OpRead:
		req.Txn = d.u64()
		req.Seg = d.i32()
		req.Key = d.u64()
	case OpWrite:
		req.Txn = d.u64()
		req.Seg = d.i32()
		req.Key = d.u64()
		req.Value = d.bytes()
	case OpCommit, OpAbort:
		req.Txn = d.u64()
	case OpBatch:
		req.Txn = d.u64()
		n := int(d.u16())
		// Each op is at least kind + seg + key = 13 bytes, which bounds
		// the slice allocation a forged count could demand.
		if d.err == nil && n*13 > len(d.b) {
			return Request{}, fmt.Errorf("wire: batch declares %d ops, only %d bytes remain", n, len(d.b))
		}
		if d.err == nil && n > 0 {
			req.Batch = make([]BatchOp, n)
			for i := range req.Batch {
				switch k := d.u8(); {
				case d.err != nil:
				case k > 1:
					return Request{}, fmt.Errorf("wire: batch op kind must be 0 or 1, got %d", k)
				default:
					req.Batch[i].Write = k == 1
				}
				req.Batch[i].Seg = d.i32()
				req.Batch[i].Key = d.u64()
				if req.Batch[i].Write {
					req.Batch[i].Value = d.bytes()
				}
			}
		}
	default:
		return Request{}, fmt.Errorf("wire: unknown opcode %d", byte(req.Op))
	}
	if err := d.finish(); err != nil {
		return Request{}, fmt.Errorf("wire: decoding %v request: %w", req.Op, err)
	}
	return req, nil
}

// AppendResponse2 appends resp's encoded payload — tag echoed after the
// status, for every status — to buf and returns the extended slice. op
// selects which result fields a StatusOK response carries.
func AppendResponse2(buf []byte, op Op, resp *Response) []byte {
	e := encoder{buf: buf}
	e.u8(Version2)
	e.u8(byte(resp.Status))
	e.u64(resp.Tag)
	if resp.Status != StatusOK {
		e.str(resp.Reason)
		e.str(resp.Message)
		return e.buf
	}
	switch op {
	case OpBegin, OpBeginReadOnly, OpBeginReadOnlyFor:
		e.u64(resp.Txn)
		e.i32(resp.Class)
	case OpHello:
		e.str(resp.EngineName)
		e.u64(resp.Caps)
	case OpRead:
		if resp.Found {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.bytes(resp.Value)
	case OpWrite, OpCommit, OpAbort:
		// no result payload
	case OpBatch:
		e.u16(uint16(len(resp.Batch)))
		for i := range resp.Batch {
			r := &resp.Batch[i]
			if r.Write {
				e.u8(1)
				continue
			}
			e.u8(0)
			if r.Found {
				e.u8(1)
			} else {
				e.u8(0)
			}
			e.bytes(r.Value)
		}
	case OpStats:
		e.u16(uint16(len(resp.Stats)))
		for _, s := range resp.Stats {
			e.str(s.Name)
			e.u64(uint64(s.Value))
		}
	}
	return e.buf
}

// DecodeResponse2 decodes one response payload, with the same strictness
// as DecodeRequestAny; the caller learned op from the pending request the
// tag names (see ResponseTag). Read values (Value, and each Batch entry's)
// alias p, capped at their length: they are valid until p is reused, and a
// caller that keeps one past that must copy it.
func DecodeResponse2(op Op, p []byte) (Response, error) {
	d := decoder{b: p}
	if err := d.version(); err != nil {
		return Response{}, err
	}
	var resp Response
	resp.Status = Status(d.u8())
	resp.Tag = d.u64()
	switch resp.Status {
	case StatusOK:
		switch op {
		case OpBegin, OpBeginReadOnly, OpBeginReadOnlyFor:
			resp.Txn = d.u64()
			resp.Class = d.i32()
		case OpHello:
			resp.EngineName = d.str()
			resp.Caps = d.u64()
		case OpRead:
			switch b := d.u8(); {
			case d.err != nil:
			case b > 1:
				return Response{}, fmt.Errorf("wire: found flag must be 0 or 1, got %d", b)
			default:
				resp.Found = b == 1
			}
			resp.Value = d.bytes()
		case OpWrite, OpCommit, OpAbort:
			// no result payload
		case OpBatch:
			n := int(d.u16())
			// Each result is at least the kind byte.
			if d.err == nil && n > len(d.b) {
				return Response{}, fmt.Errorf("wire: batch declares %d results, only %d bytes remain", n, len(d.b))
			}
			if d.err == nil && n > 0 {
				resp.Batch = make([]BatchResult, n)
				for i := range resp.Batch {
					switch k := d.u8(); {
					case d.err != nil:
					case k > 1:
						return Response{}, fmt.Errorf("wire: batch result kind must be 0 or 1, got %d", k)
					case k == 1:
						resp.Batch[i].Write = true
						continue
					}
					switch b := d.u8(); {
					case d.err != nil:
					case b > 1:
						return Response{}, fmt.Errorf("wire: found flag must be 0 or 1, got %d", b)
					default:
						resp.Batch[i].Found = b == 1
					}
					resp.Batch[i].Value = d.bytes()
				}
			}
		case OpStats:
			n := int(d.u16())
			// Each entry is at least a 2-byte name prefix + 8-byte value.
			if d.err == nil && n*10 > len(d.b) {
				return Response{}, fmt.Errorf("wire: stats declare %d entries, only %d bytes remain", n, len(d.b))
			}
			if d.err == nil && n > 0 {
				resp.Stats = make([]StatEntry, n)
				for i := range resp.Stats {
					resp.Stats[i].Name = d.str()
					resp.Stats[i].Value = int64(d.u64())
				}
			}
		default:
			return Response{}, fmt.Errorf("wire: unknown opcode %d for response", byte(op))
		}
	case StatusAbort, StatusEngineClosed, StatusTxnDone, StatusError, StatusDurabilityFailed, StatusUnsupported:
		resp.Reason = d.str()
		resp.Message = d.str()
	default:
		return Response{}, fmt.Errorf("wire: unknown status %d", byte(resp.Status))
	}
	if err := d.finish(); err != nil {
		return Response{}, fmt.Errorf("wire: decoding %v response: %w", op, err)
	}
	return resp, nil
}

// StatusOf classifies an engine error for the wire: the status code plus
// the reason/message detail the response should carry.
func StatusOf(err error) (st Status, reason, msg string) {
	switch {
	case err == nil:
		return StatusOK, "", ""
	case errors.Is(err, cc.ErrEngineClosed):
		return StatusEngineClosed, "", err.Error()
	case errors.Is(err, cc.ErrDurabilityFailed):
		return StatusDurabilityFailed, "", err.Error()
	case errors.Is(err, cc.ErrNotSupported):
		return StatusUnsupported, "", err.Error()
	case cc.IsAbort(err):
		return StatusAbort, cc.AbortReason(err), err.Error()
	case errors.Is(err, cc.ErrTxnDone):
		return StatusTxnDone, "", err.Error()
	default:
		return StatusError, "", err.Error()
	}
}

// Err reconstructs the client-side error for a non-OK response, preserving
// the embedded API's semantics: StatusAbort becomes a *cc.AbortError (so
// hdd.IsAbort reports true and retry loops fire), StatusEngineClosed
// becomes cc.ErrEngineClosed, and StatusTxnDone wraps cc.ErrTxnDone.
func (r *Response) Err() error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusAbort:
		return &cc.AbortError{Reason: r.Reason, Err: errors.New(r.Message)}
	case StatusEngineClosed:
		return cc.ErrEngineClosed
	case StatusDurabilityFailed:
		return fmt.Errorf("%w (%s)", cc.ErrDurabilityFailed, r.Message)
	case StatusUnsupported:
		return fmt.Errorf("%w (%s)", cc.ErrNotSupported, r.Message)
	case StatusTxnDone:
		return fmt.Errorf("%s: %w", "hdd server", cc.ErrTxnDone)
	default:
		return fmt.Errorf("hdd server: %s", r.Message)
	}
}

// maxPooledBuffer caps what PutBuffer retains: a frame that ballooned to
// carry a megabyte value should be garbage, not pinned in the pool.
const maxPooledBuffer = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuffer leases a zero-length encode/decode scratch buffer from the
// package pool; append into (*b)[:0] exactly as with a caller-owned
// buffer. Pipelined senders use it so frames built concurrently do not
// cost one allocation each.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a leased buffer to the pool. The caller must not
// touch the slice afterwards. Oversized buffers are dropped.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// encoder appends big-endian fields to a buffer.
type encoder struct{ buf []byte }

func (e *encoder) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i32(v int32)  { e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v)) }

func (e *encoder) bytes(v []byte) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(v)))
	e.buf = append(e.buf, v...)
}

func (e *encoder) str(v string) {
	if len(v) > 1<<16-1 {
		v = v[:1<<16-1]
	}
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(len(v)))
	e.buf = append(e.buf, v...)
}

// decoder consumes big-endian fields with a latched error; every accessor
// is a no-op returning zero once an error is set, so decode paths read
// straight through and check once.
type decoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated payload")

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = errTruncated
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u16() uint16 {
	if b := d.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) i32() int32 {
	if b := d.take(4); b != nil {
		return int32(binary.BigEndian.Uint32(b))
	}
	return 0
}

// bytes reads a uint32-prefixed byte field as a slice of the payload,
// capped at its length so an append cannot run into the bytes after it.
// The length is bounded by the remaining payload.
func (d *decoder) bytes() []byte {
	n := d.u32len()
	return d.take(n)[:n:n]
}

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// u32len reads a uint32 length prefix, validating it against the bytes
// actually remaining so a forged prefix cannot trigger a huge allocation.
func (d *decoder) u32len() int {
	if b := d.take(4); b != nil {
		n := binary.BigEndian.Uint32(b)
		if uint64(n) > uint64(len(d.b)) {
			d.err = fmt.Errorf("field declares %d bytes, only %d remain", n, len(d.b))
			return 0
		}
		return int(n)
	}
	return 0
}

// version consumes the version byte, requiring Version2.
func (d *decoder) version() error {
	if v := d.u8(); d.err == nil && v != Version2 {
		return fmt.Errorf("wire: protocol version %d, want %d", v, Version2)
	}
	return d.err
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return nil
}
