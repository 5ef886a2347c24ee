package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"unsafe"
)

// The fuzz targets pin the decoder's safety contract: for arbitrary input
// — truncated frames, forged lengths, unknown opcodes/statuses — decoding
// must return an error or a valid message, never panic, and never allocate
// beyond the declared-length bounds. Run continuously with
// `go test -fuzz=FuzzDecodeRequest ./internal/wire/`; the seed corpus
// (f.Add plus testdata/fuzz) runs under plain `go test`.

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []Request{
		{Op: OpBegin, Class: 1},
		{Op: OpBeginReadOnly},
		{Op: OpBeginReadOnlyFor},
		{Op: OpBeginReadOnlyFor, ReadSegs: []int32{0, 2}},
		{Op: OpHello},
		{Op: OpRead, Txn: 7, Seg: 1, Key: 9},
		{Op: OpWrite, Txn: 7, Seg: 1, Key: 9, Value: []byte("value")},
		{Op: OpCommit, Txn: 7},
		{Op: OpAbort, Txn: 7},
		{Op: OpStats},
		{Op: OpRead, Tag: 0xA1B2C3D4E5F60718, Txn: 7, Seg: 1, Key: 9},
		{Op: OpHello, Tag: 1},
		{Op: OpCommit, Tag: 2, Txn: 7},
		{Op: OpBatch, Tag: 3, Txn: 7, Batch: []BatchOp{
			{Seg: 0, Key: 1},
			{Write: true, Seg: 1, Key: 2, Value: []byte("bv")},
		}},
	} {
		req := req
		f.Add(AppendRequest2(nil, &req))
	}
	// Hostile shapes: truncations, frames of the retired version 1 (the
	// testdata seeds without a v2_ prefix are version-1 frames too: all
	// must be rejected), wrong version, trailing garbage, truncated tag,
	// forged batch count, invalid batch kind.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 250})
	f.Add([]byte{0, byte(OpBegin), 0, 0, 0, 1})
	f.Add([]byte{1, byte(OpWrite), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 3, 0, 0, 0, 1, 0xFF, 0xFF}) // retired op 3, forged count
	f.Add([]byte{1, byte(OpBeginReadOnlyFor), 0xFF, 0xFF})
	f.Add(append(AppendRequest2(nil, &Request{Op: OpCommit, Txn: 1}), 0))
	f.Add([]byte{Version2, byte(OpStats), 0, 0}) // truncated tag
	f.Add([]byte{Version2, byte(OpBatch),
		0, 0, 0, 0, 0, 0, 0, 1, // tag
		0, 0, 0, 0, 0, 0, 0, 2, // txn
		0xFF, 0xFF}) // 65535 ops, nothing follows
	f.Add([]byte{Version2, byte(OpBatch),
		0, 0, 0, 0, 0, 0, 0, 1, // tag
		0, 0, 0, 0, 0, 0, 0, 2, // txn
		0, 1, // one op
		7,          // invalid kind
		0, 0, 0, 0, // seg
		0, 0, 0, 0, 0, 0, 0, 0}) // key
	f.Add([]byte{1, byte(OpBatch), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := DecodeRequestAny(p)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the identical payload:
		// the codec is canonical, so nothing decodable is unrepresentable
		// (and nothing that does not start with Version2 is decodable).
		if got := AppendRequest2(nil, &req); !bytes.Equal(got, p) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", p, got)
		}
		// Decoded variable-length fields can never exceed what the payload
		// itself could carry.
		if len(req.Value) > len(p) || len(req.ReadSegs)*4 > len(p) || len(req.Batch)*13 > len(p) {
			t.Fatalf("decoded fields larger than payload: %d value bytes, %d read segs, %d batch ops from %d payload bytes",
				len(req.Value), len(req.ReadSegs), len(req.Batch), len(p))
		}
	})
}

// fuzzResponse is the property both response targets check.
func fuzzResponse(t *testing.T, opByte byte, p []byte) {
	op := Op(opByte)
	resp, err := DecodeResponse2(op, p)
	if err != nil {
		return
	}
	if resp.Status == StatusOK && (op < OpBegin || op > OpBatch) {
		t.Fatalf("StatusOK decoded for unknown opcode %d", opByte)
	}
	// The demux peek must agree with the full decode for anything
	// decodable — the client trusts the peek to route the frame.
	tag, tagErr := ResponseTag(p)
	if tagErr != nil || tag != resp.Tag {
		t.Fatalf("ResponseTag = (%d, %v), decode says tag %d", tag, tagErr, resp.Tag)
	}
	if got := AppendResponse2(nil, op, &resp); !bytes.Equal(got, p) {
		t.Fatalf("re-encode mismatch for %v:\n in  %x\n out %x", op, p, got)
	}
	if len(resp.Stats)*10 > len(p) || len(resp.Batch) > len(p) {
		t.Fatalf("decoded fields larger than payload")
	}
	// Read values alias the payload, capped at their own length.
	inPayload := func(v []byte) {
		if len(v) > 0 && (cap(v) != len(v) || !within(v, p)) {
			t.Fatalf("read value of %d bytes (cap %d) is not a capped slice of the payload", len(v), cap(v))
		}
	}
	inPayload(resp.Value)
	for i := range resp.Batch {
		inPayload(resp.Batch[i].Value)
	}
}

// within reports whether v lies inside p's memory.
func within(v, p []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return at >= start && at+uintptr(len(v)) <= start+uintptr(len(p))
}

// FuzzDecodeResponse starts the response property from the untagged
// results and error statuses of every opcode; its testdata corpus is the
// retired version 1's, kept as seeds the decoder must reject.
func FuzzDecodeResponse(f *testing.F) {
	for _, c := range []struct {
		op   Op
		resp Response
	}{
		{OpBegin, Response{Status: StatusOK, Txn: 3, Class: 1}},
		{OpRead, Response{Status: StatusOK, Found: true, Value: []byte("v")}},
		{OpCommit, Response{Status: StatusAbort, Reason: "write-rejected", Message: "m"}},
		{OpStats, Response{Status: StatusOK, Stats: []StatEntry{{Name: "commits", Value: 1}}}},
		{OpWrite, Response{Status: StatusEngineClosed, Message: "closed"}},
		{OpHello, Response{Status: StatusOK, EngineName: "HDD", Caps: 0x7F}},
		{OpBeginReadOnlyFor, Response{Status: StatusOK, Txn: 4, Class: -1}},
		{OpBeginReadOnlyFor, Response{Status: StatusUnsupported, Message: "not supported"}},
	} {
		c := c
		f.Add(byte(c.op), AppendResponse2(nil, c.op, &c.resp))
	}
	f.Add(byte(OpStats), []byte{1, byte(StatusOK), 0xFF, 0xFF})
	f.Add(byte(OpRead), []byte{1, byte(StatusOK), 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(byte(0), []byte{1, byte(StatusOK)})
	f.Fuzz(fuzzResponse)
}

// FuzzDecodeResponse2 starts it from tagged frames, batches and forged
// counts.
func FuzzDecodeResponse2(f *testing.F) {
	for _, c := range []struct {
		op   Op
		resp Response
	}{
		{OpBegin, Response{Status: StatusOK, Tag: 1, Txn: 3, Class: 1}},
		{OpRead, Response{Status: StatusOK, Tag: 2, Found: true, Value: []byte("v")}},
		{OpCommit, Response{Status: StatusAbort, Tag: 3, Reason: "write-rejected", Message: "m"}},
		{OpHello, Response{Status: StatusOK, Tag: 4, EngineName: "HDD", Caps: 0x7F}},
		{OpBatch, Response{Status: StatusOK, Tag: 5, Batch: []BatchResult{
			{Found: true, Value: []byte("a")}, {Write: true}, {}}}},
		{OpBatch, Response{Status: StatusError, Tag: 6, Message: "batch op 1: boom"}},
	} {
		c := c
		f.Add(byte(c.op), AppendResponse2(nil, c.op, &c.resp))
	}
	f.Add(byte(OpBatch), []byte{Version2, byte(StatusOK),
		0, 0, 0, 0, 0, 0, 0, 1, // tag
		0xFF, 0xFF}) // 65535 results, nothing follows
	f.Add(byte(OpCommit), []byte{Version2, byte(StatusOK), 0})    // truncated tag
	f.Add(byte(OpRead), []byte{1, byte(StatusOK), 0, 0, 0, 0, 0}) // a version-1 read response
	f.Fuzz(fuzzResponse)
}

// FuzzReadFrame reads a stream through a 16-byte bufio.Reader, so headers
// and payloads straddle refills, and checks every outcome against a
// direct parse of the stream.
func FuzzReadFrame(f *testing.F) {
	frame := func(p []byte) []byte {
		var b bytes.Buffer
		w := bufio.NewWriter(&b)
		WriteFrame(w, p)
		w.Flush()
		return b.Bytes()
	}
	f.Add(frame([]byte("payload")))
	f.Add(frame(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})          // 4 GiB declared
	f.Add([]byte{0, 0x10, 0, 1})                   // MaxFrame+1 declared
	f.Add([]byte{0, 0, 0, 100, 'a', 'b'})          // truncated payload
	f.Add([]byte{0, 0})                            // truncated header
	f.Add(append(frame([]byte("x")), 0, 0, 0, 99)) // second frame truncated
	f.Add(append(frame([]byte("0123456789ab")), frame([]byte("header straddles the refill"))...))
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(stream), 16)
		var buf []byte
		for rest := stream; ; {
			payload, err := ReadFrame(r, buf)
			var n uint32
			if len(rest) >= 4 {
				n = binary.BigEndian.Uint32(rest)
			}
			switch {
			case len(rest) == 0:
				if err != io.EOF {
					t.Fatalf("at the end of the stream: got %v, want io.EOF", err)
				}
				return
			case len(rest) < 4:
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("%d-byte header: got %v, want io.ErrUnexpectedEOF", len(rest), err)
				}
				return
			case n > MaxFrame:
				if err == nil || !strings.Contains(err.Error(), "MaxFrame") {
					t.Fatalf("frame declaring %d bytes: got %v", n, err)
				}
				return
			case uint64(len(rest)-4) < uint64(n):
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("truncated %d-byte payload: got %v, want io.ErrUnexpectedEOF", n, err)
				}
				return
			}
			if err != nil || !bytes.Equal(payload, rest[4:4+n]) {
				t.Fatalf("frame of %d bytes: got (%x, %v)", n, payload, err)
			}
			rest = rest[4+n:]
			buf = payload[:cap(payload)]
		}
	})
}
