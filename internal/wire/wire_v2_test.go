package wire

import (
	"reflect"
	"strings"
	"testing"
)

// v2RequestCases covers every opcode as a tagged frame, including
// OpBatch.
func v2RequestCases() []Request {
	return []Request{
		{Op: OpBegin, Tag: 1, Class: 2},
		{Op: OpBeginReadOnly, Tag: 0xFFFFFFFFFFFFFFFF},
		{Op: OpBeginReadOnlyFor, Tag: 4, ReadSegs: []int32{0, 3}},
		{Op: OpRead, Tag: 5, Txn: 42, Seg: 1, Key: 7},
		{Op: OpWrite, Tag: 6, Txn: 42, Seg: 1, Key: 7, Value: []byte("hello")},
		{Op: OpCommit, Tag: 7, Txn: 42},
		{Op: OpAbort, Tag: 8, Txn: 99},
		{Op: OpStats, Tag: 9},
		{Op: OpHello, Tag: 10},
		{Op: OpBatch, Tag: 11, Txn: 42, Batch: []BatchOp{
			{Seg: 0, Key: 1},
			{Write: true, Seg: 1, Key: 2, Value: []byte("payload")},
			{Seg: 2, Key: 3},
		}},
		{Op: OpBatch, Tag: 12, Txn: 43, Batch: []BatchOp{
			{Write: true, Seg: 0, Key: 0, Value: nil},
		}},
	}
}

func TestRequestRoundTripV2(t *testing.T) {
	for _, req := range v2RequestCases() {
		req := req
		t.Run(req.Op.String(), func(t *testing.T) {
			p := AppendRequest2(nil, &req)
			got, err := DecodeRequestAny(p)
			if err != nil {
				t.Fatalf("DecodeRequestAny: %v", err)
			}
			want := req
			normalizeReq(&got)
			normalizeReq(&want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func normalizeReq(r *Request) {
	if len(r.Value) == 0 {
		r.Value = nil
	}
	for i := range r.Batch {
		if len(r.Batch[i].Value) == 0 {
			r.Batch[i].Value = nil
		}
	}
}

func TestResponseRoundTripV2(t *testing.T) {
	cases := []struct {
		op   Op
		resp Response
	}{
		{OpBegin, Response{Status: StatusOK, Tag: 7, Txn: 17, Class: 2}},
		{OpRead, Response{Status: StatusOK, Tag: 8, Found: true, Value: []byte("v")}},
		{OpRead, Response{Status: StatusOK, Tag: 9}},
		{OpCommit, Response{Status: StatusAbort, Tag: 10, Reason: "write-rejected", Message: "too late"}},
		{OpHello, Response{Status: StatusOK, Tag: 11, EngineName: "HDD", Caps: 0x7F}},
		{OpStats, Response{Status: StatusOK, Tag: 12, Stats: []StatEntry{{Name: "commits", Value: 3}}}},
		{OpBatch, Response{Status: StatusOK, Tag: 13, Batch: []BatchResult{
			{Found: true, Value: []byte("a")},
			{Write: true},
			{Found: false},
		}}},
		{OpBatch, Response{Status: StatusTxnDone, Tag: 14, Message: "done"}},
		{OpWrite, Response{Status: StatusError, Tag: 0xDEADBEEF, Message: "boom"}},
	}
	for i, c := range cases {
		p := AppendResponse2(nil, c.op, &c.resp)
		// The tag must be extractable without decoding — for every status.
		tag, err := ResponseTag(p)
		if err != nil {
			t.Fatalf("case %d (%v): ResponseTag: %v", i, c.op, err)
		}
		if tag != c.resp.Tag {
			t.Fatalf("case %d (%v): ResponseTag = %d, want %d", i, c.op, tag, c.resp.Tag)
		}
		got, err := DecodeResponse2(c.op, p)
		if err != nil {
			t.Fatalf("case %d (%v): DecodeResponse2: %v", i, c.op, err)
		}
		want := c.resp
		normalizeResp(&got)
		normalizeResp(&want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%v):\n got %+v\nwant %+v", i, c.op, got, want)
		}
	}
}

func normalizeResp(r *Response) {
	if len(r.Value) == 0 {
		r.Value = nil
	}
	for i := range r.Batch {
		if len(r.Batch[i].Value) == 0 {
			r.Batch[i].Value = nil
		}
	}
}

func TestResponseTagErrors(t *testing.T) {
	if _, err := ResponseTag([]byte{Version2, 0, 1}); err == nil {
		t.Fatal("short payload accepted")
	}
	// Long enough for a tag, but the version byte is 1.
	v1 := []byte{1, byte(StatusError), 0, 0, 0, 6, 'l', 'e', 'g', 'a', 'c', 'y'}
	if _, err := ResponseTag(v1); err == nil {
		t.Fatal("v1 payload accepted")
	}
}

func TestDecodeRequestAnyErrors(t *testing.T) {
	cases := []struct {
		name string
		p    []byte
	}{
		{"bad version", []byte{3, byte(OpBegin), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1}},
		{"truncated tag", []byte{Version2, byte(OpStats), 0, 0}},
		{"forged batch count", []byte{Version2, byte(OpBatch),
			0, 0, 0, 0, 0, 0, 0, 1, // tag
			0, 0, 0, 0, 0, 0, 0, 2, // txn
			0xFF, 0xFF, // 65535 ops, nothing follows
		}},
		{"bad batch kind", append(
			AppendRequest2(nil, &Request{Op: OpBatch, Tag: 1, Txn: 2})[:20],
			0, 1, // count = 1
			7,          // kind 7: invalid
			0, 0, 0, 0, // seg
			0, 0, 0, 0, 0, 0, 0, 0, // key
		)},
		{"trailing bytes", append(AppendRequest2(nil, &Request{Op: OpCommit, Tag: 1, Txn: 2}), 0xAA)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeRequestAny(c.p); err == nil {
				t.Fatalf("DecodeRequestAny(%x) succeeded, want error", c.p)
			}
		})
	}
}

func TestDecodeResponse2Errors(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		p    []byte
	}{
		{"v1 payload", OpCommit, []byte{1, byte(StatusOK)}},
		{"truncated tag", OpCommit, []byte{Version2, byte(StatusOK), 0}},
		{"forged batch count", OpBatch, []byte{Version2, byte(StatusOK),
			0, 0, 0, 0, 0, 0, 0, 1, // tag
			0xFF, 0xFF, // 65535 results, nothing follows
		}},
		{"trailing bytes", OpWrite, append(AppendResponse2(nil, OpWrite, &Response{Status: StatusOK, Tag: 1}), 9)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeResponse2(c.op, c.p); err == nil {
				t.Fatalf("DecodeResponse2(%x) succeeded, want error", c.p)
			}
		})
	}
}

// TestV1BytesRejected sends every decoder the exact bytes the retired
// version-1 encoders produced: each must be refused for its version byte,
// not misparsed as a tagged frame.
func TestV1BytesRejected(t *testing.T) {
	requests := map[string][]byte{
		"begin": {1, 1, 0, 0, 0, 2},
		"read":  {1, 4, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7},
		"hello": {1, 9},
	}
	for name, p := range requests {
		if _, err := DecodeRequestAny(p); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("v1 %s request: got %v, want a version error", name, err)
		}
	}
	responses := []struct {
		name string
		op   Op
		p    []byte
	}{
		{"ok write", OpWrite, []byte{1, 0}},
		{"read", OpRead, []byte{1, 0, 1, 0, 0, 0, 1, 'v'}},
	}
	for _, c := range responses {
		if _, err := DecodeResponse2(c.op, c.p); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("v1 %s response: got %v, want a version error", c.name, err)
		}
	}
}

// TestBufferPool pins the scratch-buffer lease contract.
func TestBufferPool(t *testing.T) {
	bp := GetBuffer()
	if len(*bp) != 0 {
		t.Fatalf("leased buffer has length %d, want 0", len(*bp))
	}
	*bp = append(*bp, 1, 2, 3)
	PutBuffer(bp)
	// Oversized buffers must not be retained.
	huge := make([]byte, 0, maxPooledBuffer+1)
	PutBuffer(&huge)
	// Cannot assert it was dropped directly, but the pool must keep
	// serving zero-length buffers.
	if b2 := GetBuffer(); len(*b2) != 0 {
		t.Fatalf("pool returned dirty buffer of length %d", len(*b2))
	} else {
		PutBuffer(b2)
	}
}

// TestEncodePooledZeroAllocs is the PR 9-style allocation guard for the
// pooled encode path: steady-state encoding of a tagged request and
// response into leased buffers must not allocate.
func TestEncodePooledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	req := Request{Op: OpRead, Tag: 7, Txn: 1, Seg: 0, Key: 9}
	resp := Response{Status: StatusOK, Tag: 7, Found: true, Value: []byte("steady")}
	if allocs := testing.AllocsPerRun(1000, func() {
		bp := GetBuffer()
		*bp = AppendRequest2((*bp)[:0], &req)
		PutBuffer(bp)
		bp = GetBuffer()
		*bp = AppendResponse2((*bp)[:0], OpRead, &resp)
		PutBuffer(bp)
	}); allocs != 0 {
		t.Fatalf("pooled encode allocates %.1f times per op, want 0", allocs)
	}
}
