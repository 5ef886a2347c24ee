package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"hdd/internal/cc"
)

// requestCases covers every opcode but OpBatch with representative
// operands, untagged (tag 0); the tagged and batch cases are in
// wire_v2_test.go.
func requestCases() []Request {
	return []Request{
		{Op: OpBegin, Class: 2},
		{Op: OpBeginReadOnly},
		{Op: OpRead, Txn: 42, Seg: 1, Key: 7},
		{Op: OpWrite, Txn: 42, Seg: 1, Key: 7, Value: []byte("hello")},
		{Op: OpWrite, Txn: 42, Seg: 0, Key: 0, Value: []byte{}},
		{Op: OpCommit, Txn: 42},
		{Op: OpAbort, Txn: 99},
		{Op: OpStats},
		{Op: OpHello},
		{Op: OpBeginReadOnlyFor, ReadSegs: []int32{0, 3}},
		{Op: OpBeginReadOnlyFor},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range requestCases() {
		req := req
		t.Run(req.Op.String(), func(t *testing.T) {
			p := AppendRequest2(nil, &req)
			got, err := DecodeRequestAny(p)
			if err != nil {
				t.Fatalf("DecodeRequestAny: %v", err)
			}
			// Empty and nil byte slices are wire-equivalent.
			if len(got.Value) == 0 {
				got.Value = nil
			}
			want := req
			if len(want.Value) == 0 {
				want.Value = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op   Op
		resp Response
	}{
		{OpBegin, Response{Status: StatusOK, Txn: 17, Class: 2}},
		{OpBeginReadOnly, Response{Status: StatusOK, Txn: 18, Class: -1}},
		{OpRead, Response{Status: StatusOK, Found: true, Value: []byte("v")}},
		{OpRead, Response{Status: StatusOK, Found: false}},
		{OpWrite, Response{Status: StatusOK}},
		{OpCommit, Response{Status: StatusAbort, Reason: "write-rejected", Message: "too late"}},
		{OpCommit, Response{Status: StatusEngineClosed, Message: "closed"}},
		{OpCommit, Response{Status: StatusDurabilityFailed, Message: "fsync: injected fault"}},
		{OpRead, Response{Status: StatusTxnDone, Message: "done"}},
		{OpBegin, Response{Status: StatusError, Message: "unknown class 9"}},
		{OpStats, Response{Status: StatusOK, Stats: []StatEntry{
			{Name: "commits", Value: 12}, {Name: "aborts", Value: -3}}}},
		{OpStats, Response{Status: StatusOK}},
		{OpHello, Response{Status: StatusOK, EngineName: "MV2PL", Caps: 0}},
		{OpHello, Response{Status: StatusOK, EngineName: "HDD", Caps: 0x7F}},
		{OpBeginReadOnlyFor, Response{Status: StatusOK, Txn: 21, Class: -1}},
		{OpBeginReadOnlyFor, Response{Status: StatusUnsupported, Message: "MV2PL does not implement BeginReadOnlyFor"}},
	}
	for i, c := range cases {
		p := AppendResponse2(nil, c.op, &c.resp)
		got, err := DecodeResponse2(c.op, p)
		if err != nil {
			t.Fatalf("case %d (%v): DecodeResponse2: %v", i, c.op, err)
		}
		if len(got.Value) == 0 {
			got.Value = nil
		}
		want := c.resp
		if len(want.Value) == 0 {
			want.Value = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%v):\n got %+v\nwant %+v", i, c.op, got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("one"), {}, []byte("three")}
	buf := bufio.NewReader(bytes.NewReader(frameStream(t, payloads...)))
	var reuse []byte
	for i, want := range payloads {
		got, err := ReadFrame(buf, reuse)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
		reuse = got[:cap(got)]
	}
	if _, err := ReadFrame(buf, reuse); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// frameStream encodes payloads as one stream of frames.
func frameStream(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	for _, p := range payloads {
		if err := WriteFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil)
	if err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized frame: got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Header declares 100 bytes; only 3 follow.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("abc")
	if _, err := ReadFrame(bufio.NewReader(&buf), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: got %v, want io.ErrUnexpectedEOF", err)
	}
	// Truncated header.
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0})), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// prefix is the fixed head of a payload: version, opcode or status, tag 0.
func prefix(second byte) []byte {
	return []byte{Version2, second, 0, 0, 0, 0, 0, 0, 0, 0}
}

func TestDecodeRequestErrors(t *testing.T) {
	cases := []struct {
		name string
		p    []byte
		want string // a substring of the error, when it matters
	}{
		{"empty", nil, ""},
		{"bad version", append([]byte{99}, AppendRequest2(nil, &Request{Op: OpBegin, Class: 1})[1:]...), ""},
		{"unknown opcode", prefix(200), "unknown opcode"},
		// Op 3 began the removed ad-hoc update; it stays unassigned. A
		// well-formed frame of the old shape (write segment, no reads) is
		// an unknown opcode, and so is its forged-count variant below.
		{"retired op 3", append(prefix(3), 0, 0, 0, 1, 0, 0), "unknown opcode 3"},
		{"truncated begin", append(prefix(byte(OpBegin)), 0), ""},
		{"trailing bytes", append(AppendRequest2(nil, &Request{Op: OpCommit, Txn: 1}), 0xFF), ""},
		{"forged value length", append(prefix(byte(OpWrite)),
			0, 0, 0, 0, 0, 0, 0, 1, // txn
			0, 0, 0, 0, // seg
			0, 0, 0, 0, 0, 0, 0, 2, // key
			0xFF, 0xFF, 0xFF, 0xFF, // value length 4 GiB, nothing follows
		), ""},
		{"forged adhoc count", append(prefix(3),
			0, 0, 0, 1, // writeSeg
			0xFF, 0xFF, // 65535 read segments, nothing follows
		), "unknown opcode 3"},
		{"forged readonly scope count", append(prefix(byte(OpBeginReadOnlyFor)),
			0xFF, 0xFF, // 65535 segments, nothing follows
		), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeRequestAny(c.p)
			if err == nil {
				t.Fatalf("DecodeRequestAny(%x) succeeded, want error", c.p)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("DecodeRequestAny(%x) = %v, want an error containing %q", c.p, err, c.want)
			}
		})
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		p    []byte
	}{
		{"empty", OpBegin, nil},
		{"unknown status", OpBegin, prefix(250)},
		{"truncated stats", OpStats, append(prefix(byte(StatusOK)), 0, 3)},
		{"trailing bytes", OpCommit, append(AppendResponse2(nil, OpCommit, &Response{Status: StatusOK}), 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeResponse2(c.op, c.p); err == nil {
				t.Fatalf("DecodeResponse2(%x) succeeded, want error", c.p)
			}
		})
	}
}

// TestErrorMappingRoundTrip is the satellite requirement in miniature:
// engine errors must keep their semantics after crossing the wire.
func TestErrorMappingRoundTrip(t *testing.T) {
	abort := &cc.AbortError{Reason: cc.ReasonWriteRejected, Err: errors.New("too late")}
	cases := []struct {
		name  string
		in    error
		check func(error) bool
	}{
		{"abort", abort, cc.IsAbort},
		{"abort reason", abort, func(err error) bool { return cc.AbortReason(err) == cc.ReasonWriteRejected }},
		{"engine closed", cc.ErrEngineClosed, func(err error) bool { return errors.Is(err, cc.ErrEngineClosed) }},
		{"engine closed is not abort", cc.ErrEngineClosed, func(err error) bool { return !cc.IsAbort(err) }},
		{"txn done", fmt.Errorf("op: %w", cc.ErrTxnDone), func(err error) bool { return errors.Is(err, cc.ErrTxnDone) }},
		{"durability failed", fmt.Errorf("commit 9 not durable: %w", cc.ErrDurabilityFailed),
			func(err error) bool { return errors.Is(err, cc.ErrDurabilityFailed) }},
		{"durability failed is not abort", cc.ErrDurabilityFailed, func(err error) bool { return !cc.IsAbort(err) }},
		{"plain error", errors.New("boom"), func(err error) bool { return err != nil && !cc.IsAbort(err) }},
		{"not supported", cc.NotSupported("MV2PL", "BeginReadOnlyFor"),
			func(err error) bool { return errors.Is(err, cc.ErrNotSupported) }},
		{"not supported is not abort", cc.ErrNotSupported, func(err error) bool { return !cc.IsAbort(err) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, reason, msg := StatusOf(c.in)
			resp := Response{Status: st, Reason: reason, Message: msg}
			// Cross the wire for real.
			p := AppendResponse2(nil, OpCommit, &resp)
			got, err := DecodeResponse2(OpCommit, p)
			if err != nil {
				t.Fatal(err)
			}
			if !c.check(got.Err()) {
				t.Fatalf("reconstructed error %v (%T) fails the semantic check", got.Err(), got.Err())
			}
		})
	}
	if st, _, _ := StatusOf(nil); st != StatusOK {
		t.Fatalf("StatusOf(nil) = %v, want StatusOK", st)
	}
	// An abort wrapping ErrTxnDone must classify as abort (IsAbort wins
	// over the TxnDone sentinel, matching the retry runner's expectations).
	wrapped := &cc.AbortError{Reason: cc.ReasonTimedOut, Err: cc.ErrTxnDone}
	if st, _, _ := StatusOf(wrapped); st != StatusAbort {
		t.Fatalf("StatusOf(abort wrapping ErrTxnDone) = %v, want StatusAbort", st)
	}
}

// TestFrameAllocs: a frame's header lives in the bufio buffers, so writing
// and reading frames through them allocates nothing.
func TestFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	payload := []byte("a request or response payload")
	var sock bytes.Buffer
	bw := bufio.NewWriter(&sock)
	br := bufio.NewReader(&sock)
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(br, buf)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read back (%q, %v)", got, err)
		}
	}); allocs != 0 {
		t.Fatalf("a frame written and read through bufio allocates %.0f times, want 0", allocs)
	}
}
