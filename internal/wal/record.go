// Package wal is the write-ahead log behind the engine's pluggable
// durability layer: length-prefixed, CRC-framed redo records appended
// through a group-commit pipeline, replayed at startup to rebuild the
// multi-version store above the latest snapshot. The engine logs only
// committed write sets: per committing transaction, a Write record per
// granule it wrote, carrying the final value, then its Commit marker
// (concurrent committers' records may interleave; replay groups by Txn).
//
// # Record framing
//
// The log is a stream of self-delimiting frames, reusing the framing
// discipline of internal/wire (fixed-width big-endian fields, strict
// canonical decode, declared lengths validated before allocation):
//
//	uint32 payload length | uint32 crc32c(payload) | payload
//
// The payload is one record:
//
//	byte kind | kind-specific fixed-width fields
//
// A declared length above MaxRecord is corruption by definition and is
// rejected before any allocation. Decoding is strict: truncated fields,
// trailing payload bytes, and unknown kinds are errors, never panics —
// the fuzz targets in fuzz_test.go pin that contract.
//
// # Torn tails
//
// A crash can sever the final frame at any byte. Replay therefore treats
// the first undecodable frame — short header, short payload, implausible
// length, CRC mismatch, or an invalid record inside a CRC-valid frame —
// as the end of the log: everything before it is applied, everything from
// it on is discarded, and Open truncates the file back to the valid
// prefix so the next append starts on a clean boundary. A torn tail can
// only lose records whose commit batch never reported durable, so no
// acknowledged commit is ever dropped.
//
// A CRC-valid frame of a retired kind is no torn tail: Replay refuses the
// log with an error naming the kind and offset, and nothing is truncated.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// Kind discriminates the record types.
type Kind uint8

const (
	// KindWrite logs one write of a committing transaction: the writer's
	// initiation timestamp, the granule, and the final value (replay keeps
	// the last one if a granule appears twice).
	KindWrite Kind = 1
	// KindCommit logs a transaction commit marker. Replay applies a
	// transaction's buffered writes only when it sees this marker; the
	// engine acknowledges a commit only after the marker's flush batch is
	// durable.
	KindCommit Kind = 2
)

// retired reports whether k is a kind earlier builds wrote and this one
// cannot replay: 3 logged the removal of a pending version (Abort), 4 a
// GC pass (Prune). A log holding one is refused, not truncated there,
// which would drop every acknowledged commit after it.
func retired(k Kind) bool { return k == 3 || k == 4 }

// String renders a record kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "Write"
	case KindCommit:
		return "Commit"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is the decoded form of one log record. Fields beyond Kind and
// Txn are meaningful only for the kinds that carry them.
type Record struct {
	Kind Kind
	// Txn is the writing transaction's initiation timestamp — the
	// identity the engine gives every version.
	Txn vclock.Time
	// Seg and Key name the granule (Write).
	Seg schema.SegmentID
	Key uint64
	// Value is the written value (Write).
	Value []byte
}

// frameHeader is the per-record framing overhead: length + CRC.
const frameHeader = 8

// MaxRecord is the largest payload a frame may declare or carry. It
// bounds replay allocation per record the same way wire.MaxFrame bounds
// the server's; values are capped well below it by the wire protocol.
const MaxRecord = 1 << 20

// MaxValue is the longest value one Write record carries: MaxRecord less
// the record's fixed fields (kind, txn, segment, key, value length). A
// durable engine refuses a longer write, and a checkpoint holding one is
// an error.
const MaxValue = MaxRecord - (1 + 8 + 4 + 8 + 4)

// crcTable is the Castagnoli table every frame's checksum uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends r's payload encoding (no framing) to dst.
func AppendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind))
	switch r.Kind {
	case KindWrite:
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Txn))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Seg))
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
		dst = append(dst, r.Value...)
	case KindCommit:
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Txn))
	default:
		panic(fmt.Sprintf("wal: encoding unknown record kind %d", r.Kind))
	}
	return dst
}

// DecodeRecord decodes one payload into a Record. It is strict: every
// field must be present, the value length must match the remaining bytes
// exactly, and nothing may trail the record — so every accepted payload
// re-encodes to the identical bytes (the codec is canonical).
func DecodeRecord(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, fmt.Errorf("wal: empty record")
	}
	r := Record{Kind: Kind(p[0])}
	body := p[1:]
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("wal: %v record truncated: need %d bytes, have %d", r.Kind, n, len(body))
		}
		return nil
	}
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(body)
		body = body[8:]
		return v
	}
	u32 := func() uint32 {
		v := binary.BigEndian.Uint32(body)
		body = body[4:]
		return v
	}
	switch r.Kind {
	case KindWrite:
		if err := need(24); err != nil {
			return Record{}, err
		}
		r.Txn = vclock.Time(u64())
		seg := u32()
		r.Key = u64()
		vlen := u32()
		if seg > math.MaxInt32 {
			return Record{}, fmt.Errorf("wal: segment %d out of range", seg)
		}
		r.Seg = schema.SegmentID(seg)
		if uint64(vlen) != uint64(len(body)) {
			return Record{}, fmt.Errorf("wal: value length %d does not match %d remaining bytes", vlen, len(body))
		}
		if vlen > 0 {
			r.Value = append([]byte(nil), body...)
		}
	case KindCommit:
		if err := need(8); err != nil {
			return Record{}, err
		}
		r.Txn = vclock.Time(u64())
		if len(body) != 0 {
			return Record{}, fmt.Errorf("wal: %d trailing bytes after Commit record", len(body))
		}
	default:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", p[0])
	}
	return r, nil
}

// AppendFrame appends r as one framed record (length, CRC, payload) — the
// unit the log and checkpoints (mvstore) are both made of.
func AppendFrame(dst []byte, r *Record) []byte {
	// Reserve the header, encode the payload in place, then back-fill.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = AppendRecord(dst, r)
	payload := dst[start+frameHeader:]
	if len(payload) > MaxRecord {
		panic(fmt.Sprintf("wal: record of %d bytes exceeds MaxRecord", len(payload)))
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}
