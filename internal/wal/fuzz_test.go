package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// The fuzz targets pin the log's crash-safety contract, mirroring
// internal/wire/fuzz_test.go: for arbitrary bytes — truncated records,
// forged lengths, corrupt CRCs, torn final frames — the decoder must
// return an error or a canonical record, and Replay must end cleanly at
// the first bad byte, or refuse a retired record kind, never panic, and
// never admit garbage. Run
// continuously with `go test -fuzz=FuzzReplay ./internal/wal/`; the seed
// corpus (f.Add plus testdata/fuzz) runs under plain `go test`.

func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		r := r
		f.Add(AppendRecord(nil, &r))
	}
	// Retired kinds: the Abort and Prune payloads earlier builds wrote.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 6})
	// Hostile shapes: empty, unknown kind, truncated fields, forged value
	// length, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{250, 1, 2, 3})
	f.Add([]byte{byte(KindWrite), 0, 0})
	f.Add([]byte{byte(KindWrite), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(append(AppendRecord(nil, &Record{Kind: KindCommit, Txn: 7}), 0))
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeRecord(p)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the identical payload: the
		// codec is canonical, so nothing decodable is unrepresentable.
		if got := AppendRecord(nil, &r); !bytes.Equal(got, p) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", p, got)
		}
		if len(r.Value) > len(p) {
			t.Fatalf("decoded %d value bytes from %d payload bytes", len(r.Value), len(p))
		}
	})
}

func FuzzReplay(f *testing.F) {
	stream := func(recs ...Record) []byte {
		var b []byte
		for i := range recs {
			b = AppendFrame(b, &recs[i])
		}
		return b
	}
	full := stream(sampleRecords()...)
	f.Add(full)
	f.Add([]byte{})
	// Truncated record: the final frame severed mid-payload.
	f.Add(full[:len(full)-3])
	// Truncated header.
	f.Add(full[:3])
	// Forged length: header declares MaxRecord+1.
	f.Add([]byte{0, 0x10, 0, 1, 0, 0, 0, 0})
	// Forged length: header declares 4 GiB.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	// Corrupt CRC on the first record.
	corrupt := append([]byte(nil), full...)
	corrupt[4] ^= 0xff
	f.Add(corrupt)
	// Torn final record after valid prefix.
	f.Add(append(stream(Record{Kind: KindCommit, Txn: 1}), 0, 0, 0, 9, 1, 2, 3, 4, byte(KindWrite)))
	// CRC-valid frame whose payload is not a valid record.
	bad := []byte{99, 1, 2}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(bad)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(bad, crcTable))
	f.Add(append(frame, bad...))
	// CRC-valid frame of a retired kind (4, Prune) after a commit.
	pruned := []byte{4, 0, 0, 0, 0, 0, 0, 0, 6}
	frame = binary.BigEndian.AppendUint32(nil, uint32(len(pruned)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(pruned, crcTable))
	f.Add(append(stream(Record{Kind: KindCommit, Txn: 1}), append(frame, pruned...)...))
	f.Fuzz(func(t *testing.T, p []byte) {
		var recs []Record
		valid, n, torn, err := Replay(bytes.NewReader(p), func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if valid < 0 || valid > int64(len(p)) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(p))
		}
		if int(n) != len(recs) {
			t.Fatalf("reported %d records, applied %d", n, len(recs))
		}
		// The one error an in-memory stream can draw: a frame of a retired
		// kind, refused where it starts.
		if err != nil && (torn || valid+frameHeader >= int64(len(p)) || !retired(Kind(p[valid+frameHeader]))) {
			t.Fatalf("Replay of in-memory stream errored: %v", err)
		}
		if err == nil && !torn && valid != int64(len(p)) {
			t.Fatalf("not torn but valid offset %d != stream length %d", valid, len(p))
		}
		// The valid prefix must itself replay clean with the same records —
		// this is exactly what recovery relies on after Open truncates.
		var recs2 []Record
		valid2, n2, torn2, err2 := Replay(bytes.NewReader(p[:valid]), func(r Record) error {
			recs2 = append(recs2, r)
			return nil
		})
		if err2 != nil || torn2 || valid2 != valid || n2 != n {
			t.Fatalf("valid prefix not stable: valid %d->%d records %d->%d torn=%v err=%v",
				valid, valid2, n, n2, torn2, err2)
		}
		for i := range recs2 {
			if !bytes.Equal(AppendRecord(nil, &recs[i]), AppendRecord(nil, &recs2[i])) {
				t.Fatalf("record %d changed across prefix replay", i)
			}
		}
	})
}
