package mvstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// FuzzCheckpointDecode hammers ReadCheckpoint with hostile inputs. The
// decoder must never panic or over-allocate, and anything it accepts must
// round-trip: re-encoding the decoded store yields a checkpoint with the
// same contents and high-water mark. Seeds cover the interesting shapes;
// the checked-in corpus under testdata/fuzz runs on every `go test`.
func FuzzCheckpointDecode(f *testing.F) {
	// A real empty and a real populated checkpoint.
	f.Add(checkpointBytes(f, func(s *Store) {}))
	f.Add(checkpointBytes(f, func(s *Store) {
		_ = s.InstallPending(g(0, 7), 10, []byte("hello"))
		s.CommitAt(g(0, 7), 10, 11)
		_ = s.InstallPending(g(1, 3), 20, []byte{0xff, 0x00})
		s.CommitAt(g(1, 3), 20, 21)
	}))
	// Hostile shapes: empty, wrong magic, truncated trailer, flipped
	// payload byte, and a CRC-valid body with a forged value length.
	f.Add([]byte{})
	f.Add([]byte("NOTACKPTxxxx"))
	f.Add([]byte(checkpointMagic))
	flipped := checkpointBytes(f, func(s *Store) {
		_ = s.InstallPending(g(0, 1), 5, []byte("x"))
		s.Commit(g(0, 1), 5)
	})
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(withValidCRC(append([]byte(checkpointMagic),
		1,    // one granule
		0, 7, // segment 0, key 7
		1,      // one version
		10, 11, // ts, commitTS
		0xff, 0xff, 0xff, 0xff, 0x0f, // forged 2^36-ish value length
	)))
	// CRC-valid, one granule listed twice: the second entry must not
	// silently replace the first.
	f.Add(withValidCRC(append([]byte(checkpointMagic),
		2,                       // two granules
		0, 7, 1, 10, 11, 1, 'a', // segment 0, key 7: one version
		0, 7, 1, 20, 21, 1, 'b', // the same granule again
	)))

	f.Fuzz(func(t *testing.T, p []byte) {
		s, high, err := ReadCheckpoint(bytes.NewReader(p))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		h2, err := s.WriteCheckpoint(&buf)
		if err != nil {
			t.Fatalf("re-encoding a decoded checkpoint: %v", err)
		}
		if h2 != high {
			t.Fatalf("re-encode high = %d, decode said %d", h2, high)
		}
		s2, h3, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("re-encoded checkpoint unreadable: %v", err)
		}
		if h3 != high || s2.TotalVersions() != s.TotalVersions() {
			t.Fatalf("round-trip drift: high %d->%d, versions %d->%d",
				high, h3, s.TotalVersions(), s2.TotalVersions())
		}
	})
}

// checkpointBytes serializes a store populated by fill.
func checkpointBytes(f *testing.F, fill func(*Store)) []byte {
	f.Helper()
	s := New()
	fill(s)
	var buf bytes.Buffer
	if _, err := s.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// withValidCRC appends the correct Castagnoli trailer, so the payload
// itself — not the checksum gate — is what the decoder must survive.
func withValidCRC(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload,
		crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// The boot-refusal errors must tell the operator what is wrong with which
// bytes: magic failures name offset 0 and both magics; checksum failures
// name the trailer offset and both sums.
func TestCheckpointErrorDetail(t *testing.T) {
	_, _, err := ReadCheckpoint(strings.NewReader("NOTACKPT1234"))
	if err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") ||
		!strings.Contains(err.Error(), "offset 0") ||
		!strings.Contains(err.Error(), checkpointMagic) {
		t.Fatalf("magic error lacks detail: %v", err)
	}

	s := New()
	_ = s.InstallPending(g(0, 1), 10, []byte("x"))
	s.Commit(g(0, 1), 10)
	var buf bytes.Buffer
	if _, err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[len(checkpointMagic)+2] ^= 0xff // corrupt the payload, keep the magic
	_, _, err = ReadCheckpoint(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") ||
		!strings.Contains(err.Error(), "offset") {
		t.Fatalf("checksum error lacks detail: %v", err)
	}

	// A forged value length is refused before it allocates.
	forged := withValidCRC(append([]byte(checkpointMagic),
		1, 0, 7, 1, 10, 11, 0xff, 0xff, 0xff, 0xff, 0x0f))
	if _, _, err := ReadCheckpoint(bytes.NewReader(forged)); err == nil ||
		!strings.Contains(err.Error(), "value length") {
		t.Fatalf("forged length error: %v", err)
	}

	// So is a granule listed twice.
	twice := withValidCRC(append([]byte(checkpointMagic),
		2, 0, 7, 1, 10, 11, 1, 'a', 0, 7, 1, 20, 21, 1, 'b'))
	if _, _, err := ReadCheckpoint(bytes.NewReader(twice)); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate granule error: %v", err)
	}
}
