package mvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"hdd/internal/wal"
)

// FuzzCheckpointDecode hammers ReadCheckpoint with hostile inputs. The
// decoder must never panic or over-allocate, and anything it accepts must
// re-encode to the identical bytes: the format is canonical, so a
// checkpoint has exactly one encoding. Seeds cover the interesting shapes;
// the checked-in corpus under testdata/fuzz (inputs that must be refused)
// runs on every `go test`.
func FuzzCheckpointDecode(f *testing.F) {
	// A real empty and a real populated checkpoint.
	f.Add(checkpointBytes(f, func(s *Store) {}))
	f.Add(checkpointBytes(f, func(s *Store) {
		_ = s.InstallPending(g(0, 7), 10, []byte("hello"))
		s.Commit(g(0, 7), 10)
		_ = s.InstallPending(g(1, 3), 20, []byte{0xff, 0x00})
		s.Commit(g(1, 3), 20)
	}))
	// Hostile shapes: empty, garbage, a closing record cut short, a
	// flipped payload byte, and a frame declaring more than MaxRecord.
	f.Add([]byte{})
	f.Add([]byte("NOTACKPTxxxx"))
	closed := frames(closing(0))
	f.Add(closed[:len(closed)-1])
	flipped := checkpointBytes(f, func(s *Store) {
		_ = s.InstallPending(g(0, 1), 5, []byte("x"))
		s.Commit(g(0, 1), 5)
	})
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(binary.BigEndian.AppendUint32(nil, wal.MaxRecord+1))
	// CRC-valid frames in shapes WriteCheckpoint never writes: one granule
	// listed twice, a record after the closing one, another kind before
	// it, a wrong high-water mark, and no closing record at all.
	f.Add(frames(write(0, 7, 10, "a"), write(0, 8, 11, "b"), write(0, 7, 20, "c"), closing(20)))
	f.Add(frames(write(0, 7, 10, "a"), closing(10), write(0, 8, 11, "b")))
	f.Add(append(append(frames(write(0, 7, 10, "a")), rawFrame(4, 0, 0, 0, 0, 0, 0, 0, 10)...), frames(closing(10))...))
	f.Add(frames(write(0, 7, 10, "a"), closing(11)))
	f.Add(frames(write(0, 7, 10, "a")))

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
		if h2 != high || !bytes.Equal(buf.Bytes(), p) {
			t.Fatalf("accepted %x (high %d) re-encodes to %x (high %d)", p, high, buf.Bytes(), h2)
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

// The boot-refusal errors must tell the operator what is wrong at which
// byte: a corrupt frame names its own offset, and a frame declaring more
// than MaxRecord is refused at its offset before anything is allocated.
func TestCheckpointErrorDetail(t *testing.T) {
	head := frames(write(0, 1, 10, "x"))
	p := append(append([]byte(nil), head...), frames(write(0, 2, 11, "y"), closing(11))...)
	p[len(head)+9] ^= 0xff // inside the second frame's payload
	want := fmt.Sprintf("checkpoint refused at offset %d: torn or undecodable frame", len(head))
	_, _, err := ReadCheckpoint(bytes.NewReader(p))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("corrupt frame error lacks detail: %v", err)
	}

	forged := binary.BigEndian.AppendUint32(append([]byte(nil), head...), 1<<31)
	forged = append(forged, 0, 0, 0, 0)
	if _, _, err := ReadCheckpoint(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("forged length error: %v", err)
	}
}
