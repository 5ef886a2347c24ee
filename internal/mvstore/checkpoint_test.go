package mvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hdd/internal/vclock"
	"hdd/internal/wal"
	"hdd/internal/wire"
)

func TestCheckpointRoundTrip(t *testing.T) {
	s := New()
	// Three granules across segments, multi-version chains, one pending.
	for seg := 0; seg < 2; seg++ {
		for key := 0; key < 3; key++ {
			gid := g(seg, key)
			for i := 1; i <= 3; i++ {
				ts := vclock.Time(seg*100 + key*10 + i)
				_ = s.InstallPending(gid, ts, []byte{byte(seg), byte(key), byte(i)})
				s.CommitAt(gid, ts, ts+1)
			}
		}
	}
	_ = s.InstallPending(g(0, 0), 999, []byte("pending-must-vanish"))

	var buf bytes.Buffer
	high, err := s.WriteCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if high != 123 {
		t.Fatalf("high = %d, want the largest committed write timestamp 123", high)
	}
	encoded := append([]byte(nil), buf.Bytes()...)

	r, rhigh, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rhigh != high {
		t.Fatalf("rhigh = %d, want %d", rhigh, high)
	}
	for seg := 0; seg < 2; seg++ {
		for key := 0; key < 3; key++ {
			gid := g(seg, key)
			want := s.Versions(gid)
			got := r.Versions(gid)
			// The source still has the pending version on (0,0).
			var wantCommitted []VersionInfo
			for _, v := range want {
				if v.State == Committed {
					v.ReadTS = 0 // registers are not captured
					wantCommitted = append(wantCommitted, v)
				}
			}
			if len(got) != len(wantCommitted) {
				t.Fatalf("granule %v: %d versions, want %d", gid, len(got), len(wantCommitted))
			}
			for i := range got {
				if got[i] != wantCommitted[i] {
					t.Fatalf("granule %v version %d mismatch: %+v vs %+v", gid, i, got[i], wantCommitted[i])
				}
			}
			v1, ts1, ok1 := s.ReadCommittedBefore(gid, vclock.Infinity)
			v2, ts2, ok2 := r.ReadCommittedBefore(gid, vclock.Infinity)
			if ok1 != ok2 || ts1 != ts2 || !bytes.Equal(v1, v2) {
				t.Fatalf("granule %v latest mismatch", gid)
			}
		}
	}
	// The pending version did not survive.
	if v, _, ok := r.ReadCommittedBefore(g(0, 0), vclock.Infinity); ok && string(v) == "pending-must-vanish" {
		t.Fatal("pending version resurrected")
	}
	// The reloaded store writes the identical checkpoint.
	var again bytes.Buffer
	if _, err := r.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), encoded) {
		t.Fatal("re-encoding the reloaded store changed the checkpoint")
	}
}

// An empty store's checkpoint is the closing record alone, stamped 0.
func TestCheckpointEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if want := frames(wal.Record{Kind: wal.KindCommit}); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("empty checkpoint = %x, want %x", buf.Bytes(), want)
	}
	r, high, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if high != 0 || r.TotalVersions() != 0 {
		t.Fatalf("high=%d versions=%d", high, r.TotalVersions())
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	s := New()
	_ = s.InstallPending(g(0, 1), 10, []byte("x"))
	s.Commit(g(0, 1), 10)
	var buf bytes.Buffer
	if _, err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	for name, p := range map[string][]byte{
		"flipped byte": bad,
		"truncated":    good[:len(good)-6],
		"garbage":      []byte("NOTACKPTxxxxxxxxxxxx"),
		"empty":        nil,
	} {
		if _, _, err := ReadCheckpoint(bytes.NewReader(p)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The checked-in fuzz corpus holds inputs that must all be refused.
	corpus, err := filepath.Glob("testdata/fuzz/FuzzCheckpointDecode/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	for _, path := range corpus {
		if _, _, err := ReadCheckpoint(bytes.NewReader(corpusBytes(t, path))); err == nil {
			t.Errorf("corpus entry %s: accepted", filepath.Base(path))
		}
	}
}

// corpusBytes decodes a one-[]byte fuzz corpus file.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("%s: not a []byte corpus entry: %v", path, err)
	}
	return []byte(s)
}

// The largest value the wire accepts fits one checkpoint frame.
func TestCheckpointLargeValues(t *testing.T) {
	s := New()
	big := bytes.Repeat([]byte{7}, wire.MaxValue)
	_ = s.InstallPending(g(0, 1), 5, big)
	s.Commit(g(0, 1), 5)
	var buf bytes.Buffer
	if _, err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, _, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, _, ok := r.ReadCommittedBefore(g(0, 1), vclock.Infinity)
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("large value mangled")
	}
}

// A value longer than a frame carries is an error naming the granule and
// its size, not a panic; wal.MaxValue bytes still fit.
func TestCheckpointOversizedValueRefused(t *testing.T) {
	for _, n := range []int{wal.MaxValue, wal.MaxValue + 1, wal.MaxRecord} {
		s := New()
		_ = s.InstallPending(g(0, 1), 5, make([]byte, n))
		s.Commit(g(0, 1), 5)
		_, err := s.WriteCheckpoint(io.Discard)
		if n <= wal.MaxValue {
			if err != nil {
				t.Fatalf("%d-byte value: %v", n, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), g(0, 1).String()) || !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Fatalf("%d-byte value: err = %v, want one naming %v and the size", n, err, g(0, 1))
		}
	}
}

// A reloaded store must know which chains GC can shrink without ever
// having seen them commit: loading queues them.
func TestCheckpointLoadQueuesPrunableChains(t *testing.T) {
	s := New()
	for key := 0; key < 8; key++ {
		for i := 1; i <= 1+key%4; i++ { // chains of 1..4 versions
			ts := vclock.Time(key*10 + i)
			_ = s.InstallPending(g(0, key), ts, []byte{byte(key), byte(i)})
			s.Commit(g(0, key), ts)
		}
	}
	var buf bytes.Buffer
	if _, err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, _, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := s.GC(vclock.Infinity)
	if want == 0 {
		t.Fatal("the original store pruned nothing; the test is vacuous")
	}
	if got := r.GC(vclock.Infinity); got != want {
		t.Fatalf("reloaded store pruned %d versions, the original %d", got, want)
	}
	for key := 0; key < 8; key++ {
		if got, want := r.Versions(g(0, key)), s.Versions(g(0, key)); len(got) != 1 || got[0] != want[0] {
			t.Fatalf("granule %d after GC: %+v, want %+v", key, got, want)
		}
	}
}

// Writing a checkpoint allocates per store, not per version: a store of
// 400 versions costs what one of 4 does.
func TestCheckpointWriteAllocsPerStore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	allocs := func(versions int) float64 {
		s := New()
		for key := 0; key < 4; key++ {
			for i := 1; i <= versions; i++ {
				_ = s.InstallPending(g(0, key), vclock.Time(i), make([]byte, 64))
				s.Commit(g(0, key), vclock.Time(i))
			}
		}
		var buf bytes.Buffer
		buf.Grow(1 << 20)
		return testing.AllocsPerRun(20, func() {
			buf.Reset()
			if _, err := s.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(100); many > one {
		t.Fatalf("checkpoint of 400 versions made %.0f allocations, of 4 versions %.0f", many, one)
	}
}

// frames encodes recs back to back in the log's framing.
func frames(recs ...wal.Record) []byte {
	var p []byte
	for i := range recs {
		p = wal.AppendFrame(p, &recs[i])
	}
	return p
}

// write and closing are checkpoint records.
func write(seg, key int, ts vclock.Time, v string) wal.Record {
	gid := g(seg, key)
	return wal.Record{Kind: wal.KindWrite, Txn: ts, Seg: gid.Segment, Key: gid.Key, Value: []byte(v)}
}

func closing(high vclock.Time) wal.Record { return wal.Record{Kind: wal.KindCommit, Txn: high} }

// refused asserts that ReadCheckpoint refuses p at offset off with an
// error mentioning what.
func refused(t *testing.T, p []byte, off int, what string) {
	t.Helper()
	_, _, err := ReadCheckpoint(bytes.NewReader(p))
	if err == nil {
		t.Fatalf("accepted a checkpoint with %s", what)
	}
	if at := "at offset " + strconv.Itoa(off) + ":"; !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), what) {
		t.Fatalf("error %q does not name %q and %q", err, at, what)
	}
}

// One test per refusal: each shape WriteCheckpoint never produces is
// refused at the offset of the record that breaks it.

func TestCheckpointRefusesTornFrame(t *testing.T) {
	ok := frames(write(0, 1, 5, "a"), write(0, 2, 6, "b"), closing(6))
	second, last := len(frames(write(0, 1, 5, "a"))), len(ok)-len(frames(closing(6)))
	flipped := append([]byte(nil), ok...)
	flipped[second+10] ^= 0xff // inside the second frame's payload: its CRC fails
	refused(t, flipped, second, "torn or undecodable frame")
	refused(t, ok[:len(ok)-3], last, "torn or undecodable frame") // the closing frame cut short
}

func TestCheckpointRefusesMissingClosingRecord(t *testing.T) {
	body := frames(write(0, 1, 5, "a"))
	refused(t, body, len(body), "no closing record")
}

func TestCheckpointRefusesRecordAfterClosing(t *testing.T) {
	head := frames(write(0, 1, 5, "a"), closing(5))
	refused(t, append(head, frames(write(0, 2, 6, "b"))...), len(head), "follows the closing record")
}

// rawFrame frames payload as the log does, whatever its record kind.
func rawFrame(payload ...byte) []byte {
	p := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	p = binary.BigEndian.AppendUint32(p, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(p, payload...)
}

func TestCheckpointRefusesOtherKinds(t *testing.T) {
	head := frames(write(0, 1, 5, "a"))
	for _, r := range [][]byte{
		rawFrame(3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), // Abort: txn, seg, key
		rawFrame(4, 0, 0, 0, 0, 0, 0, 0, 5),                                     // Prune: watermark
	} {
		refused(t, append(append(append([]byte(nil), head...), r...), frames(closing(5))...), len(head), fmt.Sprintf("retired kind %d", r[8]))
	}
}

func TestCheckpointRefusesWrongHighWater(t *testing.T) {
	head := frames(write(0, 1, 5, "a"), write(0, 2, 9, "b"))
	for _, high := range []vclock.Time{5, 10} {
		refused(t, append(append([]byte(nil), head...), frames(closing(high))...), len(head), "largest timestamp is 9")
	}
}

func TestCheckpointRefusesOutOfOrder(t *testing.T) {
	w := len(frames(write(0, 1, 5, "a"))) // every write below frames to w bytes
	for _, c := range []struct {
		name string
		p    []byte
		off  int
	}{
		{"version repeated", frames(write(0, 1, 5, "a"), write(0, 1, 5, "b"), closing(5)), w},
		{"versions descending", frames(write(0, 1, 5, "a"), write(0, 1, 4, "b"), closing(5)), w},
		{"keys descending", frames(write(0, 2, 5, "a"), write(0, 1, 6, "b"), closing(6)), w},
		{"segments descending", frames(write(1, 1, 5, "a"), write(0, 1, 6, "b"), closing(6)), w},
		{"granule listed twice", frames(write(0, 1, 5, "a"), write(0, 2, 6, "b"), write(0, 1, 7, "c"), closing(7)), 2 * w},
	} {
		t.Run(c.name, func(t *testing.T) { refused(t, c.p, c.off, "does not follow") })
	}
}

func TestCheckpointRefusesEmptyFile(t *testing.T) {
	refused(t, nil, 0, "no closing record")
}
