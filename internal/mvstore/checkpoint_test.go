package mvstore

import (
	"bytes"
	"strings"
	"testing"

	"hdd/internal/vclock"
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
	if high < 123 {
		t.Fatalf("high = %d", high)
	}

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
				if got[i].TS != wantCommitted[i].TS || got[i].Len != wantCommitted[i].Len {
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
}

func TestCheckpointEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
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

	// Flip a payload byte.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	if _, _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("corruption not detected")
	}
	// Truncate.
	if _, _, err := ReadCheckpoint(bytes.NewReader(good[:len(good)-6])); err == nil {
		t.Fatal("truncation not detected")
	}
	// Garbage magic (fix the checksum so magic is what fails... easier:
	// whole-garbage input fails either way).
	if _, _, err := ReadCheckpoint(strings.NewReader("NOTACKPTxxxxxxxxxxxx")); err == nil {
		t.Fatal("bad magic not detected")
	}
	// Empty input.
	if _, _, err := ReadCheckpoint(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestCheckpointLargeValues(t *testing.T) {
	s := New()
	big := bytes.Repeat([]byte{7}, 1<<16)
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
