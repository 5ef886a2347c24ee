package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdd/internal/vclock"
	"hdd/internal/vfs"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindWrite, Txn: 7, Seg: 3, Key: 42, Value: []byte("hello")},
		{Kind: KindWrite, Txn: 7, Seg: 0, Key: 0, Value: nil},
		{Kind: KindCommit, Txn: 7},
	}
}

// noSync makes every fsync the log issues return at once: slowSyncFS with
// no delay wraps each file OpenFile hands out, so the syncers' read-only
// descriptors too.
func noSync() Options { return Options{FS: &slowSyncFS{FS: vfs.OS{}}} }

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		payload := AppendRecord(nil, &r)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("DecodeRecord(%v): %v", r.Kind, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip %v: got %+v, want %+v", r.Kind, got, r)
		}
		re := AppendRecord(nil, &got)
		if !bytes.Equal(re, payload) {
			t.Errorf("%v: re-encode differs from original payload", r.Kind)
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	commit := AppendRecord(nil, &Record{Kind: KindCommit, Txn: 1})
	cases := map[string][]byte{
		"empty":          nil,
		"unknown kind":   {99, 0, 0},
		"truncated":      commit[:len(commit)-1],
		"trailing bytes": append(append([]byte(nil), commit...), 0),
		"short write":    {byte(KindWrite), 1, 2, 3},
		"value length mismatch": func() []byte {
			p := AppendRecord(nil, &Record{Kind: KindWrite, Txn: 1, Seg: 1, Key: 1, Value: []byte("ab")})
			return p[:len(p)-1]
		}(),
	}
	for name, p := range cases {
		if _, err := DecodeRecord(p); err == nil {
			t.Errorf("%s: DecodeRecord accepted invalid payload", name)
		}
	}
}

// appendAll writes records through a fresh log, syncs the ones no commit
// marker follows (Close would drop them), and returns the file path.
func appendAll(t *testing.T, recs []Record, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i].Kind == KindCommit {
			if err := l.Commit(&recs[i])(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		} else if err := l.Append(&recs[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

func replayFile(t *testing.T, path string) (recs []Record, valid int64, torn bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	valid, n, torn, err := Replay(f, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if int(n) != len(recs) {
		t.Fatalf("Replay reported %d records, applied %d", n, len(recs))
	}
	return recs, valid, torn
}

func TestLogAppendReplay(t *testing.T) {
	want := sampleRecords()
	path := appendAll(t, want, noSync())
	got, valid, torn := replayFile(t, path)
	if torn {
		t.Error("clean log reported torn")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if valid != fi.Size() {
		t.Errorf("valid offset %d != file size %d", valid, fi.Size())
	}
}

func TestTornTailTruncatesCleanly(t *testing.T) {
	want := sampleRecords()
	path := appendAll(t, want, noSync())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sever the file at every possible byte boundary inside the last
	// record; replay must recover exactly the prefix records, report torn
	// (except at the clean boundary), and never error.
	recs, _, _ := replayFile(t, path)
	if len(recs) != len(want) {
		t.Fatalf("setup: replayed %d records, want %d", len(recs), len(want))
	}
	for cut := 0; cut <= len(whole); cut++ {
		torn := os.WriteFile(path, whole[:cut], 0o644)
		if torn != nil {
			t.Fatal(torn)
		}
		got, valid, tornFlag := replayFile(t, path)
		if valid > int64(cut) {
			t.Fatalf("cut %d: valid offset %d beyond file size", cut, valid)
		}
		// torn is reported exactly when the cut is not a frame boundary.
		if wantTorn := !containsBoundary(whole, cut); tornFlag != wantTorn {
			t.Fatalf("cut %d: torn = %v, want %v", cut, tornFlag, wantTorn)
		}
		// Re-open at the valid offset and confirm the truncated file
		// replays clean with the same records.
		l, err := Open(path, valid, noSync())
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		got2, valid2, torn2 := replayFile(t, path)
		if torn2 {
			t.Fatalf("cut %d: truncated log still torn", cut)
		}
		if valid2 != valid {
			t.Fatalf("cut %d: valid offset changed %d -> %d after truncate", cut, valid, valid2)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("cut %d: records changed after truncate", cut)
		}
	}
}

// containsBoundary reports whether offset cut is a frame boundary of the
// encoded stream.
func containsBoundary(stream []byte, cut int) bool {
	off := 0
	for off < len(stream) {
		if off == cut {
			return true
		}
		n := int(uint32(stream[off])<<24 | uint32(stream[off+1])<<16 | uint32(stream[off+2])<<8 | uint32(stream[off+3]))
		off += frameHeader + n
	}
	return off == cut
}

func TestCorruptCRCEndsReplay(t *testing.T) {
	want := sampleRecords()
	path := appendAll(t, want, noSync())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record: replay keeps everything
	// before it and reports torn.
	var off int
	for i := 0; i < 2; i++ {
		n := int(uint32(whole[off])<<24 | uint32(whole[off+1])<<16 | uint32(whole[off+2])<<8 | uint32(whole[off+3]))
		off += frameHeader + n
	}
	corrupt := append([]byte(nil), whole...)
	corrupt[off+frameHeader] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	got, valid, torn := replayFile(t, path)
	if !torn {
		t.Error("corrupt CRC not reported as torn")
	}
	if valid != int64(off) {
		t.Errorf("valid offset %d, want %d", valid, off)
	}
	if !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("replayed %+v, want prefix %+v", got, want[:2])
	}
}

// TestGroupCommitBatches: concurrent commits over a slow fsync share
// flushes — those arriving while one is in flight pile into the next.
func TestGroupCommitBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, -1, Options{FS: &slowSyncFS{FS: vfs.OS{}, d: holdSync}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Commit(&Record{Kind: KindCommit, Txn: vclock.Time(i + 1)})()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Records != n {
		t.Errorf("Records = %d, want %d", st.Records, n)
	}
	if st.Batches >= n {
		t.Errorf("Batches = %d: group commit did not batch %d concurrent commits", st.Batches, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn := replayFile(t, path)
	if torn || len(recs) != n {
		t.Errorf("replayed %d records (torn=%v), want %d clean", len(recs), torn, n)
	}
}

// TestHoldWorth pins the group-commit decision on the cases it has to get
// right, at the benchmark's measured figures where they matter: a 1.2 ms
// flush and networked committers back 0.55 ms after their acknowledgement.
func TestHoldWorth(t *testing.T) {
	const (
		us    = time.Microsecond
		flush = 1200 * us
		back  = 550 * us
	)
	for _, c := range []struct {
		name             string
		b, r             int
		w, s, since, ret time.Duration
		want             bool
	}{
		{"lone committer: nobody is due when its marker arrives", 1, 0, 0, flush, 600 * us, back, false},
		{"nobody due, others waiting", 5, 0, 100 * us, flush, 450 * us, back, false},
		{"no estimate yet", 4, 4, 0, flush, 0, 0, false},
		{"return takes a whole flush", 3, 4, flush, flush, 0, flush, false},
		{"return takes longer than a flush", 1, 7, 2 * flush, flush, 0, 2 * flush, false},
		{"4+4 split merges", 4, 4, back, flush, 0, back, true},
		{"3 waiting, 5 due", 3, 5, back, flush, 0, back, true},
		{"5 waiting, 3 due", 5, 3, back, flush, 0, back, false},
		{"1 waiting, 7 due", 1, 7, back, flush, 0, back, true},
		{"7 waiting, 1 due half a flush away", 7, 1, back, flush, 0, back, false},
		{"7 waiting, 1 due any moment", 7, 1, 50 * us, flush, 500 * us, back, true},
		{"merged cohort: first marker back, seven behind it", 1, 7, 0, flush, 560 * us, back, true},
		{"overdue committers cost nothing more to wait for", 7, 1, 0, flush, 900 * us, back, true},
		{"bound reached: twice the estimate", 7, 1, 0, flush, 2 * back, back, false},
		{"bound reached: one flush time", 7, 1, 0, flush, flush, 900 * us, false},
		{"fast device: the return outlasts the flush", 4, 4, back, 50 * us, 0, back, false},
		{"in-process committers re-form", 1, 7, 10 * us, 130 * us, 5 * us, 15 * us, true},
	} {
		if got := holdWorth(c.b, c.r, c.w, c.s, c.since, c.ret); got != c.want {
			t.Errorf("%s: holdWorth(b=%d, r=%d, w=%v, s=%v, since=%v, ret=%v) = %v, want %v",
				c.name, c.b, c.r, c.w, c.s, c.since, c.ret, got, c.want)
		}
	}
}

// TestAdvisoryRecordsNeverSyncAlone: a committer's write records never
// start an fsync of their own; they ride its commit marker's flush, which
// pays exactly one. A write no marker follows is dropped at Close.
func TestAdvisoryRecordsNeverSyncAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1); key <= 2; key++ {
		if err := l.Append(&Record{Kind: KindWrite, Txn: 1, Seg: 0, Key: key, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // room for a flush that must not happen
	if st := l.Stats(); st.Syncs != 0 || st.FlushedBytes != 0 {
		t.Errorf("Syncs = %d, FlushedBytes = %d after advisory appends, want 0 (must buffer)", st.Syncs, st.FlushedBytes)
	}
	if err := l.Commit(&Record{Kind: KindCommit, Txn: 1})(); err != nil {
		t.Fatalf("commit wait: %v", err)
	}
	if st := l.Stats(); st.Syncs != 1 || st.FlushedBytes != st.AppendedBytes {
		t.Errorf("Syncs = %d, %d of %d bytes flushed after the commit, want 1 sync carrying all", st.Syncs, st.FlushedBytes, st.AppendedBytes)
	}
	if err := l.Append(&Record{Kind: KindWrite, Txn: 2, Seg: 0, Key: 3, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn := replayFile(t, path)
	if torn || len(recs) != 3 || recs[2].Kind != KindCommit {
		t.Errorf("replayed %+v (torn=%v), want the two writes and their commit, clean", recs, torn)
	}
}

func TestResetDoesNotTearLogHead(t *testing.T) {
	// Appends racing Reset must never interleave a buffer flush
	// with the truncate: a zero-filled hole at the head of the log would
	// decode as a torn tail at offset 0 and discard everything after it.
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, -1, noSync())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					l.Append(&Record{Kind: KindWrite, Txn: 1, Key: 1, Value: []byte("v")})
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if err := l.Reset(); err != nil {
			t.Fatalf("Reset %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn := replayFile(t, path)
	if torn {
		t.Fatal("log torn after Reset raced concurrent appends")
	}
	for _, r := range recs {
		if r.Kind != KindWrite || r.Txn != 1 || r.Key != 1 || string(r.Value) != "v" {
			t.Fatalf("corrupt record survived Reset race: %+v", r)
		}
	}
}

func TestResetTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, -1, noSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(&Record{Kind: KindCommit, Txn: 1})(); err != nil {
		t.Fatal(err)
	}
	if l.Size() == 0 {
		t.Fatal("Size 0 after append")
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := l.Size(); got != 0 {
		t.Errorf("Size = %d after Reset, want 0", got)
	}
	// The log stays usable after Reset.
	if err := l.Commit(&Record{Kind: KindCommit, Txn: 2})(); err != nil {
		t.Fatalf("commit after Reset: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn := replayFile(t, path)
	if torn || len(recs) != 1 || recs[0].Txn != 2 {
		t.Errorf("after Reset replayed %+v (torn=%v), want single commit txn 2", recs, torn)
	}
	if st := l.Stats(); st.Resets != 1 {
		t.Errorf("Resets = %d, want 1", st.Resets)
	}
}

func TestClosedLogDropsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, -1, noSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindWrite, Txn: 1, Key: 1}); err != ErrClosed {
		t.Errorf("Append after Close: err = %v, want ErrClosed", err)
	}
	if err := l.Commit(&Record{Kind: KindCommit, Txn: 1})(); err != ErrClosed {
		t.Errorf("Commit after Close: err = %v, want ErrClosed", err)
	}
	if st := l.Stats(); st.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", st.Dropped)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	want := sampleRecords()
	path := appendAll(t, want, noSync())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the final frame, then do what recovery does:
	// replay, then Open at the reported valid offset and append more.
	if err := os.WriteFile(path, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, valid, torn := replayFile(t, path)
	if !torn {
		t.Fatal("torn tail not detected")
	}
	l, err := Open(path, valid, noSync())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(&Record{Kind: KindCommit, Txn: 99})(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn2 := replayFile(t, path)
	if torn2 {
		t.Error("log torn after truncate+append")
	}
	wantN := len(want) - 1 + 1 // lost the severed final record, gained txn 99
	if len(recs) != wantN || recs[len(recs)-1].Txn != 99 {
		t.Errorf("replayed %d records ending %+v, want %d ending txn 99", len(recs), recs[len(recs)-1], wantN)
	}
}

// TestCommitAllocsUnderOverlap: with commits arriving scattered enough
// that flushes overlap, a flush allocates one wait function its commits
// share and nothing else: no flush slot, goroutine, channel, buffer or
// hold timer. A single flusher allocated a batch and its done channel per
// flush and a wait function per commit. The bound leaves room for the
// test's own committer goroutines starting.
func TestCommitAllocsUnderOverlap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const syncTime = 2 * time.Millisecond
	var overlapped atomic.Int64
	l, err := Open(filepath.Join(t.TempDir(), "wal"), -1, Options{
		FS:      &slowSyncFS{FS: vfs.OS{}, d: syncTime},
		OnFlush: func(f Flush) { overlapped.Add(int64(min(f.InFlight, 1))) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const committers, rounds = 4, 150
	recs := make([]Record, committers)
	rngs := make([]*rand.Rand, committers)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	var wg sync.WaitGroup
	run := func() {
		wg.Add(committers)
		for i := 0; i < committers; i++ {
			go func(r *Record, rng *rand.Rand) {
				defer wg.Done()
				for k := 0; k < rounds; k++ {
					time.Sleep(time.Duration(rng.Int63n(int64(2 * syncTime))))
					r.Kind, r.Txn = KindCommit, r.Txn+1
					if err := l.Commit(r)(); err != nil {
						t.Error(err)
						return
					}
				}
			}(&recs[i], rngs[i])
		}
		wg.Wait()
	}
	run() // warm-up: buffers and goroutine timers
	var m0, m1 runtime.MemStats
	b0, o0 := l.Stats().Batches, overlapped.Load()
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	batches := l.Stats().Batches - b0
	perFlush := float64(m1.Mallocs-m0.Mallocs) / float64(batches)
	t.Logf("%d commits, %d flushes, %d beside another: %.2f allocations per flush",
		committers*rounds, batches, overlapped.Load()-o0, perFlush)
	if o := overlapped.Load() - o0; o < batches/10 {
		t.Fatalf("only %d of %d flushes started beside another; the test needs overlap", o, batches)
	}
	if perFlush > 1.25 {
		t.Errorf("%.2f allocations per flush, want the one shared wait function", perFlush)
	}
}

// TestReplayRefusesRetiredKinds: a CRC-valid frame of kind 3 or 4 is
// refused with its kind and offset, not read as a torn tail, which would
// truncate every commit after it.
func TestReplayRefusesRetiredKinds(t *testing.T) {
	for _, kind := range []byte{3, 4} {
		head := AppendFrame(nil, &Record{Kind: KindWrite, Txn: 1, Key: 1, Value: []byte("v")})
		head = AppendFrame(head, &Record{Kind: KindCommit, Txn: 1})
		p := append([]byte{kind}, make([]byte, 8)...)
		log := binary.BigEndian.AppendUint32(append([]byte(nil), head...), uint32(len(p)))
		log = binary.BigEndian.AppendUint32(log, crc32.Checksum(p, crcTable))
		log = AppendFrame(append(log, p...), &Record{Kind: KindCommit, Txn: 2})
		valid, n, torn, err := Replay(bytes.NewReader(log), func(Record) error { return nil })
		want := fmt.Sprintf("retired kind %d at offset %d", kind, len(head))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("kind %d: Replay error %v, want one naming %q", kind, err, want)
		}
		if torn || valid != int64(len(head)) || n != 2 {
			t.Errorf("kind %d: valid %d, records %d, torn %v; want %d, 2, false", kind, valid, n, torn, len(head))
		}
	}
}
