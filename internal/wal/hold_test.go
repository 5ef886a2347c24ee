package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdd/internal/vclock"
	"hdd/internal/vfs"
)

// The hold's behaviour under load, driven in real time over a file whose
// Sync takes a fixed time: smoke tests that Log wires sched in as the
// device model drives it (model_test.go, which asserts the same bounds
// exactly, with no clock). The benchmark's shape — a 1.2 ms fsync,
// committers back well inside half of it, a Write ahead of its Commit —
// is kept at ten times the scale (holdSync): a mostly idle Go process
// keeps no delay finer than a millisecond, and the decision depends only
// on the ratios.

const holdSync = 12 * time.Millisecond

// slowSyncFS is the real filesystem with every Sync replaced by a sleep,
// so a flush takes the same time on any disk.
type slowSyncFS struct {
	vfs.FS
	d     time.Duration
	syncs atomic.Int64
}

func (fs *slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, fs: fs}, nil
}

type slowSyncFile struct {
	vfs.File
	fs *slowSyncFS
}

func (f *slowSyncFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(f.fs.d)
	return nil
}

// flushLog records what OnFlush reports.
type flushLog struct {
	mu sync.Mutex
	fl []Flush
}

func (r *flushLog) record(f Flush) {
	r.mu.Lock()
	r.fl = append(r.fl, f)
	r.mu.Unlock()
}

func (r *flushLog) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fl)
}

func (r *flushLog) from(i int) []Flush {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Flush(nil), r.fl[i:]...)
}

// waitFlushes blocks until n flushes have been recorded.
func (r *flushLog) waitFlushes(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for r.len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d flushes after 30 s", r.len(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func openHoldLog(t *testing.T, opts Options) (*Log, *slowSyncFS, *flushLog) {
	t.Helper()
	fs := &slowSyncFS{FS: vfs.OS{}, d: holdSync}
	rec := &flushLog{}
	opts.FS, opts.OnFlush = fs, rec.record
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, fs, rec
}

// cohort is a set of closed-loop committers shaped like networked
// clients: acknowledged, each thinks for 2 or 3 ms, logs its Write, and
// commits a millisecond later (a sleep overshoots by a tenth of a
// millisecond or so). A committer runs while its gate is open.
type cohort struct {
	l     *Log
	gates []atomic.Bool
	stop  atomic.Bool
	wg    sync.WaitGroup
	next  atomic.Int64
}

func startCohort(l *Log, n int) *cohort {
	c := &cohort{l: l, gates: make([]atomic.Bool, n)}
	for i := range c.gates {
		c.gates[i].Store(true)
		c.wg.Add(1)
		go c.run(i)
	}
	return c
}

func (c *cohort) run(i int) {
	defer c.wg.Done()
	rng := rand.New(rand.NewSource(int64(i) + 1))
	for !c.stop.Load() {
		if !c.gates[i].Load() {
			time.Sleep(time.Millisecond)
			continue
		}
		time.Sleep(time.Duration(2+rng.Intn(2)) * time.Millisecond)
		ts := vclock.Time(c.next.Add(1))
		c.l.Append(&Record{Kind: KindWrite, Txn: ts, Seg: 0, Key: uint64(i), Value: []byte("v")})
		time.Sleep(time.Millisecond)
		c.l.Commit(commitRecord(ts))()
	}
}

func (c *cohort) halt() {
	c.stop.Store(true)
	c.wg.Wait()
}

// describe renders flushes as waiters/outcome/held for failure messages.
func describe(fl []Flush) string {
	var b []byte
	for _, f := range fl {
		b = fmt.Appendf(b, "%d/%c/%v ", f.Waiters, "nre"[f.Hold], f.Held.Round(100*time.Microsecond))
	}
	return string(b)
}

// full counts the flushes among fl that acknowledged at least n commit
// markers.
func full(fl []Flush, n int) int {
	k := 0
	for _, f := range fl {
		if f.Waiters >= n {
			k++
		}
	}
	return k
}

// TestLoneCommitterPaysOneSync: a transaction's Write must not start a
// flush of its own that the commit marker behind it then has to wait out.
func TestLoneCommitterPaysOneSync(t *testing.T) {
	l, fs, _ := openHoldLog(t, Options{})
	if err := l.Append(&Record{Kind: KindWrite, Txn: 1, Seg: 0, Key: 1, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(holdSync * 15 / 100)
	start := time.Now()
	if err := l.Commit(commitRecord(1))(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > holdSync*3/2 {
		t.Errorf("commit acknowledged after %v, want within 1.5 syncs of %v", took, holdSync)
	}
	if n := fs.syncs.Load(); n != 1 {
		t.Errorf("%d syncs for one write and its commit, want 1", n)
	}
}

// TestHoldCohortSharesOneSync: eight closed-loop committers whose
// turnaround is half a flush settle into one cohort per fsync.
func TestHoldCohortSharesOneSync(t *testing.T) {
	l, _, rec := openHoldLog(t, Options{})
	c := startCohort(l, 8)
	rec.waitFlushes(t, 40)
	c.halt()
	fl := rec.from(15)[:25]
	var waiters int
	for _, f := range fl {
		waiters += f.Waiters
	}
	if per := float64(waiters) / float64(len(fl)); per < 7 {
		t.Errorf("%.2f commit waiters per sync in steady state, want >= 7", per)
	}
}

// TestHoldMergesForcedSplit: a cohort forced into two alternating halves
// — the state the window it replaces could not leave — is one cohort
// again within five flushes, and stays one.
func TestHoldMergesForcedSplit(t *testing.T) {
	l, fs, rec := openHoldLog(t, Options{})
	c := startCohort(l, 8)
	defer c.halt()
	rec.waitFlushes(t, 20)
	// Take four committers out, let the log's estimates settle on the four
	// that remain, and bring them back while a batch of those is inside
	// its fsync: they land in the next batch, an even split.
	for i := 4; i < 8; i++ {
		c.gates[i].Store(false)
	}
	rec.waitFlushes(t, rec.len()+12)
	for n := fs.syncs.Load(); fs.syncs.Load() == n; {
		time.Sleep(100 * time.Microsecond)
	}
	split := rec.len()
	for i := 4; i < 8; i++ {
		c.gates[i].Store(true)
	}
	rec.waitFlushes(t, split+30)
	after := rec.from(split)
	merged := -1
	for i, f := range after {
		if f.Waiters == 8 {
			merged = i
			break
		}
	}
	// The first flush after the split may still be the running half's own.
	if merged < 0 || merged > 6 {
		t.Fatalf("split cohort first shared an fsync at flush %d after the split, want within 5 of both halves committing: %s", merged, describe(after))
	}
	if k := full(after[merged:merged+20], 8); k < 16 {
		t.Errorf("%d of the 20 flushes after the merge carried the whole cohort, want >= 16", k)
	}
}

// TestHoldAbsentCommitterCostsOnce: when one of the cohort stops coming
// back, the others wait for it once — at most one flush time — and not
// again. The flush time a hold is bounded by is the measured duration of
// the flush before it, not holdSync: a sleep overshoots, by half again
// under the race detector.
func TestHoldAbsentCommitterCostsOnce(t *testing.T) {
	l, _, rec := openHoldLog(t, Options{})
	c := startCohort(l, 8)
	defer c.halt()
	rec.waitFlushes(t, 20)
	c.gates[7].Store(false)
	gone := rec.len() + 1 // its commit may already be in the open batch
	rec.waitFlushes(t, gone+20)
	fl := rec.from(gone - 1)[:21]
	after := fl[1:]
	var expired int
	for i, f := range after {
		if f.Hold == HoldExpired {
			expired++
			if prev := fl[i].Sync; f.Held > prev*11/10 {
				t.Errorf("a hold for the absent committer lasted %v, want at most the flush before it (%v)", f.Held, prev)
			}
		}
	}
	if expired > 2 {
		t.Errorf("%d holds ran to their bound after one committer left, want it to cost once", expired)
	}
	if k := full(after[4:], 7); k < 12 {
		t.Errorf("%d of 16 later flushes carried the seven that remain, want >= 12: %s", k, describe(after))
	}
}

// TestHoldIdleLogFlushesNextMarkerAtOnce: committers that were due and
// never returned must not delay a commit that arrives long after.
func TestHoldIdleLogFlushesNextMarkerAtOnce(t *testing.T) {
	l, _, rec := openHoldLog(t, Options{})
	c := startCohort(l, 8)
	rec.waitFlushes(t, 20)
	c.halt()
	time.Sleep(3 * holdSync)
	n := rec.len()
	start := time.Now()
	if err := l.Commit(commitRecord(1 << 40))(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if f := rec.from(n)[0]; f.Hold != HoldNone || took > holdSync*3/2 {
		t.Errorf("commit on an idle log: hold outcome %d, acknowledged after %v; want no hold and one sync (%v)", f.Hold, took, holdSync)
	}
}

// TestHoldLeavesPoissonArrivalsAlone: open-loop commits at three per
// flush are acknowledged as soon as if every batch were flushed the moment
// the flusher is free — the schedule replayed through that rule with the
// measured flush time is the reference.
func TestHoldLeavesPoissonArrivalsAlone(t *testing.T) {
	l, _, rec := openHoldLog(t, Options{})
	const n = 450
	rng := rand.New(rand.NewSource(24))
	arrived := make([]time.Duration, n)
	latency := make([]time.Duration, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	var due time.Duration
	for i := 0; i < n; i++ {
		due += time.Duration(rng.ExpFloat64() * float64(holdSync) / 3)
		time.Sleep(time.Until(t0.Add(due)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			arrived[i] = start.Sub(t0)
			if err := l.Commit(commitRecord(vclock.Time(i + 1)))(); err != nil {
				t.Error(err)
			}
			latency[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	var sync time.Duration
	fl := rec.from(0)
	for _, f := range fl {
		sync += f.Sync
	}
	sync /= time.Duration(len(fl))

	sort.Slice(arrived, func(i, j int) bool { return arrived[i] < arrived[j] })
	var got, want, free time.Duration
	for i := 0; i < n; {
		start := max(free, arrived[i])
		free = start + sync
		for ; i < n && arrived[i] <= start; i++ {
			want += free - arrived[i]
		}
	}
	for _, d := range latency {
		got += d
	}
	got, want = got/n, want/n
	if got > want*11/10 {
		t.Errorf("mean commit latency %v under Poisson arrivals, want within 10%% of flush-as-soon-as-possible (%v)", got, want)
	}
	var held int
	for _, f := range fl {
		if f.Hold != HoldNone {
			held++
		}
	}
	t.Logf("mean latency %v, reference %v, %d of %d flushes held", got, want, held, len(fl))
}

// TestOpenLoopCommitWaitsOneFlush: a commit arriving on its own is
// flushed beside the flush in flight, not behind it, so open-loop commits
// at three per flush time are acknowledged about one flush after they
// arrive. A single flusher makes each wait out the rest of the flush in
// flight too, near twice that.
func TestOpenLoopCommitWaitsOneFlush(t *testing.T) {
	l, _, rec := openHoldLog(t, Options{})
	const n = 300
	rng := rand.New(rand.NewSource(35))
	latency := make([]time.Duration, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	var due time.Duration
	for i := 0; i < n; i++ {
		due += time.Duration(rng.ExpFloat64() * float64(holdSync) / 3)
		time.Sleep(time.Until(t0.Add(due)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			if err := l.Commit(commitRecord(vclock.Time(i + 1)))(); err != nil {
				t.Error(err)
			}
			latency[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	var flush, mean time.Duration
	fl := rec.from(0)
	var overlapped int
	for _, f := range fl {
		flush += f.Sync
		if f.InFlight > 0 {
			overlapped++
		}
	}
	flush /= time.Duration(len(fl))
	for _, d := range latency {
		mean += d
	}
	mean /= n
	if mean > flush*13/10 {
		t.Errorf("mean commit latency %v under Poisson arrivals, want at most 1.3 flush times (%v)", mean, flush)
	}
	t.Logf("mean latency %v, flush %v, %d commits in %d flushes, %d started beside another", mean, flush, n, len(fl), overlapped)
}
