package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/obs"
)

func scrapeObs(p *obs.Plane) string {
	var b strings.Builder
	p.Reg.WritePrometheus(&b)
	return b.String()
}

func wantSeries(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

func eventKinds(p *obs.Plane) map[string]int {
	kinds := make(map[string]int)
	for _, ev := range p.Events.Snapshot(0) {
		kinds[ev.Kind.String()]++
	}
	return kinds
}

// TestEngineObsMetrics drives every transaction flavor through an
// instrumented engine and checks the per-class and per-protocol series.
func TestEngineObsMetrics(t *testing.T) {
	part := twoLevel(t)
	plane := obs.NewPlane()
	e, err := NewEngine(Config{Partition: part, WallInterval: 2, GCEveryCommits: 2, Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Class 0 update: Protocol B own-root read + write + commit.
	t0, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	write(t, t0, gr(0, 1), "a")
	mustCommit(t, t0)
	t0b, _ := e.Begin(0)
	read(t, t0b, gr(0, 1)) // Protocol B
	mustCommit(t, t0b)

	// Class 1 update: Protocol A cross-class read, then abort.
	t1, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Read(gr(0, 1)); err != nil { // Protocol A (value may be below threshold)
		t.Fatal(err)
	}
	t1.Abort()

	// Protocol C wall reader and an A-path reader.
	ro, err := e.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Read(gr(0, 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ro)
	pro, err := e.BeginReadOnlyOnPath(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pro.Read(gr(0, 1)); err != nil {
		t.Fatal(err)
	}
	pro.Abort()

	// Class 1 update that commits: Protocol A read + own-root write.
	t1b, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1b.Read(gr(0, 1)); err != nil {
		t.Fatal(err)
	}
	write(t, t1b, gr(1, 1), "b")
	mustCommit(t, t1b)

	out := scrapeObs(plane)
	wantSeries(t, out,
		`hdd_txn_begins_total{class="0"} 2`,
		`hdd_txn_commits_total{class="0"} 2`,
		`hdd_txn_begins_total{class="1"} 2`,
		`hdd_txn_commits_total{class="1"} 1`,
		`hdd_txn_aborts_total{class="1"} 1`,
		`hdd_txn_begins_total{class="ro"} 2`,
		`hdd_txn_commits_total{class="ro"} 1`,
		`hdd_txn_aborts_total{class="ro"} 1`,
		`hdd_reads_total{protocol="A"} 2`,
		`hdd_reads_total{protocol="A-path"} 1`,
		`hdd_reads_total{protocol="B"} 1`,
		`hdd_reads_total{protocol="C"} 1`,
		`hdd_active_txns 0`,
		`hdd_durability_degraded 0`,
	)
	// Scrape-time families over existing engine state.
	for _, name := range []string{
		"hdd_wall_releases_total", "hdd_wall_attempts_total",
		"hdd_gc_runs_total", "hdd_gc_pruned_versions_total", "hdd_gc_chains_visited_total",
		"hdd_read_registrations_total", "hdd_reaped_txns_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("family %s not registered", name)
		}
	}

	kinds := eventKinds(plane)
	if kinds["begin-window"] == 0 {
		t.Errorf("no begin-window events; kinds = %v", kinds)
	}
	if kinds["wall-release"] == 0 {
		t.Errorf("no wall-release events; kinds = %v", kinds)
	}
	if kinds["gc-prune"] == 0 {
		t.Errorf("no gc-prune events; kinds = %v", kinds)
	}
}

// TestGCVisitsOnlyWrittenChains checks what a GC cycle reports about its own
// cost: the gc-prune event's visited field and hdd_gc_chains_visited_total
// count the chains written since the last cycle, not the chains stored.
func TestGCVisitsOnlyWrittenChains(t *testing.T) {
	plane := obs.NewPlane()
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 1, Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const stored, rewritten = 200, 3
	load, _ := e.Begin(0)
	for k := 0; k < stored; k++ {
		write(t, load, gr(0, k), "v0")
	}
	mustCommit(t, load)
	e.ForceGC()
	for k := 0; k < rewritten; k++ {
		txn, _ := e.Begin(0)
		write(t, txn, gr(0, k), "v1")
		mustCommit(t, txn)
	}
	e.ForceGC()

	var visited []int64
	for _, ev := range plane.Events.Snapshot(0) {
		if ev.Kind == obs.KindGCPrune {
			visited = append(visited, ev.F3)
		}
	}
	if len(visited) != 2 || visited[0] != 0 || visited[1] != rewritten {
		t.Errorf("gc-prune events visited %v chains, want [0 %d] of %d stored", visited, rewritten, stored)
	}
	wantSeries(t, scrapeObs(plane), fmt.Sprintf("hdd_gc_chains_visited_total %d", rewritten))
}

// TestEngineObsDurable checks the WAL families and the flush/snapshot
// trace events on a durable instrumented engine.
func TestEngineObsDurable(t *testing.T) {
	part := twoLevel(t)
	plane := obs.NewPlane()
	e, err := NewEngine(Config{
		Partition:     part,
		WallInterval:  8,
		DataDir:       t.TempDir(),
		SnapshotBytes: -1,
		Obs:           plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 5; i++ {
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		write(t, txn, gr(0, i), "v")
		mustCommit(t, txn)
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}

	out := scrapeObs(plane)
	for _, name := range []string{
		"hdd_wal_fsync_seconds", "hdd_wal_records_total",
		"hdd_wal_flush_batches_total", "hdd_wal_syncs_total",
		"hdd_wal_log_bytes", "hdd_wal_snapshots_total",
		"hdd_wal_hold_total", "hdd_wal_hold_commits_total", "hdd_wal_hold_seconds",
		"hdd_wal_commit_waiters", "hdd_wal_return_seconds",
		"hdd_wal_flushes_in_flight",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("family %s not registered", name)
		}
	}
	wantSeries(t, out, "hdd_wal_snapshots_total 1")
	if strings.Contains(out, "hdd_wal_fsync_seconds_count 0\n") {
		t.Error("fsync histogram recorded nothing despite durable commits")
	}
	// One committer at a time: every batch acknowledges one marker and is
	// flushed without a hold, and none beside another.
	wantSeries(t, out, `hdd_wal_commit_waiters{quantile="0.5"} 1`)
	wantSeries(t, out, `hdd_wal_flushes_in_flight{quantile="0.99"} 0`)
	wantSeries(t, out, `hdd_wal_hold_total{outcome="ready"} 0`)
	wantSeries(t, out, `hdd_wal_hold_total{outcome="expired"} 0`)
	wantSeries(t, out, `hdd_wal_hold_commits_total{outcome="none"} 5`)
	wantSeries(t, out, `hdd_wal_hold_commits_total{outcome="expired"} 0`)
	wantSeries(t, out, "hdd_wal_hold_seconds_count 0")

	kinds := eventKinds(plane)
	if kinds["wal-flush"] == 0 {
		t.Errorf("no wal-flush events; kinds = %v", kinds)
	}
	if kinds["snapshot"] != 1 {
		t.Errorf("snapshot events = %d, want 1; kinds = %v", kinds["snapshot"], kinds)
	}
}

// TestEngineObsNilPlane: an engine counts the same events with or without
// a plane; the plane only exposes them.
func TestEngineObsNilPlane(t *testing.T) {
	want := cc.Stats{Begins: 2, Commits: 2, Reads: 1, Writes: 1}
	for _, plane := range []*obs.Plane{nil, obs.NewPlane()} {
		e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 8, Obs: plane})
		if err != nil {
			t.Fatal(err)
		}
		txn, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		write(t, txn, gr(0, 1), "a")
		mustCommit(t, txn)
		ro, err := e.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ro.Read(gr(0, 1)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, ro)
		if got := e.Stats(); got != want {
			t.Errorf("plane %v: Stats() = %+v, want %+v", plane != nil, got, want)
		}
		e.Close()
	}
}

// statsScript drives one of every counted read and abort through a fresh
// engine over twoLevel (class 0 writes segment 0; class 1 writes segment 1
// and reads segment 0) and returns its Stats.
func statsScript(t *testing.T, plane *obs.Plane) cc.Stats {
	t.Helper()
	e, err := NewEngine(Config{Partition: twoLevel(t), WallInterval: 8, Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	begin := func(txn cc.Txn, err error) cc.Txn {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return txn
	}
	wantAbort := func(err error, reason string) {
		t.Helper()
		if cc.AbortReason(err) != reason {
			t.Fatalf("got %v, want a %s abort", err, reason)
		}
	}

	w := begin(e.Begin(0))
	write(t, w, gr(0, 1), "a")
	read(t, w, gr(0, 1)) // own write
	mustCommit(t, w)
	b := begin(e.Begin(0))
	read(t, b, gr(0, 1)) // Protocol B
	mustCommit(t, b)
	a := begin(e.Begin(1))
	read(t, a, gr(0, 1)) // Protocol A
	mustCommit(t, a)
	ro := begin(e.BeginReadOnly())
	read(t, ro, gr(0, 1)) // Protocol C
	mustCommit(t, ro)
	path := begin(e.BeginReadOnlyOnPath(1))
	read(t, path, gr(0, 1)) // A-path
	mustCommit(t, path)

	refused := begin(e.Begin(0))
	_, err = refused.Read(gr(1, 1)) // class 0 may not read segment 1
	wantAbort(err, cc.ReasonClassViolation)

	// An older writer behind a younger registered read is rejected.
	old := begin(e.Begin(0))
	young := begin(e.Begin(0))
	read(t, young, gr(0, 9)) // Protocol B
	wantAbort(old.Write(gr(0, 9), []byte("late")), cc.ReasonWriteRejected)
	mustCommit(t, young)

	stuck := begin(e.Begin(1))
	if !e.ForceAbort(stuck.ID()) {
		t.Fatal("ForceAbort found no transaction")
	}
	return e.Stats()
}

// TestStatsAgreeWithExposition: Stats() is the sum of the series /metrics
// exposes, and the same whether or not a plane is attached.
func TestStatsAgreeWithExposition(t *testing.T) {
	plane := obs.NewPlane()
	st := statsScript(t, plane)
	if bare := statsScript(t, nil); bare != st {
		t.Errorf("without a plane Stats() = %+v, with one %+v", bare, st)
	}
	series := make(map[string]int64)
	sums := make(map[string]int64)
	for _, line := range strings.Split(scrapeObs(plane), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			continue // a summary's seconds
		}
		series[line[:i]] = v
		name, _, _ := strings.Cut(line[:i], "{")
		sums[name] += v
	}
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"Begins", st.Begins, sums["hdd_txn_begins_total"]},
		{"Commits", st.Commits, sums["hdd_txn_commits_total"]},
		{"Aborts", st.Aborts, sums["hdd_txn_aborts_total"]},
		{"Reads", st.Reads, sums["hdd_reads_total"]},
		{"ReadRegistrations", st.ReadRegistrations, series[`hdd_reads_total{protocol="B"}`]},
		{"ReadRegistrations", st.ReadRegistrations, series["hdd_read_registrations_total"]},
		{"RejectedWrites", st.RejectedWrites, series["hdd_rejected_writes_total"]},
		{"ReapedTxns", st.ReapedTxns, series["hdd_reaped_txns_total"]},
	} {
		if c.got != c.want {
			t.Errorf("Stats().%s = %d, exposition says %d", c.what, c.got, c.want)
		}
	}
	// Own write, two Protocol B, A, C and A-path: the refused read is
	// counted as the abort it causes, not as a read.
	want := cc.Stats{Begins: 9, Commits: 6, Aborts: 3, Reads: 6, Writes: 2,
		ReadRegistrations: 2, RejectedWrites: 1, ReapedTxns: 1}
	if st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
	if got := series[`hdd_reads_total{protocol="own"}`]; got != 1 {
		t.Errorf(`hdd_reads_total{protocol="own"} = %d, want 1`, got)
	}
}

// TestEngineObsReapEvent checks the reaper leaves a trace event and the
// per-class abort series counts the kill.
func TestEngineObsReapEvent(t *testing.T) {
	part := twoLevel(t)
	plane := obs.NewPlane()
	e, err := NewEngine(Config{Partition: part, WallInterval: 8, Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	txn, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	id := txn.ID()
	if !e.ForceAbort(id) {
		t.Fatal("ForceAbort found no transaction")
	}
	found := false
	for _, ev := range plane.Events.Snapshot(0) {
		if ev.Kind == obs.KindReap && ev.F1 == int64(id) && ev.Class == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reap event for txn %d: %+v", id, plane.Events.Snapshot(0))
	}
	wantSeries(t, scrapeObs(plane),
		`hdd_txn_aborts_total{class="0"} 1`,
		"hdd_reaped_txns_total 1",
	)
}
