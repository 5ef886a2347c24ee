package core

// Counting and observability (DESIGN.md §13). The engine counts each event
// it observes once, at the site where it happens, in counters it owns
// whether or not a plane is attached; Stats sums them. Config.Obs only
// decides where those counters are registered (the plane's registry, at
// construction) and where trace events go (the plane's ring; a nil
// *obs.Ring records nothing).
//
// A plane carries the families of exactly one engine: family names are
// unregistered only when the plane is garbage collected, so attaching a
// second engine to the same registry panics on the duplicate
// registration. Servers that embed an engine share its plane instead of
// creating their own (see internal/server).

import (
	"strconv"

	"hdd/internal/cc"
	"hdd/internal/metrics"
	"hdd/internal/obs"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/wal"
)

// beginSampleStride is the per-class sampling stride for begin-window
// trace events: one KindBeginWindow event per 64 begins per class. Begins
// are the hottest instrumented path, and an event per begin would evict
// everything else from the ring while threatening the <=5% overhead
// budget; a stride keeps the window's advance visible at trace
// granularity without the flood.
const beginSampleStride = 64

// readProto is the protocol that served a read: one hdd_reads_total
// series each.
type readProto uint8

const (
	readA     readProto = iota // update transaction, higher segment
	readAPath                  // critical-path read-only transaction
	readB                      // update transaction, root segment (registered)
	readC                      // below a released time wall
	readOwn                    // an update transaction's own pending write
	numReadProtos
)

var readProtoNames = [numReadProtos]string{"A", "A-path", "B", "C", "own"}

// classCounts is one class's transaction lifecycle.
type classCounts struct{ begins, commits, aborts metrics.Counter }

// roCounts is the class="ro" slot that follows the classes in e.txns,
// shared by both read-only flavors: they have no class of their own.
func (e *Engine) roCounts() *classCounts { return &e.txns[len(e.txns)-1] }

// Stats implements cc.Engine. The transaction and read totals are sums of
// the labelled counters /metrics exposes, so the two always agree: Reads
// is reads served, and ReadRegistrations is the Protocol B reads.
func (e *Engine) Stats() cc.Stats {
	s := e.ctr.Snapshot()
	for i := range e.txns {
		s.Begins += e.txns[i].begins.Load()
		s.Commits += e.txns[i].commits.Load()
		s.Aborts += e.txns[i].aborts.Load()
	}
	for i := range e.reads {
		s.Reads += e.reads[i].Load()
	}
	s.ReadRegistrations = e.reads[readB].Load()
	return s
}

// register exposes the engine's counters and state on a plane's registry.
// The durability families are added by initDurability once the log exists.
func (e *Engine) register(r *obs.Registry) {
	const (
		beginsHelp  = "Transactions begun, by class (class=\"ro\" for read-only flavors)."
		commitsHelp = "Transactions committed, by class (class=\"ro\" for read-only flavors)."
		abortsHelp  = "Transactions aborted, by class (class=\"ro\" for read-only flavors)."
	)
	for c := range e.txns {
		cls, n := "ro", &e.txns[c]
		if c < len(e.txns)-1 {
			cls = strconv.Itoa(c)
		}
		r.CounterFunc("hdd_txn_begins_total", beginsHelp, n.begins.Load, "class", cls)
		r.CounterFunc("hdd_txn_commits_total", commitsHelp, n.commits.Load, "class", cls)
		r.CounterFunc("hdd_txn_aborts_total", abortsHelp, n.aborts.Load, "class", cls)
	}
	for p, name := range readProtoNames {
		r.CounterFunc("hdd_reads_total", "Reads served, by protocol (A, A-path, B, C, own).",
			e.reads[p].Load, "protocol", name)
	}
	// Every Protocol A, A-path and C read takes the store's wait-free
	// committed-read path (published-chain load, no locks, no allocations);
	// Protocol B reads mutate the chain by definition.
	for _, p := range []readProto{readA, readAPath, readC} {
		r.CounterFunc("hdd_reads_lockfree_total",
			"Reads served by the wait-free committed-read path (no locks, no allocations), by protocol.",
			e.reads[p].Load, "protocol", readProtoNames[p])
	}
	r.CounterFunc("hdd_gc_pruned_versions_total",
		"Store versions removed by garbage collection.",
		e.gcPruned.Load)
	r.CounterFunc("hdd_gc_chains_visited_total",
		"Version chains examined by garbage collection (the prune queue's length at each cycle).",
		e.gcVisited.Load)
	r.CounterFunc("hdd_wall_releases_total",
		"Time walls released (§5.2).",
		func() int64 { released, _ := e.walls.Stats(); return int64(released) })
	r.CounterFunc("hdd_wall_attempts_total",
		"Wall computability attempts, including ones that found C_late not yet computable.",
		func() int64 { _, attempts := e.walls.Stats(); return int64(attempts) })
	r.GaugeFunc("hdd_active_txns",
		"In-flight transactions registered with the reaper.",
		func() int64 { return int64(e.ActiveTxns()) })
	r.CounterFunc("hdd_gc_runs_total",
		"Automatic garbage-collection cycles run.",
		e.gcRuns.Load)
	r.CounterFunc("hdd_read_registrations_total",
		"Reads that left a trace (Protocol B read timestamps) — the cost HDD minimizes.",
		e.reads[readB].Load)
	r.CounterFunc("hdd_blocked_reads_total",
		"Protocol B reads that waited on a pending version.",
		e.ctr.BlockedReads.Load)
	r.CounterFunc("hdd_rejected_reads_total",
		"Timestamp-ordering read rejections.",
		e.ctr.RejectedReads.Load)
	r.CounterFunc("hdd_rejected_writes_total",
		"Timestamp-ordering write rejections.",
		e.ctr.RejectedWrites.Load)
	r.CounterFunc("hdd_reaped_txns_total",
		"Stuck transactions force-aborted by the reaper.",
		e.ctr.ReapedTxns.Load)
	r.CounterFunc("hdd_timed_out_reads_total",
		"Blocked reads that gave up at the transaction deadline.",
		e.ctr.TimedOutReads.Load)
	r.CounterFunc("hdd_durability_failures_total",
		"Commits and begins failed with ErrDurabilityFailed.",
		e.ctr.DurabilityFailures.Load)
	// Registered unconditionally — a memory-only engine exports a constant
	// 0 — so dashboards can alert on the family without knowing the
	// engine's durability mode.
	r.GaugeFunc("hdd_durability_degraded",
		"1 once a storage failure latched the fail-stop degraded state, else 0.",
		func() int64 {
			if e.dur != nil && e.dur.degraded.Load() {
				return 1
			}
			return 0
		})
}

// walFlushHook registers the per-flush WAL families (memory-only engines
// have none) and returns the wal.Options.OnFlush that feeds them and the
// trace ring.
func (e *Engine) walFlushHook(r *obs.Registry) func(wal.Flush) {
	fsync := r.Histogram("hdd_wal_fsync_seconds", "Duration of each WAL flush-batch fsync.")
	held := r.Histogram("hdd_wal_hold_seconds", "How long the flusher held a batch open for committers due back.")
	waiters := r.ValueHistogram("hdd_wal_commit_waiters", "Commit markers acknowledged per flushed batch.")
	inFlight := r.ValueHistogram("hdd_wal_flushes_in_flight", "Flushes whose fsync was still running when a batch's flush started.")
	var holds [3]*metrics.Counter
	for out, name := range [...]string{wal.HoldNone: "none", wal.HoldReady: "ready", wal.HoldExpired: "expired"} {
		holds[out] = r.Counter("hdd_wal_hold_total",
			"Flushed batches by how the flusher's hold ended: none (flushed at once), ready (before its bound: the committers due are back), expired (ran to its bound).",
			"outcome", name)
	}
	return func(f wal.Flush) {
		fsync.Observe(f.Sync)
		waiters.Observe(int64(f.Waiters))
		inFlight.Observe(int64(f.InFlight))
		holds[f.Hold].Inc()
		if f.Hold != wal.HoldNone {
			held.Observe(f.Held)
		}
		e.ring.Record(obs.KindWALFlush, obs.NoClass, f.Records, int64(f.Waiters), f.Sync.Microseconds())
	}
}

// registerWAL adds the scrape-time durability families; called by
// initDurability once the log exists (after e.dur is set).
func (e *Engine) registerWAL(r *obs.Registry) {
	log := e.dur.log
	r.GaugeSecondsFunc("hdd_wal_return_seconds",
		"The log's estimate of how long after an acknowledgement its committers take to all be back.",
		log.Return)
	r.CounterFunc("hdd_wal_records_total",
		"Records enqueued to the WAL.",
		func() int64 { return log.Stats().Records })
	r.CounterFunc("hdd_wal_flush_batches_total",
		"WAL flush batches written (records/batches is the group-commit amortization).",
		func() int64 { return log.Stats().Batches })
	r.CounterFunc("hdd_wal_flushed_bytes_total",
		"Bytes flushed to the WAL file.",
		func() int64 { return log.Stats().FlushedBytes })
	r.CounterFunc("hdd_wal_syncs_total",
		"fsyncs issued against the WAL file.",
		func() int64 { return log.Stats().Syncs })
	r.CounterFunc("hdd_wal_commit_waits_total",
		"Commit markers that waited on a flush batch (group-commit backpressure).",
		func() int64 { return log.Stats().CommitWaits })
	r.CounterFunc("hdd_wal_dropped_total",
		"Records discarded because the log was closed or poisoned.",
		func() int64 { return log.Stats().Dropped })
	r.GaugeFunc("hdd_wal_log_bytes",
		"Current WAL file size; snapshots truncate it.",
		log.Size)
	r.CounterFunc("hdd_wal_snapshots_total",
		"Checkpoints published (each truncates the log).",
		e.dur.snapshots.Load)
	r.CounterFunc("hdd_wal_snapshot_errs_total",
		"Failed snapshot attempts (retried by the snapshotter).",
		e.dur.snapshotErrs.Load)
}

// countBegin counts an update begin in its class and records a
// stride-sampled begin-window event carrying the initiation tick.
func (e *Engine) countBegin(class schema.ClassID, init vclock.Time) {
	e.txns[class].begins.Inc()
	if e.ring != nil && e.beginSample[class].Add(1)%beginSampleStride == 1 {
		e.ring.Record(obs.KindBeginWindow, int32(class), int64(init), 0, 0)
	}
}

// pollWalls is walls.Poll plus the wall-release trace event; all engine
// commit/abort paths call it instead of e.walls.Poll().
func (e *Engine) pollWalls() {
	if e.walls.Poll() && e.ring != nil {
		w := e.walls.Current()
		e.ring.Record(obs.KindWallRelease, obs.NoClass, int64(w.At), int64(w.Released), 0)
	}
}
