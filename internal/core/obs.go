package core

// Engine-side observability (DESIGN.md §13): when Config.Obs is set, the
// engine registers its metric families on the plane's registry at
// construction and records structured events into the plane's trace ring
// as it runs. A nil plane costs nothing — every hook site guards on
// e.obs — and the hot-path cost with a plane attached is one sharded
// counter increment per operation (the same cc.Counter idiom the engine
// already pays for Stats).
//
// A plane carries the families of exactly one engine: family names are
// unregistered only when the plane is garbage collected, so attaching a
// second engine to the same registry panics on the duplicate
// registration. Servers that embed an engine share its plane instead of
// creating their own (see internal/server).

import (
	"strconv"
	"sync/atomic"

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

// engineObs holds the engine's registered metric handles and the trace
// ring. All per-operation hooks are methods here so the call sites stay
// one guarded line.
type engineObs struct {
	ring *obs.Ring
	reg  *obs.Registry

	// Per-class transaction lifecycle counters, indexed by ClassID, plus
	// the class="ro" series shared by all read-only flavors (Protocol C,
	// path readers): read-only transactions have no class of their own.
	begins, commits, aborts       []*obs.Counter
	roBegins, roCommits, roAborts *obs.Counter

	// Reads by protocol: A (update cross-class), A-path (fictitious-class
	// path readers), B (root-segment registered), C (wall-bounded), adhoc
	// (exact reads under a drained conflict set).
	readsA, readsAPath, readsB, readsC, readsAdHoc *obs.Counter

	// Reads served by the wait-free committed-read path (published-chain
	// load, no locks, no allocations), by protocol. Protocol B is absent:
	// registered reads mutate the chain by definition. Equal to the
	// corresponding hdd_reads_total series today; the split exists so a
	// future partially-locked path shows up as divergence.
	lockfreeA, lockfreeAPath, lockfreeC, lockfreeAdHoc *obs.Counter

	// gcPruned counts store versions removed by GC cycles; gcVisited the
	// chains those cycles examined. visited ≈ pruned is the healthy shape;
	// visited ≫ pruned means a held-back watermark keeps chains queued.
	gcPruned, gcVisited *obs.Counter

	// beginSample implements the begin-window event stride, one cursor
	// per class.
	beginSample []atomic.Uint64
}

// newEngineObs registers the engine's metric families on the plane. The
// engine's structural pieces (walls, live registry, counters) must be
// built; the durability layer may not be yet — its families are added by
// initDurability.
func newEngineObs(e *Engine, plane *obs.Plane) *engineObs {
	r := plane.Reg
	n := e.part.NumClasses()
	o := &engineObs{
		ring:        plane.Events,
		reg:         r,
		begins:      make([]*obs.Counter, n),
		commits:     make([]*obs.Counter, n),
		aborts:      make([]*obs.Counter, n),
		beginSample: make([]atomic.Uint64, n),
	}
	const (
		beginsName  = "hdd_txn_begins_total"
		commitsName = "hdd_txn_commits_total"
		abortsName  = "hdd_txn_aborts_total"
		beginsHelp  = "Transactions begun, by class (class=\"ro\" for read-only flavors)."
		commitsHelp = "Transactions committed, by class (class=\"ro\" for read-only flavors)."
		abortsHelp  = "Transactions aborted, by class (class=\"ro\" for read-only flavors)."
	)
	for c := 0; c < n; c++ {
		cls := strconv.Itoa(c)
		o.begins[c] = r.Counter(beginsName, beginsHelp, "class", cls)
		o.commits[c] = r.Counter(commitsName, commitsHelp, "class", cls)
		o.aborts[c] = r.Counter(abortsName, abortsHelp, "class", cls)
	}
	o.roBegins = r.Counter(beginsName, beginsHelp, "class", "ro")
	o.roCommits = r.Counter(commitsName, commitsHelp, "class", "ro")
	o.roAborts = r.Counter(abortsName, abortsHelp, "class", "ro")

	const (
		readsName = "hdd_reads_total"
		readsHelp = "Reads served, by protocol (A, A-path, B, C, adhoc)."
	)
	o.readsA = r.Counter(readsName, readsHelp, "protocol", "A")
	o.readsAPath = r.Counter(readsName, readsHelp, "protocol", "A-path")
	o.readsB = r.Counter(readsName, readsHelp, "protocol", "B")
	o.readsC = r.Counter(readsName, readsHelp, "protocol", "C")
	o.readsAdHoc = r.Counter(readsName, readsHelp, "protocol", "adhoc")

	const (
		lockfreeName = "hdd_reads_lockfree_total"
		lockfreeHelp = "Reads served by the wait-free committed-read path (no locks, no allocations), by protocol."
	)
	o.lockfreeA = r.Counter(lockfreeName, lockfreeHelp, "protocol", "A")
	o.lockfreeAPath = r.Counter(lockfreeName, lockfreeHelp, "protocol", "A-path")
	o.lockfreeC = r.Counter(lockfreeName, lockfreeHelp, "protocol", "C")
	o.lockfreeAdHoc = r.Counter(lockfreeName, lockfreeHelp, "protocol", "adhoc")

	o.gcPruned = r.Counter("hdd_gc_pruned_versions_total",
		"Store versions removed by garbage collection.")
	o.gcVisited = r.Counter("hdd_gc_chains_visited_total",
		"Version chains examined by garbage collection (the prune queue's length at each cycle).")

	// Scrape-time views over state the engine already maintains: no
	// double counting, no extra hot-path work.
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
		e.ctr.ReadRegistrations.Load)
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
	return o
}

// walFlushHook registers the per-flush WAL families (memory-only engines
// have none) and returns the wal.Options.OnFlush that feeds them and the
// trace ring.
func (o *engineObs) walFlushHook() func(wal.Flush) {
	r := o.reg
	fsync := r.Histogram("hdd_wal_fsync_seconds", "Duration of each WAL flush-batch fsync.")
	held := r.Histogram("hdd_wal_hold_seconds", "How long the flusher held a batch open for committers due back.")
	waiters := r.ValueHistogram("hdd_wal_commit_waiters", "Commit markers acknowledged per flushed batch.")
	var holds [3]*obs.Counter
	for out, name := range [...]string{wal.HoldNone: "none", wal.HoldReady: "ready", wal.HoldExpired: "expired"} {
		holds[out] = r.Counter("hdd_wal_hold_total",
			"Flushed batches by how the flusher's hold ended: none (flushed at once), ready (before its bound: the committers due are back), expired (ran to its bound).",
			"outcome", name)
	}
	return func(f wal.Flush) {
		fsync.Observe(f.Sync)
		waiters.Observe(int64(f.Waiters))
		holds[f.Hold].Inc()
		if f.Hold != wal.HoldNone {
			held.Observe(f.Held)
		}
		o.ring.Record(obs.KindWALFlush, obs.NoClass, f.Records, int64(f.Waiters), f.Sync.Microseconds())
	}
}

// registerWAL adds the scrape-time durability families; called by
// initDurability once the log exists (after e.dur is set).
func (o *engineObs) registerWAL(e *Engine) {
	r := o.reg
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

// beginUpdate records an update or ad-hoc begin: the per-class counter,
// and a stride-sampled begin-window trace event carrying the sampled
// initiation tick.
func (o *engineObs) beginUpdate(class schema.ClassID, init vclock.Time) {
	o.begins[class].Inc()
	if o.beginSample[class].Add(1)%beginSampleStride == 1 {
		o.ring.Record(obs.KindBeginWindow, int32(class), int64(init), 0, 0)
	}
}

func (o *engineObs) commitUpdate(class schema.ClassID) { o.commits[class].Inc() }
func (o *engineObs) abortUpdate(class schema.ClassID)  { o.aborts[class].Inc() }

func (o *engineObs) beginRO()  { o.roBegins.Inc() }
func (o *engineObs) commitRO() { o.roCommits.Inc() }
func (o *engineObs) abortRO()  { o.roAborts.Inc() }

// reaped records a reaper force-abort trace event.
func (o *engineObs) reaped(class int32, txn vclock.Time) {
	o.ring.Record(obs.KindReap, class, int64(txn), 0, 0)
}

// pollWalls is walls.Poll plus the wall-release trace event; all engine
// commit/abort paths call it instead of e.walls.Poll().
func (e *Engine) pollWalls() {
	if !e.walls.Poll() {
		return
	}
	if o := e.obs; o != nil {
		w := e.walls.Current()
		o.ring.Record(obs.KindWallRelease, obs.NoClass, int64(w.At), int64(w.Released), 0)
	}
}
