package core

// Durability: the pluggable persistence substrate behind the engine
// (DESIGN.md §10). The concurrency kernel runs against the in-memory
// multi-version store, which knows nothing of the log. Each committing
// update transaction appends its write set and commit marker to a
// redo-only WAL (internal/wal) whose group-commit pipeline makes them
// durable, and a background snapshotter bounds the log with a checkpoint:
// a log segment in the same framing holding only committed writes.
// Startup recovery is snapshot + WAL-tail replay, discarding transactions
// without a durable commit marker.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hdd/internal/cc"
	"hdd/internal/mvstore"
	"hdd/internal/obs"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/vfs"
	"hdd/internal/wal"
)

// DurabilityMode selects the engine's persistence backend.
type DurabilityMode uint8

const (
	// DurabilityNone (default) keeps the engine memory-only; a crash
	// loses everything, as in the original reproduction.
	DurabilityNone DurabilityMode = iota
	// DurabilityWAL persists every commit to a write-ahead log under
	// Config.DataDir before acknowledging it, recovers snapshot+log on
	// startup, and snapshots in the background to truncate the log.
	DurabilityWAL
)

// File names under Config.DataDir.
const (
	snapshotFile = "snapshot"
	walFile      = "wal.log"
)

// RecoveryStats describes what startup recovery found and did.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot file was present.
	SnapshotLoaded bool
	// ReplayedRecords and ReplayedBytes measure the WAL tail applied on
	// top of the snapshot.
	ReplayedRecords int64
	ReplayedBytes   int64
	// TornTail reports whether the log ended in a partial record (the
	// normal signature of a crash mid-flush); the tail was truncated.
	TornTail bool
	// HighWater is the largest timestamp recovered; the logical clock
	// restarted above it.
	HighWater vclock.Time
	// Duration is the wall-clock time recovery took.
	Duration time.Duration
}

// DurabilityStats is the durability layer's counter snapshot, exposed
// through the server's Stats opcode.
type DurabilityStats struct {
	WAL          wal.Stats
	LogBytes     int64
	Snapshots    int64
	SnapshotErrs int64
	Recovery     RecoveryStats
	// Degraded reports the fail-stop state: a storage failure poisoned the
	// log and the engine is read-only (DESIGN.md §11). DegradedCause is the
	// poisoning error's text, empty while healthy.
	Degraded      bool
	DegradedCause string
}

// durability is the engine's durability state; nil when DurabilityNone.
type durability struct {
	log     *wal.Log
	dataDir string
	fs      vfs.FS

	snapshotBytes int64
	rec           RecoveryStats

	// snapMu serializes Snapshot calls (the background snapshotter vs an
	// explicit server-shutdown snapshot).
	snapMu       sync.Mutex
	snapshots    atomic.Int64
	snapshotErrs atomic.Int64
	closeErr     error

	// degraded is the fail-stop latch (DESIGN.md §11): set by the first
	// storage failure, never cleared — even if the disk later "recovers",
	// an unknown amount of acknowledged state may be missing from the log,
	// so the only safe exit is a restart through recovery. cause (under
	// poisonMu) wraps cc.ErrDurabilityFailed around the original error.
	degraded atomic.Bool
	poisonMu sync.Mutex
	cause    error
	// ring receives the degraded event when the latch first sets.
	ring *obs.Ring
}

// poison latches the fail-stop state with the first cause. Safe to call
// from any goroutine.
func (d *durability) poison(cause error) {
	if cause == nil {
		return
	}
	d.poisonMu.Lock()
	first := false
	if d.cause == nil {
		d.cause = fmt.Errorf("%w (storage error: %v)", cc.ErrDurabilityFailed, cause)
		d.degraded.Store(true)
		first = true
	}
	d.poisonMu.Unlock()
	if first {
		d.ring.Record(obs.KindDegraded, obs.NoClass, 0, 0, 0)
	}
}

// degradedErr returns the sticky typed error once poisoned, else nil.
func (d *durability) degradedErr() error {
	if !d.degraded.Load() {
		return nil
	}
	d.poisonMu.Lock()
	defer d.poisonMu.Unlock()
	return d.cause
}

// Degraded reports whether the durability layer has poisoned the engine
// into fail-stop read-only mode, and the sticky cause (wrapping
// cc.ErrDurabilityFailed). Memory-only engines are never degraded.
func (e *Engine) Degraded() (bool, error) {
	if e.dur == nil {
		return false, nil
	}
	err := e.dur.degradedErr()
	return err != nil, err
}

// rejectDegraded is the begin-path check: on a poisoned engine it counts
// and returns the typed rejection for new update/ad-hoc work. Read-only
// begins never call it — degraded mode keeps serving reads.
func (e *Engine) rejectDegraded() error {
	if e.dur == nil {
		return nil
	}
	if err := e.dur.degradedErr(); err != nil {
		e.ctr.DurabilityFailures.Add(1)
		return err
	}
	return nil
}

// commitDurabilityErr converts a failed commit-marker wait into the error
// the client sees. A storage failure poisons the engine (fail-stop) and
// surfaces cc.ErrDurabilityFailed; a benign close race — the engine shut
// down with the batch unflushed — stays an ordinary non-durable error and
// does not poison.
func (e *Engine) commitDurabilityErr(id vclock.Time, err error) error {
	if errors.Is(err, wal.ErrClosed) {
		return fmt.Errorf("core: commit %d applied in memory but not durable: %w", id, err)
	}
	e.dur.poison(err)
	e.ctr.DurabilityFailures.Add(1)
	return fmt.Errorf("core: commit %d applied in memory but not durable: %w", id, e.dur.degradedErr())
}

// initDurability runs recovery and opens the WAL for appending.
// Called from NewEngine after the kernel is assembled, before any
// transaction can begin.
func (e *Engine) initDurability(cfg Config) error {
	if cfg.DataDir == "" {
		return fmt.Errorf("core: Durability WAL requires Config.DataDir")
	}
	fs := cfg.FS
	if fs == nil {
		fs = vfs.OS{}
	}
	start := time.Now()
	if err := fs.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("core: creating data dir: %w", err)
	}
	// Make the data directory's own entry durable in case MkdirAll just
	// created it. Best-effort: the parent may not be openable (and on an
	// existing deployment there is nothing to persist).
	fs.SyncDir(filepath.Dir(cfg.DataDir))
	d := &durability{dataDir: cfg.DataDir, fs: fs, snapshotBytes: cfg.SnapshotBytes, ring: e.ring}
	if d.snapshotBytes == 0 {
		d.snapshotBytes = 8 << 20
	}
	// The flush instruments are built before the log opens so the flusher
	// goroutine never observes them half-built; the scrape-time WAL
	// families follow once the log exists.
	var onFlush func(wal.Flush)
	if cfg.Obs != nil {
		onFlush = e.walFlushHook(cfg.Obs.Reg)
	}

	// Recovery step 1: load the latest snapshot, if any.
	var high vclock.Time
	snapPath := filepath.Join(cfg.DataDir, snapshotFile)
	if f, err := fs.Open(snapPath); err == nil {
		store, h, rerr := mvstore.ReadCheckpoint(f)
		f.Close()
		if rerr != nil {
			// A corrupt snapshot is refused, never half-loaded: the operator
			// must restore or delete it (the WAL alone may not cover it).
			return fmt.Errorf("core: loading snapshot %s: %w", snapPath, rerr)
		}
		e.store = store
		high = h
		d.rec.SnapshotLoaded = true
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("core: opening snapshot %s: %w", snapPath, err)
	}

	// Recovery step 2: replay the WAL tail on top of the snapshot.
	walPath := filepath.Join(cfg.DataDir, walFile)
	var valid int64
	if f, err := fs.Open(walPath); err == nil {
		v, n, torn, rerr := e.replayWAL(f, &high)
		f.Close()
		if rerr != nil {
			return fmt.Errorf("core: replaying wal: %w", rerr)
		}
		valid = v
		d.rec.ReplayedRecords = n
		d.rec.ReplayedBytes = v
		d.rec.TornTail = torn
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("core: opening wal: %w", err)
	}

	// Recovery step 3: reopen the log for appending, truncating the torn
	// tail. Every append precedes its committer's marker, so a failed
	// flush always reaches a commit wait, which poisons the engine.
	log, err := wal.Open(walPath, valid, wal.Options{
		FlushInterval: cfg.WALFlushInterval,
		FS:            fs,
		OnFlush:       onFlush,
	})
	if err != nil {
		return err
	}
	d.log = log
	// A freshly created wal.log is only durable once its directory entry
	// is: without this fsync, a first-boot crash could drop the file —
	// and every acknowledged commit in it — even though the file's own
	// contents were fsynced. Must happen before any commit can be acked.
	if err := fs.SyncDir(cfg.DataDir); err != nil {
		log.Close()
		return fmt.Errorf("core: syncing data dir: %w", err)
	}

	// Recovery step 4: restart the logical clock above everything
	// recovered, so every new transaction orders after it, and recompute
	// the wall so the first Protocol C reads see the recovered state.
	e.clock.Observe(high)
	e.walls.Force()
	d.rec.HighWater = high
	d.rec.Duration = time.Since(start)
	e.dur = d
	if cfg.Obs != nil {
		e.registerWAL(cfg.Obs.Reg)
	}

	if d.snapshotBytes > 0 {
		interval := cfg.SnapshotInterval
		if interval <= 0 {
			interval = time.Second
		}
		e.bgWG.Add(1)
		go e.snapshotter(interval)
	}
	return nil
}

// replayWAL applies the redo log to the store. Writes are buffered per
// transaction and installed only when that transaction's commit marker
// appears — a transaction without a durable marker never happened
// (no-steal redo-only recovery). The engine writes nothing else, but a
// log from an earlier build also holds Abort records, which drop a
// buffered write, and Prune records, which re-run GC; both are honoured.
// high is advanced over every timestamp seen, committed or not, so the
// restarted clock can never re-issue a timestamp that reached the log.
//
// Replay goes through the store's ordinary mutation entry points
// (InstallPending, Commit, GC), so each replayed commit is published to
// the wait-free read path and queued for pruning exactly as a live one is —
// no recovery-specific rebuild step.
func (e *Engine) replayWAL(r io.Reader, high *vclock.Time) (valid, records int64, torn bool, err error) {
	observe := func(ts vclock.Time) {
		if ts > *high {
			*high = ts
		}
	}
	pending := make(map[vclock.Time]map[schema.GranuleID][]byte)
	return wal.Replay(r, func(rec wal.Record) error {
		switch rec.Kind {
		case wal.KindWrite:
			observe(rec.Txn)
			m := pending[rec.Txn]
			if m == nil {
				m = make(map[schema.GranuleID][]byte)
				pending[rec.Txn] = m
			}
			m[schema.GranuleID{Segment: rec.Seg, Key: rec.Key}] = rec.Value
		case wal.KindAbort:
			observe(rec.Txn)
			delete(pending[rec.Txn], schema.GranuleID{Segment: rec.Seg, Key: rec.Key})
		case wal.KindCommit:
			observe(rec.Txn)
			for g, v := range pending[rec.Txn] {
				ierr := e.store.InstallPending(g, rec.Txn, v)
				if errors.Is(ierr, mvstore.ErrVersionExists) {
					// The snapshot already holds this version: the crash hit
					// between the snapshot rename and the log truncation.
					continue
				}
				if ierr != nil {
					return fmt.Errorf("core: replaying write %v@%d: %w", g, rec.Txn, ierr)
				}
				e.store.Commit(g, rec.Txn)
			}
			delete(pending, rec.Txn)
		case wal.KindPrune:
			observe(rec.Watermark)
			e.store.GC(rec.Watermark)
		}
		return nil
	})
}

// Snapshot quiesces update processing (taking every §7.1 admission gate,
// exactly like WriteCheckpoint), writes the store to the snapshot file
// atomically (tmp + fsync + rename), and truncates the WAL. Read-only
// transactions keep running throughout. It is the log-bounding duty of
// §7.3, run by the background snapshotter past Config.SnapshotBytes and
// by the server on shutdown.
func (e *Engine) Snapshot() error {
	if e.dur == nil {
		return fmt.Errorf("core: durability is not enabled")
	}
	e.dur.snapMu.Lock()
	defer e.dur.snapMu.Unlock()
	// A poisoned log cannot be safely truncated — an unknown suffix of
	// acknowledged commits may be missing from it, and a snapshot taken
	// from memory would launder that loss into the durable state.
	if err := e.dur.degradedErr(); err != nil {
		return fmt.Errorf("core: snapshot refused: %w", err)
	}
	snapStart := time.Now()
	superseded := e.dur.log.Size()
	all := e.gate.lockAll()
	defer e.gate.unlock(all)
	// Make the log complete up to the quiesce point first: if the
	// checkpoint write fails we still have a fully durable log. A sync
	// failure here is a WAL storage failure — fail-stop.
	if err := e.dur.log.Sync(); err != nil {
		e.dur.snapshotErrs.Add(1)
		e.dur.poison(err)
		return fmt.Errorf("core: syncing wal before snapshot: %w", err)
	}
	// Snapshot-file failures, by contrast, are retryable: the log is fully
	// durable and keeps growing, so only SnapshotErrs is counted and the
	// next snapshotter tick tries again.
	tmp := filepath.Join(e.dur.dataDir, snapshotFile+".tmp")
	if err := e.writeSnapshotFile(tmp); err != nil {
		e.dur.snapshotErrs.Add(1)
		e.dur.fs.Remove(tmp)
		return err
	}
	if err := e.dur.fs.Rename(tmp, filepath.Join(e.dur.dataDir, snapshotFile)); err != nil {
		e.dur.snapshotErrs.Add(1)
		e.dur.fs.Remove(tmp)
		return fmt.Errorf("core: publishing snapshot: %w", err)
	}
	// Sync the directory so the rename itself is durable before the log
	// contents it supersedes are dropped. A failure here must skip the
	// reset: truncating the log while the snapshot's directory entry may
	// not survive a crash would lose committed state.
	if err := e.dur.fs.SyncDir(e.dur.dataDir); err != nil {
		e.dur.snapshotErrs.Add(1)
		return fmt.Errorf("core: syncing data dir after snapshot publish: %w", err)
	}
	// A failed truncate leaves the log file in an unknown state (the
	// in-memory accounting no longer matches the disk) — fail-stop.
	if err := e.dur.log.Reset(); err != nil {
		e.dur.snapshotErrs.Add(1)
		e.dur.poison(err)
		return fmt.Errorf("core: truncating wal after snapshot: %w", err)
	}
	e.dur.snapshots.Add(1)
	e.ring.Record(obs.KindSnapshot, obs.NoClass, superseded, time.Since(snapStart).Microseconds(), 0)
	return nil
}

func (e *Engine) writeSnapshotFile(path string) error {
	f, err := e.dur.fs.Create(path)
	if err != nil {
		return fmt.Errorf("core: creating snapshot: %w", err)
	}
	if _, err := e.store.WriteCheckpoint(f); err != nil {
		f.Close()
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: closing snapshot: %w", err)
	}
	return nil
}

// snapshotter polls the log size and snapshots once it crosses the
// configured threshold, bounding recovery time and disk use.
func (e *Engine) snapshotter(interval time.Duration) {
	defer e.bgWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-tick.C:
			if e.dur.degraded.Load() {
				// Fail-stop: nothing more reaches the disk.
				return
			}
			if e.dur.log.Size() >= e.dur.snapshotBytes {
				// Errors are counted (DurabilityStats.SnapshotErrs) and the
				// next tick retries; the log keeps growing but stays correct.
				e.Snapshot()
			}
		}
	}
}

// DurabilityStats returns the durability layer's counters; ok is false
// when the engine runs with DurabilityNone.
func (e *Engine) DurabilityStats() (DurabilityStats, bool) {
	if e.dur == nil {
		return DurabilityStats{}, false
	}
	s := DurabilityStats{
		WAL:          e.dur.log.Stats(),
		LogBytes:     e.dur.log.Size(),
		Snapshots:    e.dur.snapshots.Load(),
		SnapshotErrs: e.dur.snapshotErrs.Load(),
		Recovery:     e.dur.rec,
	}
	if err := e.dur.degradedErr(); err != nil {
		s.Degraded = true
		s.DegradedCause = err.Error()
	}
	return s, true
}
