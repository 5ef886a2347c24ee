package core

// The HDD engine implements every optional backend capability of the
// service stack's contract (internal/cc, DESIGN.md §12). The assertions
// here are the compile-time half of that claim; DurabilityState is the
// engine-neutral report of the durability layer the server and client
// consume without importing core.

import "hdd/internal/cc"

var (
	_ cc.ForceAborter           = (*Engine)(nil)
	_ cc.ScopedReadOnlyBeginner = (*Engine)(nil)
	_ cc.ActiveTxnCounter       = (*Engine)(nil)
	_ cc.DurabilityIntrospector = (*Engine)(nil)
	_ cc.Checkpointer           = (*Engine)(nil)
	_ cc.WaitFreeReadOnly       = (*Engine)(nil)
)

// WaitFreeReadOnly implements cc.WaitFreeReadOnly: read-only transactions
// read below a released time wall or thresholds pinned at begin, so none
// of their operations waits on anything (§5.2, Theorem 2).
func (e *Engine) WaitFreeReadOnly() {}

// DurabilityState implements cc.DurabilityIntrospector: the durability
// counters as an engine-neutral flat list, and whether durability is
// enabled at all for this instance. The counter names are the wire-stable
// vocabulary the server's Stats opcode exposes; booleans are 0/1.
func (e *Engine) DurabilityState() (cc.DurabilityState, bool) {
	d := e.dur
	if d == nil {
		return cc.DurabilityState{}, false
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	w := d.log.Stats()
	ds := cc.DurabilityState{
		Counters: []cc.StatKV{
			{Name: "wal_records", Value: w.Records},
			{Name: "wal_flush_batches", Value: w.Batches},
			{Name: "wal_flushed_bytes", Value: w.FlushedBytes},
			{Name: "wal_syncs", Value: w.Syncs},
			{Name: "wal_commit_waits", Value: w.CommitWaits},
			{Name: "wal_log_bytes", Value: d.log.Size()},
			{Name: "wal_snapshots", Value: d.snapshots.Load()},
			{Name: "wal_snapshot_errs", Value: d.snapshotErrs.Load()},
			{Name: "wal_replayed_records", Value: d.rec.ReplayedRecords},
			{Name: "wal_recovery_ns", Value: int64(d.rec.Duration)},
			{Name: "wal_snapshot_loaded", Value: b2i(d.rec.SnapshotLoaded)},
			{Name: "wal_torn_tail", Value: b2i(d.rec.TornTail)},
			{Name: "wal_high_water", Value: int64(d.rec.HighWater)},
		},
	}
	if err := d.degradedErr(); err != nil {
		ds.Degraded, ds.Cause = true, err.Error()
	}
	return ds, true
}
