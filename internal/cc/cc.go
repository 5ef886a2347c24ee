// Package cc defines the engine-neutral concurrency-control contract that
// the HDD engine and every baseline (2PL, MV2PL, TO, MVTO, SDD-1-style,
// and the deliberately unsound variants) implement, so workloads, the
// simulator and the serializability checker can drive any of them
// interchangeably.
package cc

import (
	"errors"
	"fmt"

	"hdd/internal/metrics"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// TxnID identifies one transaction attempt. Engines use the initiation
// instant issued by the shared logical clock, which is unique per attempt.
type TxnID = vclock.Time

// Engine is a concurrency-control engine over a partitioned database.
type Engine interface {
	// Name identifies the engine in experiment output ("HDD", "2PL", …).
	Name() string
	// Begin starts an update transaction of the given class.
	Begin(class schema.ClassID) (Txn, error)
	// BeginReadOnly starts an ad-hoc read-only transaction (the paper's
	// §5 transactions, Protocol C under HDD).
	BeginReadOnly() (Txn, error)
	// Stats returns a snapshot of cumulative counters.
	Stats() Stats
	// Close releases engine resources (background maintenance, etc.).
	Close() error
}

// Txn is one transaction. Implementations are not safe for concurrent use
// by multiple goroutines; a transaction belongs to one client.
//
// Read and Write may fail with an abort error (see IsAbort), after which
// the transaction is dead and only Abort may be called; the client
// typically retries with a fresh transaction.
type Txn interface {
	// ID returns the attempt's unique id (its initiation instant).
	ID() TxnID
	// Class returns the transaction's class, or schema.NoClass if
	// read-only.
	Class() schema.ClassID
	// Read returns the value of g visible to this transaction, or
	// (nil, nil) if the granule does not exist at the visible instant.
	//
	// The returned slice is a defensive copy owned by the caller: mutating
	// it never affects the store, other transactions, or subsequent reads.
	// The HDD engine carves it from a chunk it shares with the
	// transaction's other reads, so keeping it keeps that chunk (256 B)
	// alive; the networked client carves it from a per-connection chunk.
	// Appending to it reallocates.
	Read(g schema.GranuleID) ([]byte, error)
	// Write buffers or installs a new value for g. The engine copies
	// value; the caller may reuse the slice after Write returns.
	Write(g schema.GranuleID, value []byte) error
	// Commit makes the transaction's writes durable and visible.
	Commit() error
	// Abort discards the transaction. Aborting a finished transaction is
	// a no-op.
	Abort() error
}

// SharedReader is the optional zero-copy read path. A transaction that
// implements it serves ReadShared with the same visibility and error
// semantics as Txn.Read, but the returned slice aliases engine-owned
// immutable memory instead of a defensive copy: the engine guarantees the
// bytes are never mutated after publication, and the caller in turn must
// never write to them and must not hold them past the point where it
// stops trusting the transaction's lifetime guarantees (a server encoding
// a response consumes them immediately).
//
// Txn.Read remains the safe public boundary — it is exactly ReadShared
// plus the single defensive copy. Callers feature-detect with a type
// assertion and fall back to Read.
type SharedReader interface {
	ReadShared(g schema.GranuleID) ([]byte, error)
}

// AbortError signals that the engine killed the transaction; the client
// should retry. Reason is a short stable cause label used in experiment
// breakdowns.
type AbortError struct {
	Reason string
	Err    error
}

func (e *AbortError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("transaction aborted (%s): %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("transaction aborted (%s)", e.Reason)
}

func (e *AbortError) Unwrap() error { return e.Err }

// Abort reasons used across engines.
const (
	ReasonWriteRejected  = "write-rejected"  // timestamp-ordering write rejection
	ReasonReadRejected   = "read-rejected"   // basic TO read rejection
	ReasonDeadlock       = "deadlock"        // 2PL deadlock victim
	ReasonUserAbort      = "user"            // client-requested abort
	ReasonClassViolation = "class-violation" // access outside the declared class spec
	// ReasonTimedOut marks a transaction killed for exceeding its
	// deadline: either a blocked read that waited past it, or a stuck /
	// abandoned transaction force-aborted by the engine's reaper.
	ReasonTimedOut = "timed-out"
)

// IsAbort reports whether err (anywhere in its chain) is an AbortError.
func IsAbort(err error) bool {
	var ae *AbortError
	return errors.As(err, &ae)
}

// AbortReason extracts the abort reason, or "" if err is not an abort.
func AbortReason(err error) string {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Reason
	}
	return ""
}

// ErrTxnDone is returned by operations on a committed or aborted
// transaction.
var ErrTxnDone = errors.New("cc: transaction already finished")

// ErrEngineClosed is returned by Begin/Read/Write after Engine.Close, and
// by blocked reads that were woken because the engine shut down. It is not
// an AbortError: retrying against a closed engine is pointless.
var ErrEngineClosed = errors.New("cc: engine closed")

// ErrDurabilityFailed marks the fail-stop state of a durable engine whose
// storage failed (a write or fsync error on the log). The engine is
// permanently degraded: the commit that hit the failure — and every queued
// or subsequent commit — returns this error, and new update transactions
// are rejected with it, while read-only traffic keeps serving. It is not an AbortError: retrying cannot succeed until the
// process is restarted against repaired storage (DESIGN.md §11).
var ErrDurabilityFailed = errors.New("cc: durability failed; engine is read-only")

// Counters is the set of cumulative metrics every engine maintains. All
// fields are sharded, cache-line-padded counters (metrics.Counter) so
// engines can update them from any goroutine without bouncing lines between
// cores; use Snapshot for a consistent-enough read.
type Counters struct {
	Begins  metrics.Counter
	Commits metrics.Counter
	Aborts  metrics.Counter

	Reads  metrics.Counter
	Writes metrics.Counter

	// ReadRegistrations counts reads that had to leave a trace: a read
	// lock taken or a read timestamp written. The paper's central claim
	// is that HDD drives this to zero for cross-class and read-only
	// accesses.
	ReadRegistrations metrics.Counter
	// BlockedReads / BlockedWrites count operations that had to wait for
	// another transaction before completing.
	BlockedReads  metrics.Counter
	BlockedWrites metrics.Counter
	// RejectedReads / RejectedWrites count timestamp-ordering rejections
	// (each implies an abort).
	RejectedReads  metrics.Counter
	RejectedWrites metrics.Counter
	// Deadlocks counts deadlock-victim aborts (2PL engines).
	Deadlocks metrics.Counter
	// ReapedTxns counts stuck transactions force-aborted by the engine's
	// background reaper (deadline enforcement for abandoned clients).
	ReapedTxns metrics.Counter
	// TimedOutReads counts blocked reads that gave up because the
	// transaction's deadline expired before the pending version resolved.
	TimedOutReads metrics.Counter
	// DurabilityFailures counts commits (in-flight or queued) and begins
	// failed with ErrDurabilityFailed after the storage layer poisoned the
	// engine. Zero on healthy and memory-only engines.
	DurabilityFailures metrics.Counter
}

// Stats is a plain snapshot of Counters.
type Stats struct {
	Begins, Commits, Aborts       int64
	Reads, Writes                 int64
	ReadRegistrations             int64
	BlockedReads, BlockedWrites   int64
	RejectedReads, RejectedWrites int64
	Deadlocks                     int64
	ReapedTxns                    int64
	TimedOutReads                 int64
	DurabilityFailures            int64
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Begins:             c.Begins.Load(),
		Commits:            c.Commits.Load(),
		Aborts:             c.Aborts.Load(),
		Reads:              c.Reads.Load(),
		Writes:             c.Writes.Load(),
		ReadRegistrations:  c.ReadRegistrations.Load(),
		BlockedReads:       c.BlockedReads.Load(),
		BlockedWrites:      c.BlockedWrites.Load(),
		RejectedReads:      c.RejectedReads.Load(),
		RejectedWrites:     c.RejectedWrites.Load(),
		Deadlocks:          c.Deadlocks.Load(),
		ReapedTxns:         c.ReapedTxns.Load(),
		TimedOutReads:      c.TimedOutReads.Load(),
		DurabilityFailures: c.DurabilityFailures.Load(),
	}
}

// Sub returns s - o, for per-interval deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Begins:             s.Begins - o.Begins,
		Commits:            s.Commits - o.Commits,
		Aborts:             s.Aborts - o.Aborts,
		Reads:              s.Reads - o.Reads,
		Writes:             s.Writes - o.Writes,
		ReadRegistrations:  s.ReadRegistrations - o.ReadRegistrations,
		BlockedReads:       s.BlockedReads - o.BlockedReads,
		BlockedWrites:      s.BlockedWrites - o.BlockedWrites,
		RejectedReads:      s.RejectedReads - o.RejectedReads,
		RejectedWrites:     s.RejectedWrites - o.RejectedWrites,
		Deadlocks:          s.Deadlocks - o.Deadlocks,
		ReapedTxns:         s.ReapedTxns - o.ReapedTxns,
		TimedOutReads:      s.TimedOutReads - o.TimedOutReads,
		DurabilityFailures: s.DurabilityFailures - o.DurabilityFailures,
	}
}

// Recorder observes the schedule an engine produces, in the vocabulary of
// the paper's §2: reads name the version (by its write timestamp) they
// returned, writes name the version they created. The serializability
// checker in internal/sched implements this; NopRecorder discards events.
//
// Engines must invoke the recorder while holding whatever synchronization
// orders the recorded step, so the recorded sequence is a linearization of
// the real one.
type Recorder interface {
	RecordBegin(t TxnID, class schema.ClassID, readOnly bool)
	// RecordRead: versionTS is the write timestamp of the version read;
	// found is false for reads of non-existent granules.
	RecordRead(t TxnID, g schema.GranuleID, versionTS vclock.Time, found bool)
	// RecordWrite: versionTS is the write timestamp of the created
	// version.
	RecordWrite(t TxnID, g schema.GranuleID, versionTS vclock.Time)
	RecordCommit(t TxnID, at vclock.Time)
	RecordAbort(t TxnID, at vclock.Time)
}

// NopRecorder discards all events.
type NopRecorder struct{}

// RecordBegin implements Recorder.
func (NopRecorder) RecordBegin(TxnID, schema.ClassID, bool) {}

// RecordRead implements Recorder.
func (NopRecorder) RecordRead(TxnID, schema.GranuleID, vclock.Time, bool) {}

// RecordWrite implements Recorder.
func (NopRecorder) RecordWrite(TxnID, schema.GranuleID, vclock.Time) {}

// RecordCommit implements Recorder.
func (NopRecorder) RecordCommit(TxnID, vclock.Time) {}

// RecordAbort implements Recorder.
func (NopRecorder) RecordAbort(TxnID, vclock.Time) {}
