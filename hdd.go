// Package hdd is the public facade of the Hierarchical Database
// Decomposition library — a from-scratch reproduction of Meichun Hsu,
// "Hierarchical Database Decomposition: A Technique for Database
// Concurrency Control" (MIT Sloan INFOPLEX TR #12, December 1982;
// PODS 1983).
//
// # Overview
//
// HDD is a multi-version, timestamp-based concurrency-control technique
// for databases that decompose into hierarchically related data segments:
// every update transaction writes in exactly one segment (its class's
// root) and only reads from segments higher in the hierarchy. When the
// induced data hierarchy graph is a transitive semi-tree, the engine can
// serve every cross-class read and every ad-hoc read-only read without
// taking a lock, writing a read timestamp, or waiting — while still
// guaranteeing serializability.
//
// # Quick start
//
//	part, err := hdd.NewPartition(
//		[]string{"events", "inventory"},
//		[]hdd.ClassSpec{
//			{Name: "record event", Writes: 0},
//			{Name: "post inventory", Writes: 1, Reads: []hdd.SegmentID{0}},
//		})
//	// handle err
//	eng, err := hdd.NewEngine(hdd.Config{Partition: part})
//	// handle err
//	txn, _ := eng.Begin(1)                       // class 1 update txn
//	v, _ := txn.Read(hdd.GranuleID{Segment: 0, Key: 7}) // Protocol A read
//	_ = txn.Write(hdd.GranuleID{Segment: 1, Key: 7}, v) // Protocol B write
//	_ = txn.Commit()
//
// See examples/ for complete programs, and DESIGN.md for the system
// inventory and experiment index.
package hdd

import (
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/sched"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// Re-exported identifier types. See the internal packages for full
// documentation of each.
type (
	// SegmentID identifies a data segment D_i.
	SegmentID = schema.SegmentID
	// ClassID identifies an update-transaction class T_i.
	ClassID = schema.ClassID
	// GranuleID names one data granule, the unit of concurrency control.
	GranuleID = schema.GranuleID
	// ClassSpec declares one class's root segment and readable segments.
	ClassSpec = schema.ClassSpec
	// Partition is a validated TST-legal hierarchical decomposition.
	Partition = schema.Partition
	// Time is a logical instant.
	Time = vclock.Time
	// Config parameterizes the HDD engine.
	Config = core.Config
	// Engine is the HDD concurrency-control engine.
	Engine = core.Engine
	// Txn is one transaction (update or read-only). A value Read returns
	// is the caller's, but shares a per-transaction chunk with the
	// transaction's other reads: keeping it keeps that chunk alive.
	Txn = cc.Txn
	// Stats is a snapshot of engine counters.
	Stats = cc.Stats
	// Recorder observes schedules for offline checking.
	Recorder = sched.Recorder
	// Capability is the bitmask of optional backend capabilities an engine
	// implements (see internal/cc and DESIGN.md §12). The networked client
	// reports the serving engine's set via Client.ServerInfo.
	Capability = cc.Capability
)

// Capability bits. An engine that lacks a bit answers the corresponding
// operations with ErrNotSupported (locally and over the wire).
const (
	// CapForceAbort: force-abort of in-flight transactions with reaper
	// semantics (orphan cleanup).
	CapForceAbort = cc.CapForceAbort
	// CapScopedReadOnly: read-only transactions declared over a segment
	// set via BeginReadOnlyFor.
	CapScopedReadOnly = cc.CapScopedReadOnly
	// CapActiveTxns: live in-flight transaction counting.
	CapActiveTxns = cc.CapActiveTxns
	// CapDurability: a durability layer is present and enabled.
	CapDurability = cc.CapDurability
	// CapCheckpoint: explicit snapshot/checkpointing of committed state.
	CapCheckpoint = cc.CapCheckpoint
	// CapWaitFreeReadOnly: read-only transactions never wait on anything,
	// so a server executes them without a goroutine hand-off.
	CapWaitFreeReadOnly = cc.CapWaitFreeReadOnly
)

// NoClass marks read-only transactions, which belong to no update class.
const NoClass = schema.NoClass

// ErrEngineClosed is returned by Begin/Read/Write — and by blocked reads
// that were woken — after Engine.Close. It is not an abort: retrying
// against a closed engine is pointless.
var ErrEngineClosed = cc.ErrEngineClosed

// ErrDurabilityFailed marks a durable engine's fail-stop degraded mode: a
// storage write or fsync failed, so commits can no longer be made durable
// and the engine serves reads only until it is restarted against repaired
// storage. It is not an abort — Run/RunCtx stop retrying when they see it
// — and it arrives identically from the embedded engine and over the wire
// (wire.StatusDurabilityFailed).
var ErrDurabilityFailed = cc.ErrDurabilityFailed

// ErrNotSupported is returned — locally or across the wire
// (wire.StatusUnsupported) — when an operation needs a capability the
// serving engine does not implement, e.g. BeginReadOnlyFor against a 2PL
// baseline. It is not an abort; feature-detect with Client.ServerInfo (or
// cc.CapabilitiesOf embedded) instead of retrying.
var ErrNotSupported = cc.ErrNotSupported

// NewPartition validates a hierarchical decomposition: one update class
// per segment (class i rooted in segment i), with the induced data
// hierarchy graph required to be a transitive semi-tree. See
// internal/schema.
func NewPartition(segmentNames []string, classes []ClassSpec) (*Partition, error) {
	return schema.NewPartition(segmentNames, classes)
}

// NewEngine builds an HDD engine over a validated partition. See
// internal/core.
func NewEngine(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// NewRecorder returns a schedule recorder whose Build produces the §2
// multi-version transaction dependency graph, for serializability
// checking. Pass it as Config.Recorder.
func NewRecorder() *Recorder { return sched.NewRecorder() }

// NewTracingRecorder returns a recorder that additionally retains an
// ordered human-readable event log (up to limit events; 0 for a default),
// with DumpCycle rendering any dependency cycle next to the trace of the
// transactions on it. Pass it as Config.Recorder when diagnosing.
func NewTracingRecorder(limit int) *sched.TracingRecorder {
	return sched.NewTracingRecorder(limit)
}

// IsAbort reports whether an error returned by a transaction operation
// means the engine killed the transaction and the caller should retry with
// a fresh one.
func IsAbort(err error) bool { return cc.IsAbort(err) }
