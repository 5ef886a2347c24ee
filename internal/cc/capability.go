package cc

// The backend capability contract. cc.Engine is deliberately small — Begin,
// BeginReadOnly, Stats, Close — because that is all six baselines share.
// Everything else the service stack uses (orphan force-abort, §5 scoped
// read-only begins, durability introspection, checkpointing) is an
// *optional* capability: a narrow interface an engine may additionally
// implement. The server feature-detects capabilities at session setup via
// CapabilitiesOf/As* and answers opcodes that need a missing capability
// with a typed "unsupported" status instead of panicking or silently
// misbehaving (DESIGN.md §12).

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hdd/internal/schema"
)

// ErrNotSupported reports that an operation needs a capability the engine
// does not implement (e.g. BeginReadOnlyFor against a 2PL backend). It is not
// an AbortError — retrying cannot help — and it round-trips the wire as a
// typed status so errors.Is(err, ErrNotSupported) holds remotely too.
var ErrNotSupported = errors.New("cc: operation not supported by this engine")

// NotSupported wraps ErrNotSupported with the operation name, for error
// messages that say which capability was missing from which engine.
func NotSupported(engine, op string) error {
	return fmt.Errorf("%w: %s does not implement %s", ErrNotSupported, engine, op)
}

// ForceAborter force-aborts an in-flight transaction with reaper semantics:
// held versions, admission gates and wall floors are released immediately
// and the kill is counted in Stats().ReapedTxns. The server uses it to
// clean up after disconnected clients.
type ForceAborter interface {
	// ForceAbort reports whether it found (and killed) the transaction.
	ForceAbort(id TxnID) bool
}

// TimeoutBeginner is the begin method of the removed per-transaction
// deadline. No engine implements it and no capability bit names it; it
// stays declared only because the separate bench module still references
// it.
type TimeoutBeginner interface {
	BeginWithTimeout(class schema.ClassID, timeout time.Duration) (Txn, error)
}

// AdHocBeginner is the begin method of the removed §7.1 ad-hoc update
// transactions. No engine implements it and no capability bit names it;
// it stays declared only because the separate bench module still
// references it.
type AdHocBeginner interface {
	BeginAdHocFor(writeSeg schema.SegmentID, reads ...schema.SegmentID) (Txn, error)
}

// ScopedReadOnlyBeginner begins read-only transactions declared to read
// only the given segments, letting the engine pick the freshest protocol
// the declaration allows (§5: fictitious-class Protocol A on one critical
// path, wall-bounded Protocol C otherwise).
type ScopedReadOnlyBeginner interface {
	BeginReadOnlyFor(segments ...schema.SegmentID) (Txn, error)
}

// ActiveTxnCounter reports the number of in-flight transactions, for drain
// checks and the server's active_txns gauge.
type ActiveTxnCounter interface {
	ActiveTxns() int
}

// StatKV is one named counter in an extended stats listing (the durability
// counters a DurabilityIntrospector exposes). A flat name/value list keeps
// the wire payload free of engine-specific struct shapes.
type StatKV struct {
	Name  string
	Value int64
}

// DurabilityState is a snapshot of an engine's durability layer.
type DurabilityState struct {
	// Degraded reports the fail-stop state: storage failed, commits can no
	// longer be made durable, and the engine serves reads only. Cause
	// carries the poisoning error's text.
	Degraded bool
	Cause    string
	// Counters is a flat list of durability counters (wal_records,
	// wal_log_bytes, wal_replayed_records, …) suitable for a Stats wire
	// response as-is.
	Counters []StatKV
}

// DurabilityIntrospector is implemented by engines with a durability
// layer. The second return is false when durability is disabled for this
// instance (a memory-only configuration); capability detection treats that
// the same as not implementing the interface at all.
type DurabilityIntrospector interface {
	DurabilityState() (DurabilityState, bool)
}

// Checkpointer persists a checkpoint of committed state and truncates the
// engine's log, the §7.3 log-bounding duty. The server calls it once on
// graceful shutdown so the next boot replays an empty log.
type Checkpointer interface {
	Snapshot() error
}

// WaitFreeReadOnly is declared by an engine whose read-only transactions
// synchronise with nobody: neither BeginReadOnly(For) nor any Read, Commit
// or Abort on what it returns ever waits on a transaction, lock or
// storage (HDD's Protocol C, Theorem 2). The server runs such transactions
// on the goroutine that read the request. The method does nothing.
type WaitFreeReadOnly interface {
	WaitFreeReadOnly()
}

// Capability is a bitmask of the optional backend interfaces an engine
// implements, the form capability bits take on the wire (hello payload)
// and in stats output.
type Capability uint32

const (
	// CapForceAbort: the engine implements ForceAborter.
	CapForceAbort Capability = 1 << iota
	// Bits 1 and 2 named the removed per-transaction deadline and ad-hoc
	// begin capabilities; they stay unassigned.
	_
	_
	// CapScopedReadOnly: the engine implements ScopedReadOnlyBeginner.
	CapScopedReadOnly
	// CapActiveTxns: the engine implements ActiveTxnCounter.
	CapActiveTxns
	// CapDurability: the engine implements DurabilityIntrospector AND
	// durability is enabled for this instance.
	CapDurability
	// CapCheckpoint: the engine implements Checkpointer and durability is
	// enabled (a checkpoint of a memory-only engine is meaningless).
	CapCheckpoint
	// CapWaitFreeReadOnly: the engine declares WaitFreeReadOnly — a
	// property, not a method: a wrapper that can stall calls must clear it.
	CapWaitFreeReadOnly
)

var capNames = []struct {
	bit  Capability
	name string
}{
	{CapForceAbort, "force-abort"},
	{CapScopedReadOnly, "scoped-readonly"},
	{CapActiveTxns, "active-txns"},
	{CapDurability, "durability"},
	{CapCheckpoint, "checkpoint"},
	{CapWaitFreeReadOnly, "waitfree-readonly"},
}

// Has reports whether every bit of want is set.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String renders the set bits as a comma-separated list ("none" when empty).
func (c Capability) String() string {
	var parts []string
	for _, n := range capNames {
		if c.Has(n.bit) {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// CapabilityReporter lets a wrapping engine (fault injection, future
// sharding proxies) report the capability set of the engine it wraps.
// Wrappers must implement every capability method so the concrete type
// assertions succeed; the reported set then says which of those methods are
// genuinely backed by the inner engine. CapabilitiesOf and the As* helpers
// consult it before trusting a bare type assertion.
type CapabilityReporter interface {
	Capabilities() Capability
}

// CapabilitiesOf feature-detects an engine's capability set.
func CapabilitiesOf(e Engine) Capability {
	if r, ok := e.(CapabilityReporter); ok {
		return r.Capabilities()
	}
	var c Capability
	if _, ok := e.(ForceAborter); ok {
		c |= CapForceAbort
	}
	if _, ok := e.(ScopedReadOnlyBeginner); ok {
		c |= CapScopedReadOnly
	}
	if _, ok := e.(ActiveTxnCounter); ok {
		c |= CapActiveTxns
	}
	if d, ok := e.(DurabilityIntrospector); ok {
		if _, on := d.DurabilityState(); on {
			c |= CapDurability
			if _, ok := e.(Checkpointer); ok {
				c |= CapCheckpoint
			}
		}
	}
	if _, ok := e.(WaitFreeReadOnly); ok {
		c |= CapWaitFreeReadOnly
	}
	return c
}

// The As* helpers are the only sanctioned way to reach a capability: they
// combine the type assertion with the CapabilityReporter veto, so a wrapper
// that structurally has a method it cannot back never gets it called.

// AsForceAborter returns the engine's ForceAborter capability, if backed.
func AsForceAborter(e Engine) (ForceAborter, bool) {
	if a, ok := e.(ForceAborter); ok && CapabilitiesOf(e).Has(CapForceAbort) {
		return a, true
	}
	return nil, false
}

// AsScopedReadOnlyBeginner returns the engine's ScopedReadOnlyBeginner
// capability, if backed.
func AsScopedReadOnlyBeginner(e Engine) (ScopedReadOnlyBeginner, bool) {
	if b, ok := e.(ScopedReadOnlyBeginner); ok && CapabilitiesOf(e).Has(CapScopedReadOnly) {
		return b, true
	}
	return nil, false
}

// AsActiveTxnCounter returns the engine's ActiveTxnCounter capability, if backed.
func AsActiveTxnCounter(e Engine) (ActiveTxnCounter, bool) {
	if a, ok := e.(ActiveTxnCounter); ok && CapabilitiesOf(e).Has(CapActiveTxns) {
		return a, true
	}
	return nil, false
}

// AsDurabilityIntrospector returns the engine's DurabilityIntrospector
// capability, if backed and enabled for this instance.
func AsDurabilityIntrospector(e Engine) (DurabilityIntrospector, bool) {
	if d, ok := e.(DurabilityIntrospector); ok && CapabilitiesOf(e).Has(CapDurability) {
		return d, true
	}
	return nil, false
}

// AsCheckpointer returns the engine's Checkpointer capability, if backed
// and durability is enabled for this instance.
func AsCheckpointer(e Engine) (Checkpointer, bool) {
	if c, ok := e.(Checkpointer); ok && CapabilitiesOf(e).Has(CapCheckpoint) {
		return c, true
	}
	return nil, false
}
