package obs

import (
	"sync/atomic"
	"time"
)

// Kind classifies a traced engine event.
type Kind uint8

const (
	// KindWallRelease: a time wall released (F1 = wall instant m,
	// F2 = release tick).
	KindWallRelease Kind = 1 + iota
	// KindBeginWindow: a class's begin window advanced (Class set,
	// F1 = the sampled window's initiation tick). Recorded with a stride
	// (see core's instrumentation) so a hot begin path cannot drown the
	// ring.
	KindBeginWindow
	// KindReap: the reaper (or an orphan teardown via ForceAbort)
	// force-aborted a transaction (Class set, F1 = txn id).
	KindReap
	// KindGCPrune: a GC cycle ran (F1 = watermark, F2 = store versions
	// pruned, F3 = chains visited).
	KindGCPrune
	// KindWALFlush: the WAL flushed a batch (F1 = records, F2 = commit
	// waiters acknowledged, F3 = fsync µs).
	KindWALFlush
	// KindSnapshot: a checkpoint was published and the log truncated
	// (F1 = log bytes superseded, F2 = duration µs).
	KindSnapshot
	// KindDegraded: the durability layer latched fail-stop degraded mode.
	KindDegraded
)

// String returns the kind's wire name, as used in /debug/events JSON.
func (k Kind) String() string {
	switch k {
	case KindWallRelease:
		return "wall-release"
	case KindBeginWindow:
		return "begin-window"
	case KindReap:
		return "reap"
	case KindGCPrune:
		return "gc-prune"
	case KindWALFlush:
		return "wal-flush"
	case KindSnapshot:
		return "snapshot"
	case KindDegraded:
		return "degraded"
	}
	return "unknown"
}

// fieldNames maps each kind to the JSON names of its F1..F3 payload
// fields; unnamed trailing fields are omitted from the JSON.
var fieldNames = map[Kind][]string{
	KindWallRelease: {"wall_at", "released_tick"},
	KindBeginWindow: {"window_tick"},
	KindReap:        {"txn"},
	KindGCPrune:     {"watermark", "pruned", "visited"},
	KindWALFlush:    {"records", "waiters", "sync_us"},
	KindSnapshot:    {"log_bytes", "took_us"},
	KindDegraded:    nil,
}

// Event is one traced engine event. Class is -1 when the event is not
// class-scoped; the meaning of F1..F3 depends on Kind (see the Kind
// constants and fieldNames).
type Event struct {
	Seq   uint64
	At    int64 // unix nanoseconds
	Kind  Kind
	Class int32
	F1    int64
	F2    int64
	F3    int64
}

// NoClass marks an event that is not scoped to one class.
const NoClass int32 = -1

// ringSlot holds one event decomposed into atomic words so concurrent
// writers lapping the ring and readers snapshotting it never perform a
// non-atomic access. seq is the slot's seqlock: 2*pos+1 while the writer
// of position pos is mid-store, 2*pos+2 once stable, 0 while never
// written. kc packs Kind (high 32 bits) and Class (low 32, two's
// complement).
type ringSlot struct {
	seq atomic.Uint64
	at  atomic.Int64
	kc  atomic.Uint64
	f1  atomic.Int64
	f2  atomic.Int64
	f3  atomic.Int64
}

// Ring is a bounded lock-free trace of engine events. Writers claim a
// global position with one atomic add and store into the slot it maps to;
// when the ring is full the oldest events are overwritten (the drop
// policy: trace freshness beats completeness — the metrics registry holds
// the lossless aggregates). Readers validate each slot's sequence before
// and after copying, skipping slots mid-overwrite.
//
// A nil *Ring is valid and records nothing, so instrumented code needs no
// guard of its own.
type Ring struct {
	mask  uint64
	head  atomic.Uint64 // next position to claim; total events recorded
	slots []ringSlot
}

// NewRing builds a ring holding n events, rounded up to a power of two
// (minimum 64).
func NewRing(n int) *Ring {
	size := 64
	for size < n {
		size <<= 1
	}
	return &Ring{mask: uint64(size - 1), slots: make([]ringSlot, size)}
}

// Record appends one event. It never blocks and never allocates; the
// wall-clock stamp is taken here.
func (r *Ring) Record(k Kind, class int32, f1, f2, f3 int64) {
	if r == nil {
		return
	}
	pos := r.head.Add(1) - 1
	s := &r.slots[pos&r.mask]
	s.seq.Store(2*pos + 1)
	s.at.Store(time.Now().UnixNano())
	s.kc.Store(uint64(k)<<32 | uint64(uint32(class)))
	s.f1.Store(f1)
	s.f2.Store(f2)
	s.f3.Store(f3)
	s.seq.Store(2*pos + 2)
}

// Len reports how many events have ever been recorded (not how many are
// retained).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Snapshot returns up to max retained events, oldest first. Events being
// overwritten concurrently are skipped, so the result is always a set of
// fully consistent events; max <= 0 means all retained.
func (r *Ring) Snapshot(max int) []Event {
	if r == nil {
		return nil
	}
	head := r.head.Load()
	n := uint64(len(r.slots))
	if head < n {
		n = head
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Event, 0, n)
	for pos := head - n; pos < head; pos++ {
		s := &r.slots[pos&r.mask]
		want := 2*pos + 2
		if s.seq.Load() != want {
			continue // never written, or a lapping writer is mid-store
		}
		kc := s.kc.Load()
		ev := Event{
			Seq:   pos + 1,
			At:    s.at.Load(),
			Kind:  Kind(kc >> 32),
			Class: int32(uint32(kc)),
			F1:    s.f1.Load(),
			F2:    s.f2.Load(),
			F3:    s.f3.Load(),
		}
		if s.seq.Load() != want {
			continue // overwritten while copying
		}
		out = append(out, ev)
	}
	return out
}
