package alink

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// WallManager periodically computes and releases time walls as §5.2
// prescribes: the system picks a starting class of one of the lowest levels
// and the current time, waits until every C_late on the way is computable,
// and then releases the wall to all read-only transactions that start
// before the next release.
//
// Rather than a dedicated goroutine, the manager is advanced opportunistically:
// the engine calls Poll after every transaction completion (the only events
// that can make a pending wall computable) and at read-only initiation. This
// keeps wall progress deterministic under test while matching the paper's
// "compute at certain intervals" behaviour through the Interval parameter.
type WallManager struct {
	links    *Links
	clock    *vclock.Clock
	interval vclock.Time
	start    schema.ClassID

	mu      sync.Mutex
	current *TimeWall
	// pendingAt is the instant m of a wall that has been scheduled but is
	// not yet computable; 0 means none pending. lastScheduled is the
	// instant the most recent wall was scheduled at, used to pace
	// releases by interval. Both change only under mu; they are atomic so
	// that Poll can see without mu that it has nothing to do.
	pendingAt     atomic.Int64
	lastScheduled atomic.Int64
	released      int // number of walls released, for metrics
	attempts      int // number of computability attempts, for metrics
	// floors is a multiset of instants still referenced by in-flight
	// readers (read-only transactions pinned to earlier walls, path
	// read-only transactions with pinned thresholds). SafeFloor must
	// cover them: garbage collection against only the *current* wall
	// would prune versions and history a reader holding an older wall
	// still needs.
	floors map[vclock.Time]int
}

// NewWallManager creates a manager releasing walls roughly every interval
// logical ticks, starting from the given class (normally one of the
// partition's lowest classes). An initial wall at the current instant is
// computed immediately; on a quiescent system every C_late is trivially
// computable, so Current is non-nil from construction onward.
func NewWallManager(links *Links, clock *vclock.Clock, interval vclock.Time, start schema.ClassID) *WallManager {
	if interval < 1 {
		interval = 1
	}
	m := &WallManager{links: links, clock: clock, interval: interval, start: start, floors: make(map[vclock.Time]int)}
	m.mu.Lock()
	m.scheduleLocked(links.TickBarrier(clock))
	m.tryReleaseLocked()
	m.mu.Unlock()
	return m
}

func (m *WallManager) scheduleLocked(now vclock.Time) {
	m.pendingAt.Store(int64(now))
	m.lastScheduled.Store(int64(now))
}

func (m *WallManager) tryReleaseLocked() bool {
	at := vclock.Time(m.pendingAt.Load())
	if at == 0 {
		return false
	}
	m.attempts++
	w, ok := m.links.ComputeWall(m.start, at)
	if !ok {
		return false
	}
	w.Released = m.clock.Tick()
	m.current = w
	m.pendingAt.Store(0)
	m.released++
	return true
}

// Poll advances the manager: schedules a new wall if the release interval
// has elapsed, and attempts to release any pending wall. It returns true if
// a wall was released by this call.
//
// With no wall pending and the interval not yet elapsed there is nothing
// to do, and Poll returns without taking mu. A completion that makes a
// pending wall computable cannot be missed this way: a wall is scheduled
// (pendingAt stored) before its first release attempt, so a Poll that
// still loads pendingAt == 0 follows a completion that attempt sees.
func (m *WallManager) Poll() bool {
	now := m.clock.Now()
	if m.pendingAt.Load() == 0 && now-vclock.Time(m.lastScheduled.Load()) < m.interval {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pendingAt.Load() == 0 && now-vclock.Time(m.lastScheduled.Load()) >= m.interval {
		// Barrier tick: every transaction initiated below the wall's
		// instant is already registered, so the E evaluation at m is
		// stable and the release check sees every admitted transaction.
		m.scheduleLocked(m.links.TickBarrier(m.clock))
	}
	return m.tryReleaseLocked()
}

// Force schedules and releases a wall at the current instant, retrying
// until computable as transactions drain. It blocks the caller; it is meant
// for shutdown barriers and tests, not the transaction path.
func (m *WallManager) Force() *TimeWall {
	m.mu.Lock()
	m.scheduleLocked(m.links.TickBarrier(m.clock))
	for !m.tryReleaseLocked() {
		// Transactions must complete for C_late to become computable.
		// Drop the lock so they can, yield, then retry.
		m.mu.Unlock()
		runtime.Gosched()
		m.mu.Lock()
	}
	w := m.current
	m.mu.Unlock()
	return w
}

// Current returns the most recently released wall. It is never nil.
func (m *WallManager) Current() *TimeWall {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// AcquireCurrent returns the most recent wall and registers its smallest
// component, floor, as an in-flight floor until Release(floor). Read-only
// transactions acquire their wall this way so garbage collection never
// prunes versions or activity history their (possibly superseded) wall
// still directs them to.
func (m *WallManager) AcquireCurrent() (w *TimeWall, floor vclock.Time) {
	m.mu.Lock()
	w = m.current
	floor = wallFloor(w)
	m.floors[floor]++
	m.mu.Unlock()
	return w, floor
}

// AcquireFloor registers an arbitrary instant as an in-flight floor until
// Release(floor) (path read-only transactions pin their activity-link
// thresholds this way).
func (m *WallManager) AcquireFloor(floor vclock.Time) {
	m.mu.Lock()
	m.floors[floor]++
	m.mu.Unlock()
}

// Release drops one hold of floor. Each acquisition must be released
// exactly once: floors are a multiset, and a second release would drop
// another holder's pin of the same instant. Releasing a floor nobody
// holds panics.
func (m *WallManager) Release(floor vclock.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch n := m.floors[floor]; {
	case n > 1:
		m.floors[floor]--
	case n == 1:
		delete(m.floors, floor)
	default:
		panic(fmt.Sprintf("alink: release of floor %d, which is not held", floor))
	}
}

func wallFloor(w *TimeWall) vclock.Time {
	floor := w.At
	for _, c := range w.Component {
		if c < floor {
			floor = c
		}
	}
	return floor
}

// SafeFloor returns the earliest instant any current or in-flight wall may
// still direct a reader to: the minimum over the released wall's
// components, any pending (scheduled but not yet computable) wall instant,
// and every floor acquired by an in-flight reader. Garbage collection and
// activity-history pruning must not advance past it.
func (m *WallManager) SafeFloor() vclock.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	floor := vclock.Infinity
	if at := vclock.Time(m.pendingAt.Load()); at != 0 && at < floor {
		floor = at
	}
	if m.current != nil {
		if f := wallFloor(m.current); f < floor {
			floor = f
		}
	}
	for f := range m.floors {
		if f < floor {
			floor = f
		}
	}
	return floor
}

// Stats reports the number of walls released and computability attempts.
func (m *WallManager) Stats() (released, attempts int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.released, m.attempts
}
