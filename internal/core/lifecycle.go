package core

// Transaction admission: the Begin* family. Every path follows the same
// shape — class gate (update transactions only), barrier-windowed
// initiation tick, counter/recorder bookkeeping, registration with the
// reaper — and differs only in the protocol state it pins at begin. Both
// read-only variants share beginReadOnly.

import (
	"fmt"

	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// Begin implements cc.Engine: it starts an update transaction of the given
// class, with the engine's configured transaction timeout.
func (e *Engine) Begin(class schema.ClassID) (cc.Txn, error) {
	t, _, err := e.begin(class, false)
	return t, err
}

// TryBegin is Begin for a caller that must not wait: it reports ok=false,
// having done nothing, while a checkpoint holds or awaits the class gate.
func (e *Engine) TryBegin(class schema.ClassID) (t cc.Txn, ok bool, err error) {
	return e.begin(class, true)
}

// begin is Begin, or with try set TryBegin.
func (e *Engine) begin(class schema.ClassID, try bool) (cc.Txn, bool, error) {
	if class < 0 || int(class) >= e.part.NumClasses() {
		return nil, true, fmt.Errorf("core: unknown class %d", class)
	}
	if err := e.closedErr(); err != nil {
		return nil, true, err
	}
	// Fail-stop (DESIGN.md §11): a poisoned engine admits no new update
	// work — its commits could not be made durable. Read-only begins stay
	// open.
	if err := e.rejectDegraded(); err != nil {
		return nil, true, err
	}
	if !try {
		e.gate[class].RLock()
	} else if !e.gate[class].TryRLock() {
		return nil, false, nil
	}
	// BeginTxn's barrier window guarantees that any instant later drawn
	// through the activity set's TickBarrier observes this registration —
	// the property every I_old(m) evaluation relies on (see activity.Set).
	init := e.act.BeginTxn(int(class), e.clock)
	e.countBegin(class, init)
	e.rec.RecordBegin(init, class, false)
	t := &updateTxn{eng: e, init: init, class: class, deadline: deadlineFor(e.txnTimeout)}
	e.live.register(init, t)
	return t, true, nil
}

// BeginReadOnly implements cc.Engine: it starts an ad-hoc read-only
// transaction under Protocol C, reading below the most recently released
// time wall (§5.2). It never blocks and never registers reads.
func (e *Engine) BeginReadOnly() (cc.Txn, error) {
	return e.beginReadOnly(schema.NoClass)
}

// BeginReadOnlyOnPath starts a read-only transaction whose entire read set
// lies on the critical path through base and upward (§5, Figure 8). It runs
// as a fictitious update class immediately below base: every read uses a
// Protocol A threshold, so it sees fresher data than a Protocol C
// transaction without registering anything. Reads outside the critical path
// through base fail the class check.
func (e *Engine) BeginReadOnlyOnPath(base schema.ClassID) (cc.Txn, error) {
	if base < 0 || int(base) >= e.part.NumClasses() {
		return nil, fmt.Errorf("core: unknown class %d", base)
	}
	return e.beginReadOnly(base)
}

// beginReadOnly starts a read-only transaction: under Protocol C when base
// is schema.NoClass, as the fictitious class below base otherwise. Either
// way the bounds' smallest instant is registered as a GC floor for the
// transaction's lifetime.
func (e *Engine) beginReadOnly(base schema.ClassID) (cc.Txn, error) {
	if err := e.closedErr(); err != nil {
		return nil, err
	}
	t := &readOnlyTxn{eng: e, base: base, deadline: deadlineFor(e.txnTimeout)}
	if base == schema.NoClass {
		t.init = e.clock.Tick()
		// Acquiring (rather than just reading) the wall pins its floor
		// against garbage collection: a newer wall may release meanwhile,
		// and GC keyed only to the current wall would prune versions this
		// transaction's wall still directs it to.
		wall, floor := e.walls.AcquireCurrent()
		t.bounds, t.floor = wall.Component, floor
	} else {
		// The fictitious-class thresholds evaluate I_old at this instant,
		// so it must be a barrier tick. They are pinned eagerly for every
		// segment on the critical path: the values are functions of init
		// alone, and pinning both fixes them against activity-history
		// pruning and gives the floor to register.
		t.init = e.act.TickBarrier(e.clock)
		t.bounds = make([]vclock.Time, e.part.NumSegments())
		floor := t.init
		for s := range t.bounds {
			target := schema.ClassID(s)
			if target != base && !e.part.Higher(target, base) {
				t.bounds[s] = offPath
				continue
			}
			t.bounds[s] = e.links.AFrom(base, target, t.init)
			floor = vclock.Min(floor, t.bounds[s])
		}
		e.walls.AcquireFloor(floor)
		t.floor = floor
	}
	e.roCounts().begins.Inc()
	e.rec.RecordBegin(t.init, schema.NoClass, true)
	e.live.register(t.init, t)
	return t, nil
}

// BeginReadOnlyFor starts a read-only transaction declared to read only
// the given segments, choosing the protocol the way §5 prescribes: if the
// segments lie on one critical path of the DHG, the transaction runs as a
// fictitious class below the path's lowest class (Protocol A semantics —
// fresher); otherwise it reads below the current time wall (Protocol C).
// Reads outside the declared set fail under the on-path variant and are
// allowed (wall-bounded) under the wall variant.
func (e *Engine) BeginReadOnlyFor(segments ...schema.SegmentID) (cc.Txn, error) {
	if err := e.checkSegments(segments...); err != nil {
		return nil, err
	}
	classes := make([]schema.ClassID, len(segments))
	for i, s := range segments {
		classes[i] = schema.ClassID(s)
	}
	if len(classes) > 0 && e.part.OnOneCriticalPath(classes) {
		// The base is the lowest declared class: every other declared
		// segment is on the critical path above it.
		base := classes[0]
		for _, c := range classes[1:] {
			if e.part.Higher(base, c) {
				base = c
			}
		}
		return e.BeginReadOnlyOnPath(base)
	}
	return e.BeginReadOnly()
}

// checkSegments rejects a segment the partition does not have.
func (e *Engine) checkSegments(segs ...schema.SegmentID) error {
	for _, s := range segs {
		if s < 0 || int(s) >= e.part.NumSegments() {
			return fmt.Errorf("core: unknown segment %d", s)
		}
	}
	return nil
}
