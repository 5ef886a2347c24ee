package segctl

import (
	"bytes"
	"fmt"

	"hdd/internal/activity"
	"hdd/internal/alink"
	"hdd/internal/cc"
	"hdd/internal/schema"
	"hdd/internal/vclock"
)

// Config parameterizes the message-passing HDD engine.
type Config struct {
	// Partition is the validated TST-legal decomposition. Required.
	Partition *schema.Partition
	// Clock is the logical clock; a fresh one is created if nil.
	Clock *vclock.Clock
	// WallInterval paces time-wall releases (§5.2). Defaults to 256.
	WallInterval vclock.Time
	// InboxDepth is each controller's channel depth. Defaults to 128.
	InboxDepth int
	// Recorder observes the schedule; nil means no recording.
	Recorder cc.Recorder
}

// Engine is the segment-controller deployment of HDD: identical protocols
// to internal/core, with each segment's data plane owned by a dedicated
// goroutine.
type Engine struct {
	part  *schema.Partition
	clock *vclock.Clock
	act   *activity.Set
	links *alink.Links
	walls *alink.WallManager
	ctls  []*Controller
	rec   cc.Recorder
	ctr   cc.Counters
}

var _ cc.Engine = (*Engine)(nil)

// NewEngine builds the engine and starts one controller per segment.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("segctl: Config.Partition is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewClock()
	}
	if cfg.WallInterval <= 0 {
		cfg.WallInterval = 256
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 128
	}
	if cfg.Recorder == nil {
		cfg.Recorder = cc.NopRecorder{}
	}
	act := activity.NewSet(cfg.Partition.NumClasses())
	links := alink.New(cfg.Partition, act)
	e := &Engine{
		part:  cfg.Partition,
		clock: cfg.Clock,
		act:   act,
		links: links,
		walls: alink.NewWallManager(links, cfg.Clock, cfg.WallInterval, cfg.Partition.LowestClasses()[0]),
		ctls:  make([]*Controller, cfg.Partition.NumSegments()),
		rec:   cfg.Recorder,
	}
	for i := range e.ctls {
		e.ctls[i] = NewController(schema.SegmentID(i), cfg.InboxDepth)
	}
	return e, nil
}

// Name implements cc.Engine.
func (e *Engine) Name() string { return "HDD-msg" }

// Close implements cc.Engine: it stops every controller.
func (e *Engine) Close() error {
	for _, c := range e.ctls {
		c.Stop()
	}
	return nil
}

// Stats implements cc.Engine.
func (e *Engine) Stats() cc.Stats { return e.ctr.Snapshot() }

// Walls exposes the wall manager for tests.
func (e *Engine) Walls() *alink.WallManager { return e.walls }

// Registrations sums read registrations across controllers.
func (e *Engine) Registrations() int64 {
	var total int64
	for _, c := range e.ctls {
		_, regs := c.Stats()
		total += regs
	}
	return total
}

// TotalVersions sums retained versions across controllers.
func (e *Engine) TotalVersions() int {
	total := 0
	for _, c := range e.ctls {
		n, _ := c.Stats()
		total += n
	}
	return total
}

// controller returns segment s's controller.
func (e *Engine) controller(s schema.SegmentID) *Controller { return e.ctls[s] }

// Begin implements cc.Engine.
func (e *Engine) Begin(class schema.ClassID) (cc.Txn, error) {
	if class < 0 || int(class) >= e.part.NumClasses() {
		return nil, fmt.Errorf("segctl: unknown class %d", class)
	}
	init := e.act.BeginTxn(int(class), e.clock)
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, class, false)
	return &txn{eng: e, init: init, class: class}, nil
}

// BeginReadOnly implements cc.Engine (Protocol C).
func (e *Engine) BeginReadOnly() (cc.Txn, error) {
	init := e.clock.Tick()
	wall := e.walls.Current()
	e.ctr.Begins.Add(1)
	e.rec.RecordBegin(init, schema.NoClass, true)
	return &roTxn{eng: e, init: init, wall: wall}, nil
}

// txn is an update transaction against the controllers.
type txn struct {
	eng    *Engine
	init   vclock.Time
	class  schema.ClassID
	done   bool
	writes map[schema.GranuleID][]byte
}

var _ cc.Txn = (*txn)(nil)

// ID implements cc.Txn.
func (t *txn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *txn) Class() schema.ClassID { return t.class }

// Read implements cc.Txn with Protocols A and B over message passing.
func (t *txn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	e := t.eng
	e.ctr.Reads.Add(1)
	if v, ok := t.writes[g]; ok {
		e.rec.RecordRead(t.init, g, t.init, true)
		return bytes.Clone(v), nil
	}
	root := e.part.Class(t.class).Writes
	switch {
	case g.Segment == root:
		// The store returns shared immutable memory; the cc.Txn boundary
		// owes the caller a defensive copy.
		val, vts, ok := e.controller(g.Segment).ReadRegistered(g, t.init, t.init)
		e.ctr.ReadRegistrations.Add(1)
		e.rec.RecordRead(t.init, g, vts, ok)
		return bytes.Clone(val), nil
	case e.part.MayRead(t.class, g.Segment):
		bound := e.links.A(t.class, schema.ClassID(g.Segment), t.init)
		val, vts, ok := e.controller(g.Segment).ReadBelow(g, bound)
		e.rec.RecordRead(t.init, g, vts, ok)
		return bytes.Clone(val), nil
	default:
		err := &cc.AbortError{Reason: cc.ReasonClassViolation,
			Err: fmt.Errorf("class %d may not read segment %d", t.class, g.Segment)}
		t.abort()
		return nil, err
	}
}

// Write implements cc.Txn (Protocol B, root segment only).
func (t *txn) Write(g schema.GranuleID, value []byte) error {
	if t.done {
		return cc.ErrTxnDone
	}
	e := t.eng
	e.ctr.Writes.Add(1)
	if !e.part.MayWrite(t.class, g.Segment) {
		err := &cc.AbortError{Reason: cc.ReasonClassViolation,
			Err: fmt.Errorf("class %d may not write segment %d", t.class, g.Segment)}
		t.abort()
		return err
	}
	value = bytes.Clone(value) // the one copy: store and write set share it
	if _, ok := t.writes[g]; ok {
		e.controller(g.Segment).UpdatePending(g, t.init, value)
		t.writes[g] = value
		return nil
	}
	if err := e.controller(g.Segment).InstallChecked(g, t.init, value); err != nil {
		e.ctr.RejectedWrites.Add(1)
		t.abort()
		return &cc.AbortError{Reason: cc.ReasonWriteRejected, Err: err}
	}
	if t.writes == nil {
		t.writes = make(map[schema.GranuleID][]byte)
	}
	t.writes[g] = value
	e.rec.RecordWrite(t.init, g, t.init)
	return nil
}

// Commit implements cc.Txn: flip versions at the root controller, then
// resolve in the activity table (same ordering discipline as
// internal/core).
func (t *txn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	e := t.eng
	if len(t.writes) > 0 {
		root := e.part.Class(t.class).Writes
		e.controller(root).Commit(t.granules(), t.init, e.clock.Now())
	}
	at := e.act.FinishTxn(int(t.class), t.init, e.clock, false)
	e.ctr.Commits.Add(1)
	e.rec.RecordCommit(t.init, at)
	e.walls.Poll()
	return nil
}

// Abort implements cc.Txn.
func (t *txn) Abort() error {
	if t.done {
		return nil
	}
	t.abort()
	return nil
}

func (t *txn) abort() {
	if t.done {
		return
	}
	t.done = true
	e := t.eng
	if len(t.writes) > 0 {
		root := e.part.Class(t.class).Writes
		e.controller(root).Abort(t.granules(), t.init)
	}
	at := e.act.FinishTxn(int(t.class), t.init, e.clock, true)
	e.ctr.Aborts.Add(1)
	e.rec.RecordAbort(t.init, at)
	e.walls.Poll()
}

func (t *txn) granules() []schema.GranuleID {
	out := make([]schema.GranuleID, 0, len(t.writes))
	for g := range t.writes {
		out = append(out, g)
	}
	return out
}

// roTxn is a Protocol C transaction.
type roTxn struct {
	eng  *Engine
	init vclock.Time
	wall *alink.TimeWall
	done bool
}

var _ cc.Txn = (*roTxn)(nil)

// ID implements cc.Txn.
func (t *roTxn) ID() cc.TxnID { return t.init }

// Class implements cc.Txn.
func (t *roTxn) Class() schema.ClassID { return schema.NoClass }

// Read implements cc.Txn: latest committed below the wall component.
func (t *roTxn) Read(g schema.GranuleID) ([]byte, error) {
	if t.done {
		return nil, cc.ErrTxnDone
	}
	if g.Segment < 0 || int(g.Segment) >= len(t.wall.Component) {
		return nil, fmt.Errorf("segctl: unknown segment %d", g.Segment)
	}
	e := t.eng
	e.ctr.Reads.Add(1)
	val, vts, ok := e.controller(g.Segment).ReadBelow(g, t.wall.Threshold(g.Segment))
	e.rec.RecordRead(t.init, g, vts, ok)
	// The store returns shared immutable memory; the cc.Txn boundary owes
	// the caller a defensive copy.
	return bytes.Clone(val), nil
}

// Write implements cc.Txn; read-only transactions cannot write.
func (t *roTxn) Write(schema.GranuleID, []byte) error {
	return fmt.Errorf("segctl: write in a read-only transaction")
}

// Commit implements cc.Txn.
func (t *roTxn) Commit() error {
	if t.done {
		return cc.ErrTxnDone
	}
	t.done = true
	t.eng.ctr.Commits.Add(1)
	t.eng.rec.RecordCommit(t.init, t.eng.clock.Tick())
	return nil
}

// Abort implements cc.Txn.
func (t *roTxn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	t.eng.ctr.Aborts.Add(1)
	t.eng.rec.RecordAbort(t.init, t.eng.clock.Tick())
	return nil
}
