// Package fault is a deterministic fault-injection harness for
// concurrency-control engines: it wraps any cc.Engine and makes its
// clients misbehave in the ways a real deployment serving millions of
// users will see — slow operations, clients that crash mid-transaction,
// clients that abandon transactions without aborting, and commits that
// stall.
//
// The injected faults are exactly the ones HDD's liveness story is fragile
// against: an update transaction that never resolves pins I_old for its
// class, which freezes time-wall release (Protocol C reads go stale
// forever) and stops garbage collection (§5.1's computability condition is
// never met again). The harness exists to demonstrate that fragility — and
// that the core engine's deadline/reaper layer repairs it — under seeded,
// reproducible randomness.
//
// All decisions derive from Config.Seed and a per-transaction sequence
// number, so a run injects the same faults at the same transaction indices
// regardless of goroutine interleaving.
package fault

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hdd/internal/cc"
	"hdd/internal/schema"
)

// ErrCrashed is returned by operations on a transaction whose simulated
// client has crashed. It is an abort (cc.IsAbort reports true, reason
// "client-crash"), so a retry loop such as hdd.Run starts a fresh attempt
// — but the crashed client never calls Abort, and that is the point: the
// underlying transaction stays active until an engine-side reaper (or
// nothing) cleans it up. Test for it with errors.Is.
var ErrCrashed = &cc.AbortError{Reason: "client-crash"}

// Config parameterizes the injector. All probabilities are in [0, 1] and
// are evaluated independently.
type Config struct {
	// Seed makes every fault decision reproducible. Two injectors with
	// the same seed and the same per-transaction operation sequences make
	// identical decisions.
	Seed int64
	// DelayProb injects a Delay-long sleep before an operation.
	DelayProb float64
	// Delay is the injected operation latency; defaults to 1ms when
	// DelayProb > 0.
	Delay time.Duration
	// CrashProb is the per-operation probability that the client crashes
	// mid-transaction: the operation and all subsequent ones return
	// ErrCrashed, and Abort becomes a no-op, leaving the underlying
	// transaction active (abandoned).
	CrashProb float64
	// AbandonProb is the per-transaction probability, decided at Begin,
	// that the client abandons the transaction at Commit: Commit returns
	// ErrCrashed without committing or aborting.
	AbandonProb float64
	// StallProb injects a Stall-long sleep before Commit reaches the
	// engine (a slow client holding its transaction open).
	StallProb float64
	// Stall is the injected commit stall; defaults to 1ms when
	// StallProb > 0.
	Stall time.Duration
}

// Stats counts injected faults.
type Stats struct {
	Delays    int64 // operations delayed
	Crashes   int64 // clients crashed mid-transaction
	Abandoned int64 // transactions abandoned at commit
	Stalls    int64 // commits stalled
}

// Engine wraps an inner cc.Engine, injecting faults into the transactions
// it hands out. Name, Stats and Close delegate to the inner engine, so
// measurement code sees the real engine's counters.
type Engine struct {
	inner cc.Engine
	cfg   Config
	seq   atomic.Int64

	delays    atomic.Int64
	crashes   atomic.Int64
	abandoned atomic.Int64
	stalls    atomic.Int64
}

var _ cc.Engine = (*Engine)(nil)

// Wrap returns a fault-injecting engine around inner.
func Wrap(inner cc.Engine, cfg Config) *Engine {
	if cfg.DelayProb > 0 && cfg.Delay <= 0 {
		cfg.Delay = time.Millisecond
	}
	if cfg.StallProb > 0 && cfg.Stall <= 0 {
		cfg.Stall = time.Millisecond
	}
	return &Engine{inner: inner, cfg: cfg}
}

// Name implements cc.Engine, delegating to the inner engine.
func (f *Engine) Name() string { return f.inner.Name() }

// Stats implements cc.Engine, delegating to the inner engine.
func (f *Engine) Stats() cc.Stats { return f.inner.Stats() }

// Close implements cc.Engine, delegating to the inner engine.
func (f *Engine) Close() error { return f.inner.Close() }

// FaultStats reports how many faults were injected so far.
func (f *Engine) FaultStats() Stats {
	return Stats{
		Delays:    f.delays.Load(),
		Crashes:   f.crashes.Load(),
		Abandoned: f.abandoned.Load(),
		Stalls:    f.stalls.Load(),
	}
}

// Begin implements cc.Engine.
func (f *Engine) Begin(class schema.ClassID) (cc.Txn, error) {
	t, err := f.inner.Begin(class)
	if err != nil {
		return nil, err
	}
	return f.wrapTxn(t), nil
}

// BeginReadOnly implements cc.Engine.
func (f *Engine) BeginReadOnly() (cc.Txn, error) {
	t, err := f.inner.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	return f.wrapTxn(t), nil
}

func (f *Engine) wrapTxn(inner cc.Txn) *Txn {
	// Each transaction draws from its own rand stream keyed by a global
	// sequence number: decisions depend only on (seed, txn index, op
	// index), not on scheduling.
	seq := f.seq.Add(1)
	rng := rand.New(rand.NewSource(f.cfg.Seed*1_000_003 + seq))
	t := &Txn{f: f, inner: inner, rng: rng}
	t.abandon = f.cfg.AbandonProb > 0 && rng.Float64() < f.cfg.AbandonProb
	return t
}

// Txn wraps one transaction. Like all cc.Txn implementations it belongs to
// a single client goroutine; the mutex only orders the rng against the
// harness's own bookkeeping.
type Txn struct {
	f     *Engine
	inner cc.Txn

	mu      sync.Mutex
	rng     *rand.Rand
	crashed bool
	abandon bool
}

var _ cc.Txn = (*Txn)(nil)

// Inner returns the wrapped transaction, for tests that assert on the
// underlying engine's state after a simulated crash.
func (t *Txn) Inner() cc.Txn { return t.inner }

// Crashed reports whether the simulated client has crashed.
func (t *Txn) Crashed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crashed
}

// ID implements cc.Txn.
func (t *Txn) ID() cc.TxnID { return t.inner.ID() }

// Class implements cc.Txn.
func (t *Txn) Class() schema.ClassID { return t.inner.Class() }

// beforeOp injects the per-operation faults; it reports ErrCrashed when
// the simulated client crashes at (or had crashed before) this operation.
func (t *Txn) beforeOp() error {
	t.mu.Lock()
	if t.crashed {
		t.mu.Unlock()
		return ErrCrashed
	}
	cfg := &t.f.cfg
	delay := cfg.DelayProb > 0 && t.rng.Float64() < cfg.DelayProb
	crash := cfg.CrashProb > 0 && t.rng.Float64() < cfg.CrashProb
	if crash {
		t.crashed = true
	}
	t.mu.Unlock()
	if delay {
		t.f.delays.Add(1)
		time.Sleep(cfg.Delay)
	}
	if crash {
		t.f.crashes.Add(1)
		return ErrCrashed
	}
	return nil
}

// Read implements cc.Txn.
func (t *Txn) Read(g schema.GranuleID) ([]byte, error) {
	if err := t.beforeOp(); err != nil {
		return nil, err
	}
	return t.inner.Read(g)
}

// Write implements cc.Txn.
func (t *Txn) Write(g schema.GranuleID, value []byte) error {
	if err := t.beforeOp(); err != nil {
		return err
	}
	return t.inner.Write(g, value)
}

// Commit implements cc.Txn. An abandoning client returns ErrCrashed
// without committing or aborting — the transaction stays active in the
// engine until something reaps it.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.crashed {
		t.mu.Unlock()
		return ErrCrashed
	}
	if t.abandon {
		t.crashed = true
		t.mu.Unlock()
		t.f.abandoned.Add(1)
		return ErrCrashed
	}
	cfg := &t.f.cfg
	stall := cfg.StallProb > 0 && t.rng.Float64() < cfg.StallProb
	t.mu.Unlock()
	if stall {
		t.f.stalls.Add(1)
		time.Sleep(cfg.Stall)
	}
	return t.inner.Commit()
}

// Abort implements cc.Txn. A crashed client never reaches Abort, so it is
// a no-op after a crash: the underlying transaction remains active —
// exactly the stuck-transaction scenario the engine's reaper exists for.
func (t *Txn) Abort() error {
	t.mu.Lock()
	crashed := t.crashed
	t.mu.Unlock()
	if crashed {
		return nil
	}
	return t.inner.Abort()
}
