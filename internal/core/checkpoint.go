package core

import (
	"fmt"
	"io"
	"sync"

	"hdd/internal/mvstore"
)

// classGate is one RWMutex per class. An update transaction of class c
// holds gate[c] shared for its lifetime; WriteCheckpoint and Snapshot take
// every class exclusively (lockAll), which waits for the in-flight update
// transactions to finish and holds off new ones until unlockAll. Read-only
// transactions never touch it.
type classGate []sync.RWMutex

// lockAll acquires every class exclusively, in ascending order.
func (g classGate) lockAll() {
	for i := range g {
		g[i].Lock()
	}
}

func (g classGate) unlockAll() {
	for i := len(g) - 1; i >= 0; i-- {
		g[i].Unlock()
	}
}

// WriteCheckpoint quiesces update processing (it takes every class gate
// exclusively, waiting for in-flight update transactions to finish and
// briefly holding off new ones) and serializes every committed version to
// w. Read-only transactions keep running against released walls
// throughout — the store serializes the committed versions of each chain's
// published array, immutable once committed, so the checkpointer and the
// wait-free readers share memory without synchronizing, and the quiesced
// gates guarantee the chains are mutually consistent. A committed value longer than one log frame carries
// (just under 1 MiB; every wire.MaxValue-sized value fits) is an error.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	e.gate.lockAll()
	defer e.gate.unlockAll()
	if _, err := e.store.WriteCheckpoint(w); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// NewEngineFromCheckpoint builds an engine whose store is recovered from a
// checkpoint. Pending state never survives a checkpoint (uncommitted
// transactions are discarded by recovery, the standard multi-version
// story), and the logical clock restarts above the checkpoint's highest
// timestamp so every new transaction orders after everything recovered.
// cfg.Clock, if supplied, is advanced with Observe rather than replaced.
func NewEngineFromCheckpoint(cfg Config, r io.Reader) (*Engine, error) {
	if cfg.Durability != DurabilityNone {
		// WAL-backed engines recover from Config.DataDir (snapshot + log)
		// inside NewEngine; layering an explicit checkpoint under that
		// would leave two sources of truth.
		return nil, fmt.Errorf("core: NewEngineFromCheckpoint requires DurabilityNone; WAL engines recover from Config.DataDir")
	}
	store, high, err := mvstore.ReadCheckpoint(r)
	if err != nil {
		return nil, fmt.Errorf("core: recovering checkpoint: %w", err)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.clock.Observe(high)
	e.store = store
	// The wall manager computed its initial wall against the empty store;
	// recompute after the clock advanced so the first read-only
	// transactions see the recovered state.
	e.walls.Force()
	return e, nil
}
