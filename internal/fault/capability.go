package fault

// Capability passthrough: Wrap must not strip the inner engine's extended
// surface. fault.Engine structurally implements every optional capability
// interface and reports — via cc.CapabilityReporter — exactly the set the
// inner engine backs, so cc.CapabilitiesOf and the cc.As* helpers see
// through the wrapper. BeginReadOnlyFor hands out fault-injected
// transactions like Begin/BeginReadOnly do; a capability the inner engine
// lacks fails with cc.ErrNotSupported instead of panicking.

import (
	"hdd/internal/cc"
	"hdd/internal/schema"
)

var (
	_ cc.CapabilityReporter     = (*Engine)(nil)
	_ cc.ForceAborter           = (*Engine)(nil)
	_ cc.ScopedReadOnlyBeginner = (*Engine)(nil)
	_ cc.ActiveTxnCounter       = (*Engine)(nil)
	_ cc.DurabilityIntrospector = (*Engine)(nil)
	_ cc.Checkpointer           = (*Engine)(nil)
)

// Capabilities implements cc.CapabilityReporter: the wrapper backs exactly
// what the inner engine backs — except the wait-free promise, which no
// engine keeps once a fault plan may stall any of its calls.
func (f *Engine) Capabilities() cc.Capability {
	return cc.CapabilitiesOf(f.inner) &^ cc.CapWaitFreeReadOnly
}

// ForceAbort implements cc.ForceAborter by delegation; it reports false
// when the inner engine lacks the capability.
func (f *Engine) ForceAbort(id cc.TxnID) bool {
	if a, ok := cc.AsForceAborter(f.inner); ok {
		return a.ForceAbort(id)
	}
	return false
}

// BeginReadOnlyFor implements cc.ScopedReadOnlyBeginner, injecting faults
// into the returned transaction.
func (f *Engine) BeginReadOnlyFor(segments ...schema.SegmentID) (cc.Txn, error) {
	b, ok := cc.AsScopedReadOnlyBeginner(f.inner)
	if !ok {
		return nil, cc.NotSupported(f.Name(), "BeginReadOnlyFor")
	}
	t, err := b.BeginReadOnlyFor(segments...)
	if err != nil {
		return nil, err
	}
	return f.wrapTxn(t), nil
}

// ActiveTxns implements cc.ActiveTxnCounter by delegation (0 when the
// inner engine lacks it).
func (f *Engine) ActiveTxns() int {
	if a, ok := cc.AsActiveTxnCounter(f.inner); ok {
		return a.ActiveTxns()
	}
	return 0
}

// DurabilityState implements cc.DurabilityIntrospector by delegation.
func (f *Engine) DurabilityState() (cc.DurabilityState, bool) {
	if d, ok := cc.AsDurabilityIntrospector(f.inner); ok {
		return d.DurabilityState()
	}
	return cc.DurabilityState{}, false
}

// Snapshot implements cc.Checkpointer by delegation.
func (f *Engine) Snapshot() error {
	if c, ok := cc.AsCheckpointer(f.inner); ok {
		return c.Snapshot()
	}
	return cc.NotSupported(f.Name(), "Snapshot")
}
