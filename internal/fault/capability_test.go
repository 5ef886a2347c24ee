package fault

import (
	"errors"
	"testing"

	"hdd/internal/cc"
	"hdd/internal/twopl"
)

// TestCapabilityPassthrough: wrapping *core.Engine must not hide its
// extended surface — the wrapper reports the inner engine's capability set
// and delegates every capability, injecting faults into transactions the
// scoped read-only begin hands out.
func TestCapabilityPassthrough(t *testing.T) {
	e := testEngine(t)
	f := Wrap(e, Config{Seed: 1})

	inner, outer := cc.CapabilitiesOf(e), cc.CapabilitiesOf(f)
	// Everything passes through except the wait-free promise: a fault plan
	// can stall any call, so a server must not run the wrapper's read-only
	// transactions on its session goroutine.
	if !inner.Has(cc.CapWaitFreeReadOnly) {
		t.Fatalf("*core.Engine does not declare %v: %v", cc.CapWaitFreeReadOnly, inner)
	}
	if outer != inner&^cc.CapWaitFreeReadOnly {
		t.Fatalf("capabilities through the wrapper: inner %v, outer %v, want inner minus %v", inner, outer, cc.CapWaitFreeReadOnly)
	}
	want := cc.CapForceAbort | cc.CapScopedReadOnly | cc.CapActiveTxns
	if !outer.Has(want) {
		t.Fatalf("capabilities = %v, want at least %v", outer, want)
	}
	// Memory-only engine: no durability capability.
	if outer.Has(cc.CapDurability) || outer.Has(cc.CapCheckpoint) {
		t.Fatalf("memory-only engine reports durability capabilities: %v", outer)
	}

	txn, err := f.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	ft := txn.(*Txn)

	// ForceAbort through the wrapper reaches the inner engine's reap path.
	fa, ok := cc.AsForceAborter(f)
	if !ok {
		t.Fatal("AsForceAborter(wrapper) = false with a capable inner engine")
	}
	if !fa.ForceAbort(txn.ID()) {
		t.Fatal("ForceAbort through the wrapper did not find the transaction")
	}
	if err := ft.Inner().Write(g(0, 1), []byte("dead")); !cc.IsAbort(err) {
		t.Fatalf("write after force-abort: %v, want abort", err)
	}
	if e.Stats().ReapedTxns < 1 {
		t.Fatal("ForceAbort did not use reaper semantics")
	}

	// Scoped read-only begins delegate and wrap.
	ro, ok := cc.AsScopedReadOnlyBeginner(f)
	if !ok {
		t.Fatal("AsScopedReadOnlyBeginner(wrapper) = false")
	}
	rt, err := ro.BeginReadOnlyFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.(*Txn); !ok {
		t.Fatalf("BeginReadOnlyFor returned %T, want *Txn", rt)
	}
	if err := rt.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestCapabilityFaultsApplyToExtendedBegins: transactions from capability
// begins are subject to injection like any other — a CrashProb=1 client
// crashes on its first operation.
func TestCapabilityFaultsApplyToExtendedBegins(t *testing.T) {
	e := testEngine(t)
	f := Wrap(e, Config{Seed: 7, CrashProb: 1})
	txn, err := f.BeginReadOnlyFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(g(0, 1)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read = %v, want ErrCrashed", err)
	}
	// The abandoned inner transaction is the reaper's problem, as always.
	if n := e.ActiveTxns(); n != 1 {
		t.Fatalf("ActiveTxns = %d after simulated crash, want 1", n)
	}
	if !e.ForceAbort(txn.ID()) {
		t.Fatal("inner transaction not reapable")
	}
}

// TestCapabilityVetoOnBareEngine: wrapping an engine without the extended
// surface must not invent it — the As* helpers refuse, and calling the
// structural methods anyway fails typed, never panics.
func TestCapabilityVetoOnBareEngine(t *testing.T) {
	f := Wrap(twopl.NewEngine(twopl.Config{Variant: twopl.MultiVersion}), Config{Seed: 1})

	if caps := cc.CapabilitiesOf(f); caps != 0 {
		t.Fatalf("capabilities of wrapped bare engine = %v, want none", caps)
	}
	if _, ok := cc.AsForceAborter(f); ok {
		t.Fatal("AsForceAborter = true for a bare inner engine")
	}
	if _, ok := cc.AsScopedReadOnlyBeginner(f); ok {
		t.Fatal("AsScopedReadOnlyBeginner = true for a bare inner engine")
	}
	if _, ok := cc.AsDurabilityIntrospector(f); ok {
		t.Fatal("AsDurabilityIntrospector = true for a bare inner engine")
	}
	if fa := f.ForceAbort(1); fa {
		t.Fatal("ForceAbort on a bare inner engine reported success")
	}
	if _, err := f.BeginReadOnlyFor(0); !errors.Is(err, cc.ErrNotSupported) {
		t.Fatalf("BeginReadOnlyFor = %v, want ErrNotSupported", err)
	}
	if err := f.Snapshot(); !errors.Is(err, cc.ErrNotSupported) {
		t.Fatalf("Snapshot = %v, want ErrNotSupported", err)
	}
	if _, on := f.DurabilityState(); on {
		t.Fatal("DurabilityState reports enabled for a bare inner engine")
	}
}
