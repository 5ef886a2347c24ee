package experiments

import (
	"fmt"
	"math/rand"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/enginereg"
	"hdd/internal/naive"
	"hdd/internal/sched"
	"hdd/internal/schema"
	"hdd/internal/sim"
	"hdd/internal/workload"
)

// Fig1LostUpdate reproduces Figure 1: the lost-update anomaly. An
// uncontrolled executor interleaves two deposit transactions exactly as
// the paper's schedule does and loses one; every engine in the comparison
// set, driven with genuinely concurrent transfers, preserves the invariant
// sum(balances) == sum(applied deltas).
func Fig1LostUpdate(seed int64) (*Result, error) {
	res := &Result{
		ID:    "fig1",
		Table: NewTable("Figure 1 — lost update under uncontrolled interleaving vs. controlled engines", "executor", "transfers", "expected", "observed", "lost", "retries"),
	}

	// The paper's exact schedule, uncontrolled: t1 deposits 50, t2
	// withdraws 50 from a $100 account; both read before either writes.
	balance := int64(100)
	read1 := balance
	read2 := balance
	w1 := read1 + 50
	w2 := read2 - 50
	balance = w1
	balance = w2
	res.Table.AddRow("uncontrolled (paper's schedule)", 2, 100, balance, 100-balance != 0, 0)
	res.check("uncontrolled loses an update", balance != 100)

	// Controlled: concurrent random transfers through each engine.
	bank, err := workload.NewBanking(8)
	if err != nil {
		return nil, err
	}
	for _, name := range fig10Engines {
		eng, err := enginereg.Build(name, engineOptions(bank.Partition()))
		if err != nil {
			return nil, err
		}
		// Deterministic accounting: every transfer applies +1, so a sound
		// engine must end with sum(balances) == committed transfers —
		// deltas of aborted attempts must not survive.
		plusOne := func(tx cc.Txn, r *rand.Rand) error {
			return bank.TransferDelta(tx, r.Intn(bank.Accounts()), 1)
		}
		r, err := sim.Run(sim.Config{
			Engine:        eng,
			Clients:       8,
			TxnsPerClient: 50,
			Seed:          seed,
			Mix:           []sim.TxnKind{{Name: "deposit-1", Weight: 1, Class: workload.ClassTeller, Fn: plusOne}},
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sum, err := auditSum(bank, eng)
		if err != nil {
			return nil, fmt.Errorf("%s: audit: %w", name, err)
		}
		expected := r.Committed
		res.Table.AddRow(name, r.Committed, expected, sum, expected-sum, r.Retries)
		res.check(fmt.Sprintf("%s preserves the balance invariant", name), sum == expected)
		_ = eng.Close()
	}
	res.note("each committed deposit adds exactly 1; a sound engine ends with sum == committed count")
	return res, nil
}

// auditSum reads the total balance through a fresh transaction.
func auditSum(bank *workload.Banking, eng cc.Engine) (sum int64, err error) {
	err = hdd.Run(eng, workload.ClassTeller, func(t hdd.Txn) error {
		var err error
		sum, err = bank.AuditSum(t)
		return err
	}, sim.RetryPolicy)
	return sum, err
}

// figure34Partition is the 3-level slice of the inventory application the
// Figure 3/4 schedules run over.
func figure34Partition() (*schema.Partition, error) {
	return schema.NewPartition(
		[]string{"events", "inventory", "on-order"},
		[]schema.ClassSpec{
			{Name: "type-1", Writes: 0},
			{Name: "type-2", Writes: 1, Reads: []schema.SegmentID{0}},
			{Name: "type-3", Writes: 2, Reads: []schema.SegmentID{0, 1}},
		})
}

// runFig34Timing drives the paper's three-transaction interleaving (the
// type-3 transaction reads the arrival record before it exists, then reads
// the inventory level after type-2 folded the arrival in).
func runFig34Timing(eng cc.Engine) error {
	gEvent := schema.GranuleID{Segment: 0, Key: 1}
	gLevel := schema.GranuleID{Segment: 1, Key: 1}
	gOrder := schema.GranuleID{Segment: 2, Key: 1}

	t3, err := eng.Begin(2)
	if err != nil {
		return err
	}
	if _, err := t3.Read(gEvent); err != nil {
		return fmt.Errorf("t3 early read: %w", err)
	}
	t1, err := eng.Begin(0)
	if err != nil {
		return err
	}
	if err := t1.Write(gEvent, []byte("arrival-y")); err != nil {
		return fmt.Errorf("t1 write: %w", err)
	}
	if err := t1.Commit(); err != nil {
		return err
	}
	t2, err := eng.Begin(1)
	if err != nil {
		return err
	}
	if _, err := t2.Read(gEvent); err != nil {
		return fmt.Errorf("t2 read: %w", err)
	}
	if err := t2.Write(gLevel, []byte("level-with-y")); err != nil {
		return fmt.Errorf("t2 write: %w", err)
	}
	if err := t2.Commit(); err != nil {
		return err
	}
	if _, err := t3.Read(gLevel); err != nil {
		return fmt.Errorf("t3 level read: %w", err)
	}
	if err := t3.Write(gOrder, []byte("order")); err != nil {
		return fmt.Errorf("t3 write: %w", err)
	}
	return t3.Commit()
}

// figAnomaly is the shared implementation of Figures 3 and 4.
func figAnomaly(id, title string, flavor naive.Flavor) (*Result, error) {
	res := &Result{
		ID:    id,
		Table: NewTable(title, "engine", "serializable", "cycle-len", "cross-reads-registered"),
	}
	part, err := figure34Partition()
	if err != nil {
		return nil, err
	}

	// Sabotaged engine.
	recN := sched.NewRecorder()
	ne, err := naive.NewEngine(naive.Config{Partition: part, Flavor: flavor, Recorder: recN})
	if err != nil {
		return nil, err
	}
	if err := runFig34Timing(ne); err != nil {
		return nil, fmt.Errorf("%s timing: %w", ne.Name(), err)
	}
	gN := recN.Build()
	cyc := gN.FindCycle()
	cycLen := 0
	if cyc != nil {
		cycLen = len(cyc) - 1
	}
	res.Table.AddRow(ne.Name(), gN.Serializable(), cycLen, 0)
	res.check("sabotaged engine admits the anomaly", !gN.Serializable())
	res.check("the cycle involves all three transactions", cycLen == 3)
	res.note("cycle under %s:\n%s", ne.Name(), gN.ExplainCycle())

	// HDD under the identical interleaving.
	recH := sched.NewRecorder()
	he, err := core.NewEngine(core.Config{Partition: part, Recorder: recH})
	if err != nil {
		return nil, err
	}
	if err := runFig34Timing(he); err != nil {
		return nil, fmt.Errorf("HDD timing: %w", err)
	}
	gH := recH.Build()
	crossRegs := he.Store().Stats().ReadRegistrations
	res.Table.AddRow("HDD", gH.Serializable(), 0, crossRegs)
	res.check("HDD stays serializable under the same timing", gH.Serializable())
	res.check("HDD registered no reads at all", crossRegs == 0)
	return res, nil
}

// Fig3TwoPLAnomaly reproduces Figure 3: 2PL minus cross-class read locks.
func Fig3TwoPLAnomaly() (*Result, error) {
	return figAnomaly("fig3",
		"Figure 3 — without read locks, 2PL admits a non-serializable schedule; HDD does not",
		naive.LockingNoReadLocks)
}

// Fig4TOAnomaly reproduces Figure 4: TO minus cross-class read timestamps.
func Fig4TOAnomaly() (*Result, error) {
	return figAnomaly("fig4",
		"Figure 4 — without read timestamps, TO admits a non-serializable schedule; HDD does not",
		naive.TimestampNoReadStamps)
}
