// Package experiments implements every reproduced exhibit of Hsu (1982) —
// Figures 1 through 10 — plus the quantitative sweeps and ablations the
// paper motivates but leaves to future work (§7.4). Each experiment
// returns a rendered table (the paper-style rows) and a set of named shape
// checks ("who wins, by roughly what factor") that the test suite asserts
// and EXPERIMENTS.md records.
//
// cmd/hddbench and the repository-root benchmarks are thin wrappers over
// this package, so the printed rows are identical everywhere.
package experiments

import (
	"fmt"

	"hdd/internal/cc"
	"hdd/internal/core"
	"hdd/internal/schema"
	"hdd/internal/sdd1"
	"hdd/internal/sim"
	"hdd/internal/tso"
	"hdd/internal/twopl"
	"hdd/internal/workload"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier ("fig3", "sweep-depth", …).
	ID string
	// Table is the paper-style row set.
	Table *Table
	// Notes are free-form observations printed under the table.
	Notes []string
	// Checks are named boolean shape assertions; the test suite requires
	// all of them to hold.
	Checks map[string]bool
}

// Check records a named assertion.
func (r *Result) check(name string, ok bool) {
	if r.Checks == nil {
		r.Checks = make(map[string]bool)
	}
	r.Checks[name] = ok
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// FailedChecks lists the names of failed checks, empty when all hold.
func (r *Result) FailedChecks() []string {
	var out []string
	for name, ok := range r.Checks {
		if !ok {
			out = append(out, name)
		}
	}
	return out
}

// String renders the full experiment report.
func (r *Result) String() string {
	s := r.Table.String()
	for _, n := range r.Notes {
		s += "  note: " + n + "\n"
	}
	for name, ok := range r.Checks {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		s += fmt.Sprintf("  check %-40s %s\n", name, status)
	}
	return s
}

// EngineKind names a comparison engine.
type EngineKind string

// Comparison engines.
const (
	KindHDD   EngineKind = "HDD"
	KindSDD1  EngineKind = "SDD-1"
	KindMV2PL EngineKind = "MV2PL"
	Kind2PL   EngineKind = "2PL"
	KindTO    EngineKind = "TO"
	KindMVTO  EngineKind = "MVTO"
)

// AllEngineKinds lists the engines of the Figure 10 comparison, HDD first,
// then the two systems the paper compares against, then the classical
// context rows.
var AllEngineKinds = []EngineKind{KindHDD, KindSDD1, KindMV2PL, Kind2PL, KindTO, KindMVTO}

// buildEngine constructs an engine of the given kind over a partition.
func buildEngine(kind EngineKind, part *schema.Partition, rec cc.Recorder) (cc.Engine, error) {
	switch kind {
	case KindHDD:
		return core.NewEngine(core.Config{Partition: part, Recorder: rec, WallInterval: 512, GCEveryCommits: 256})
	case KindSDD1:
		return sdd1.NewEngine(sdd1.Config{Partition: part, Recorder: rec})
	case KindMV2PL:
		return twopl.NewEngine(twopl.Config{Variant: twopl.MultiVersion, Recorder: rec}), nil
	case Kind2PL:
		return twopl.NewEngine(twopl.Config{Variant: twopl.Strict, Recorder: rec}), nil
	case KindTO:
		return tso.NewBasic(tso.BasicConfig{Recorder: rec}), nil
	case KindMVTO:
		return tso.NewMVTO(tso.MVTOConfig{Recorder: rec}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown engine kind %q", kind)
	}
}

// inventoryMix builds the standard transaction mix over the inventory
// application: mostly event entries, periodic postings and reorder checks,
// occasional profile builds and ad-hoc reports — the shape §1.2.1
// describes.
func inventoryMix(inv *workload.Inventory, reportWeight int) []sim.TxnKind {
	mix := []sim.TxnKind{
		{Name: "type1-event", Weight: 8, Class: workload.ClassEventEntry, Fn: inv.EventEntry},
		{Name: "type2-post", Weight: 3, Class: workload.ClassInventory, Fn: inv.PostInventory},
		{Name: "type3-reorder", Weight: 2, Class: workload.ClassReorder, Fn: inv.ReorderCheck},
		{Name: "profile", Weight: 1, Class: workload.ClassProfiles, Fn: inv.BuildProfile},
	}
	if inv.Config().WithAudit {
		mix = append(mix, sim.TxnKind{Name: "audit", Weight: 1, Class: workload.ClassAudit, Fn: inv.AuditEvents})
	}
	if reportWeight > 0 {
		mix = append(mix, sim.TxnKind{Name: "report", Weight: reportWeight, ReadOnly: true, Fn: inv.Report})
	}
	return mix
}
