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

	"hdd/internal/enginereg"
	"hdd/internal/schema"
	"hdd/internal/sim"
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

// fig10Engines lists the engines of the Figure 10 comparison by their
// internal/enginereg names: HDD first, then the two systems the paper
// compares against, then the classical context rows.
var fig10Engines = []string{"HDD", "SDD-1", "MV2PL", "2PL", "TO", "MVTO"}

// engineOptions are the settings every engine of a comparison is built
// with.
func engineOptions(part *schema.Partition) enginereg.Options {
	return enginereg.Options{Partition: part, WallInterval: 512, GCEveryCommits: 256}
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
