// Benchmarks — one per reproduced figure/table of Hsu (1982) plus the
// sweeps and ablations. Each benchmark runs the corresponding experiment
// from internal/experiments (the same code cmd/hddbench prints tables
// from), fails if any shape check regresses, and reports the headline
// quantity as a custom metric.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are environment-dependent; the *shapes* (who wins, by
// roughly what factor) are asserted by the checks and recorded in
// EXPERIMENTS.md.
package hdd_test

import (
	"testing"

	"hdd/internal/experiments"
)

// benchParams keeps a single benchmark iteration around a second.
var benchParams = experiments.Params{Seed: 1, Clients: 8, TxnsPerClient: 100}

func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	run, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := run(benchParams)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if failed := res.FailedChecks(); len(failed) > 0 {
			b.Fatalf("%s: failed shape checks %v\n%s", id, failed, res)
		}
		last = res
	}
	return last
}

// BenchmarkFig1LostUpdate — Figure 1: the lost-update anomaly vs every
// controlled engine.
func BenchmarkFig1LostUpdate(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2InventoryDHG — Figure 2: building and validating the
// inventory decomposition.
func BenchmarkFig2InventoryDHG(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3TwoPLAnomaly — Figure 3: 2PL without read locks admits a
// non-serializable schedule; HDD does not.
func BenchmarkFig3TwoPLAnomaly(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4TOAnomaly — Figure 4: TO without read timestamps admits a
// non-serializable schedule; HDD does not.
func BenchmarkFig4TOAnomaly(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5TSTRecognition — Figure 5: transitive semi-tree
// recognition across graph families.
func BenchmarkFig5TSTRecognition(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6ActivityLink — Figure 6: the activity link function traced
// over a scripted history.
func BenchmarkFig6ActivityLink(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7TopoFollows — Figure 7: anti-symmetry and critical-path
// transitivity of ⇒ over randomized histories.
func BenchmarkFig7TopoFollows(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8ReadOnlyPath — Figure 8: on-path vs wall-pinned read-only
// transactions.
func BenchmarkFig8ReadOnlyPath(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9TimeWall — Figure 9: wall release interval vs freshness
// and cross-branch consistency.
func BenchmarkFig9TimeWall(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Comparison — Figure 10: HDD vs SDD-1 vs MV2PL (plus
// 2PL/TO/MVTO context rows) on the inventory workload.
func BenchmarkFig10Comparison(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkSweepDepth — read-registration savings vs hierarchy depth.
func BenchmarkSweepDepth(b *testing.B) { runExperiment(b, "sweep-depth") }

// BenchmarkSweepReadFraction — savings vs cross-class read fraction.
func BenchmarkSweepReadFraction(b *testing.B) { runExperiment(b, "sweep-readfrac") }

// BenchmarkSweepContention — abort behaviour vs hot-set skew.
func BenchmarkSweepContention(b *testing.B) { runExperiment(b, "sweep-contention") }

// BenchmarkAblateGC — §7.3 design choice: version garbage collection.
func BenchmarkAblateGC(b *testing.B) { runExperiment(b, "ablate-gc") }

// BenchmarkAblateRootProtocol — §4.2 either/or: basic TO vs MVTO inside
// the root segment.
func BenchmarkAblateRootProtocol(b *testing.B) { runExperiment(b, "ablate-rootproto") }

// BenchmarkAblateDeployment — §4.2/§7.5: shared-memory vs message-passing
// segment controllers.
func BenchmarkAblateDeployment(b *testing.B) { runExperiment(b, "ablate-deployment") }
