package experiments

import (
	"strings"
	"testing"
)

// small keeps simulator-driven experiments quick under test.
var small = Params{Seed: 17, Clients: 4, TxnsPerClient: 60}

// TestAllExperimentsChecksHold runs every registered experiment at reduced
// scale and requires every shape check to pass — the same checks
// EXPERIMENTS.md reports at full scale.
func TestAllExperimentsChecksHold(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	for _, e := range Registry {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(small)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q for experiment %q", res.ID, e.ID)
			}
			if failed := res.FailedChecks(); len(failed) > 0 {
				t.Fatalf("%s failed checks %v\n%s", e.ID, failed, res)
			}
			out := res.String()
			if !strings.Contains(out, "PASS") {
				t.Fatalf("%s: no checks rendered:\n%s", e.ID, out)
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, err := ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected error")
	}
	if len(IDs()) != len(Registry) {
		t.Fatal("IDs incomplete")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "x"}
	r.check("good", true)
	r.check("bad", false)
	r.note("n=%d", 3)
	failed := r.FailedChecks()
	if len(failed) != 1 || failed[0] != "bad" {
		t.Fatalf("FailedChecks = %v", failed)
	}
	if len(r.Notes) != 1 || r.Notes[0] != "n=3" {
		t.Fatalf("Notes = %v", r.Notes)
	}
}
