package experiments

import (
	"fmt"
	"sort"
)

// Params are the shared experiment parameters.
type Params struct {
	// Seed makes runs reproducible.
	Seed int64
	// Clients is the number of concurrent clients for simulator-driven
	// experiments (0 = default).
	Clients int
	// TxnsPerClient is each client's committed-transaction quota (0 =
	// default).
	TxnsPerClient int
}

// Runner produces one experiment result.
type Runner func(Params) (*Result, error)

// Registry maps experiment ids to runners, in the order of the DESIGN.md
// experiment index.
var Registry = []struct {
	ID    string
	Brief string
	Run   Runner
}{
	{"fig1", "lost update: uncontrolled vs every engine", func(p Params) (*Result, error) { return Fig1LostUpdate(p.Seed) }},
	{"fig2", "inventory application as a TST-legal decomposition", func(Params) (*Result, error) { return Fig2InventoryDHG() }},
	{"fig3", "2PL without read locks admits the anomaly; HDD does not", func(Params) (*Result, error) { return Fig3TwoPLAnomaly() }},
	{"fig4", "TO without read timestamps admits the anomaly; HDD does not", func(Params) (*Result, error) { return Fig4TOAnomaly() }},
	{"fig5", "transitive semi-tree recognition", func(p Params) (*Result, error) { return Fig5TSTRecognition(p.Seed) }},
	{"fig6", "activity link function trace", func(Params) (*Result, error) { return Fig6ActivityLink() }},
	{"fig7", "topologically-follows relation properties", func(p Params) (*Result, error) { return Fig7TopoFollows(p.Seed) }},
	{"fig8", "read-only transactions on vs off a critical path", func(p Params) (*Result, error) { return Fig8ReadOnlyPath(p.Seed) }},
	{"fig9", "time walls: interval vs freshness and consistency", func(p Params) (*Result, error) { return Fig9TimeWall(p.Seed) }},
	{"fig10", "HDD vs SDD-1 vs MV2PL (plus 2PL/TO/MVTO)", func(p Params) (*Result, error) { return Fig10Comparison(p.Seed, p.Clients, p.TxnsPerClient) }},
	{"sweep-depth", "read-sync overhead vs hierarchy depth", func(p Params) (*Result, error) { return SweepDepth(p.Seed, p.Clients, p.TxnsPerClient) }},
	{"sweep-readfrac", "overhead vs cross-class read fraction", func(p Params) (*Result, error) { return SweepReadFraction(p.Seed, p.Clients, p.TxnsPerClient) }},
	{"sweep-contention", "abort behaviour vs hot-set skew", func(p Params) (*Result, error) { return SweepContention(p.Seed, p.Clients, p.TxnsPerClient) }},
	{"ablate-rootproto", "Protocol B root variant: basic TO vs MVTO", func(p Params) (*Result, error) { return AblateRootProtocol(p.Seed, p.Clients, p.TxnsPerClient) }},
	{"ablate-deployment", "shared-memory vs message-passing segment controllers", func(p Params) (*Result, error) { return AblateDeployment(p.Seed, p.Clients, p.TxnsPerClient) }},
	{"ablate-gc", "version garbage collection ablation", func(p Params) (*Result, error) { return AblateGC(p.Seed) }},
}

// IDs returns the registered experiment ids in registry order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// ByID finds a runner, or an error listing the valid ids.
func ByID(id string) (Runner, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run, nil
		}
	}
	ids := IDs()
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, ids)
}
