// Command hddsim runs a free-form simulation: pick an engine, a workload,
// client count and duration knobs; it prints throughput, latency and the
// synchronization counters the paper's comparison is about.
//
// Usage:
//
//	hddsim -engine HDD -workload inventory -clients 16 -txns 500
//	hddsim -engine 2PL -workload chain -segments 4 -crossfrac 0.8
//	hddsim -engine all -workload inventory
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hdd/internal/enginereg"
	"hdd/internal/experiments"
	"hdd/internal/schema"
	"hdd/internal/sim"
	"hdd/internal/workload"
)

func main() {
	var (
		engine    = flag.String("engine", "HDD", "engine: "+strings.Join(enginereg.Names(), ", ")+", or 'all'")
		wl        = flag.String("workload", "inventory", "workload: inventory, banking, chain, star, tree")
		clients   = flag.Int("clients", 8, "concurrent clients")
		txns      = flag.Int("txns", 300, "committed transactions per client")
		seed      = flag.Int64("seed", 1, "random seed")
		segments  = flag.Int("segments", 4, "segments for synthetic workloads")
		crossfrac = flag.Float64("crossfrac", 0.5, "cross-class read fraction for synthetic workloads")
		hotfrac   = flag.Float64("hotfrac", 0.0, "hot-set access fraction for synthetic workloads")
		opdelay   = flag.Duration("opdelay", 0, "simulated storage latency per operation (e.g. 50us)")
		rofrac    = flag.Int("roweight", 2, "read-only transaction weight in the mix")
	)
	flag.Parse()

	engines := []string{*engine}
	if *engine == "all" {
		engines = enginereg.Names()
	}

	tab := experiments.NewTable(
		fmt.Sprintf("hddsim — workload=%s clients=%d txns/client=%d opdelay=%v", *wl, *clients, *txns, *opdelay),
		"engine", "committed", "retries", "reg-reads/txn", "blocked-reads/txn", "rejects/txn", "deadlocks", "p50", "p99", "txn/s")

	for _, name := range engines {
		part, mix, err := buildWorkload(*wl, *segments, *crossfrac, *hotfrac, *rofrac)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		eng, err := enginereg.Build(name, enginereg.Options{
			Partition:      part,
			WallInterval:   512,
			GCEveryCommits: 256,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res, err := sim.Run(sim.Config{
			Engine:        eng,
			Mix:           mix,
			Clients:       *clients,
			TxnsPerClient: *txns,
			Seed:          *seed,
			OpDelay:       *opdelay,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hddsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		st := res.Stats
		tab.AddRow(name, res.Committed, res.Retries,
			experiments.Ratio(st.ReadRegistrations, res.Committed),
			experiments.Ratio(st.BlockedReads, res.Committed),
			experiments.Ratio(st.RejectedReads+st.RejectedWrites, res.Committed),
			st.Deadlocks,
			res.Latency.Quantile(0.5).Round(time.Microsecond).String(),
			res.Latency.Quantile(0.99).Round(time.Microsecond).String(),
			res.Throughput())
		_ = eng.Close()
	}
	fmt.Print(tab)
}

func buildWorkload(name string, segments int, crossfrac, hotfrac float64, roWeight int) (*schema.Partition, []sim.TxnKind, error) {
	switch name {
	case "inventory":
		inv, err := workload.NewInventory(workload.InventoryConfig{Items: 64, WithAudit: true, ReorderPoint: 20})
		if err != nil {
			return nil, nil, err
		}
		mix := []sim.TxnKind{
			{Name: "type1-event", Weight: 8, Class: workload.ClassEventEntry, Fn: inv.EventEntry},
			{Name: "type2-post", Weight: 3, Class: workload.ClassInventory, Fn: inv.PostInventory},
			{Name: "type3-reorder", Weight: 2, Class: workload.ClassReorder, Fn: inv.ReorderCheck},
			{Name: "profile", Weight: 1, Class: workload.ClassProfiles, Fn: inv.BuildProfile},
			{Name: "audit", Weight: 1, Class: workload.ClassAudit, Fn: inv.AuditEvents},
		}
		if roWeight > 0 {
			mix = append(mix, sim.TxnKind{Name: "report", Weight: roWeight, ReadOnly: true, Fn: inv.Report})
		}
		return inv.Partition(), mix, nil
	case "banking":
		b, err := workload.NewBanking(64)
		if err != nil {
			return nil, nil, err
		}
		return b.Partition(), []sim.TxnKind{
			{Name: "transfer", Weight: 1, Class: workload.ClassTeller, Fn: b.Transfer},
		}, nil
	case "chain", "star", "tree":
		top := map[string]workload.Topology{"chain": workload.Chain, "star": workload.Star, "tree": workload.Tree}[name]
		syn, err := workload.NewSynthetic(workload.SyntheticConfig{
			Topology: top, Segments: segments,
			GranulesPerSegment: 2048, CrossReadFraction: crossfrac, HotFraction: hotfrac,
		})
		if err != nil {
			return nil, nil, err
		}
		var mix []sim.TxnKind
		for c := 0; c < segments; c++ {
			mix = append(mix, sim.TxnKind{
				Name: fmt.Sprintf("class-%d", c), Weight: 2,
				Class: schema.ClassID(c), Fn: syn.UpdateTxn(schema.ClassID(c)),
			})
		}
		if roWeight > 0 {
			mix = append(mix, sim.TxnKind{Name: "read-only", Weight: roWeight, ReadOnly: true, Fn: syn.ReadOnlyTxn(8)})
		}
		return syn.Partition(), mix, nil
	default:
		return nil, nil, fmt.Errorf("hddsim: unknown workload %q", name)
	}
}
