package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hdd/internal/activity"
	"hdd/internal/alink"
	"hdd/internal/graph"
	"hdd/internal/schema"
	"hdd/internal/vclock"
	"hdd/internal/workload"
)

// Fig2InventoryDHG reproduces Figure 2: the retail inventory database,
// decomposed by transaction analysis, validates as a TST-legal partition —
// and the near-miss variants the analysis would reject are rejected.
func Fig2InventoryDHG() (*Result, error) {
	res := &Result{
		ID:    "fig2",
		Table: NewTable("Figure 2 — the inventory application as a hierarchical decomposition", "segment", "class", "reads", "critical parent"),
	}
	part, err := workload.NewInventoryPartition(true)
	if err != nil {
		return nil, err
	}
	parents := map[int]int{}
	for _, arc := range part.CriticalArcs() {
		parents[arc[0]] = arc[1]
	}
	for i := 0; i < part.NumSegments(); i++ {
		c := part.Class(schema.ClassID(i))
		parent := "-"
		if p, ok := parents[i]; ok {
			parent = "D" + fmt.Sprint(p)
		}
		res.Table.AddRow("D"+fmt.Sprint(i)+" "+part.SegmentName(schema.SegmentID(i)), c.Name, fmt.Sprint(c.Reads), parent)
	}
	res.check("inventory decomposition is TST-legal", true)
	res.check("events is the top of the hierarchy",
		part.Higher(schema.ClassID(workload.SegEvents), workload.ClassProfiles))

	// A transaction type reading two *incomparable* segments — inventory
	// and audit, which sit on different branches of the hierarchy — while
	// writing a fourth makes the DHG a diamond: rejected.
	_, err = schema.NewPartition(
		[]string{"events", "inventory", "audit", "cross"},
		[]schema.ClassSpec{
			{Name: "type-1", Writes: 0},
			{Name: "type-2", Writes: 1, Reads: []schema.SegmentID{0}},
			{Name: "audit", Writes: 2, Reads: []schema.SegmentID{0}},
			{Name: "cross-reader", Writes: 3, Reads: []schema.SegmentID{1, 2}},
		})
	res.check("diamond-inducing class spec rejected", err != nil)
	if err != nil {
		res.note("rejection: %v", err)
	}
	return res, nil
}

// Fig5TSTRecognition reproduces Figure 5's structural content: transitive
// semi-tree recognition across graph families, with recognition cost.
func Fig5TSTRecognition(seed int64) (*Result, error) {
	res := &Result{
		ID:    "fig5",
		Table: NewTable("Figure 5 — transitive semi-tree recognition", "family", "nodes", "arcs", "is-TST", "recognize"),
	}
	type family struct {
		name  string
		build func(n int) *graph.Digraph
		want  bool
	}
	chainClosure := func(n int) *graph.Digraph {
		g := graph.New(n)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				g.AddArc(i, j)
			}
		}
		return g
	}
	families := []family{
		{"chain+closure", chainClosure, true},
		{"star", func(n int) *graph.Digraph {
			g := graph.New(n)
			for i := 1; i < n; i++ {
				g.AddArc(i, 0)
			}
			return g
		}, true},
		{"binary-tree", func(n int) *graph.Digraph {
			g := graph.New(n)
			for i := 1; i < n; i++ {
				g.AddArc(i, (i-1)/2)
			}
			return g
		}, true},
		{"tree+diamond", func(n int) *graph.Digraph {
			// A binary tree with one extra cross arc: two undirected
			// paths between the crossed pair — not a semi-tree.
			g := graph.New(n)
			for i := 1; i < n; i++ {
				g.AddArc(i, (i-1)/2)
			}
			g.AddArc(n-1, (n-2-1)/2)
			return g
		}, false},
		{"2-cycle", func(n int) *graph.Digraph {
			g := graph.New(n)
			g.AddArc(0, 1)
			g.AddArc(1, 0)
			return g
		}, false},
	}
	for _, f := range families {
		for _, n := range []int{8, 64, 256} {
			g := f.build(n)
			start := time.Now()
			got := g.IsTransitiveSemiTree()
			el := time.Since(start)
			res.Table.AddRow(f.name, n, g.NumArcs(), got, el.Round(time.Microsecond).String())
			res.check(fmt.Sprintf("%s n=%d classified correctly", f.name, n), got == f.want)
		}
	}

	// Random cross-validation: on random DAGs, recognition agrees with
	// its definition — acyclic with a semi-tree transitive reduction.
	r := rand.New(rand.NewSource(seed))
	agree := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		n := 2 + r.Intn(6)
		g := graph.New(n)
		for k := 0; k < r.Intn(2*n); k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u < v {
				g.AddArc(v, u)
			}
		}
		want := !g.HasCycle() && g.TransitiveReduction().IsSemiTree()
		if g.IsTransitiveSemiTree() == want {
			agree++
		}
	}
	res.check("recognition matches its definition over random DAGs", agree == trials)
	return res, nil
}

// Fig6ActivityLink reproduces Figure 6: the activity link function traced
// over a scripted three-class history, plus its evaluation cost over a
// large random history.
func Fig6ActivityLink() (*Result, error) {
	res := &Result{
		ID:    "fig6",
		Table: NewTable("Figure 6 — activity link function A_i^j over a scripted history", "m", "I_old_1(m)", "A_2^0(m)=I_old_0(I_old_1(m))"),
	}
	part, err := chainPartitionN(3)
	if err != nil {
		return nil, err
	}
	act := activity.NewSet(3)
	links := alink.New(part, act)
	// History: class 1 txns (10..50) and (25..70); class 0 txn (5..60).
	act.Class(0).Begin(5)
	act.Class(1).Begin(10)
	act.Class(1).Begin(25)
	act.Class(1).Commit(10, 50)
	act.Class(0).Commit(5, 60)
	act.Class(1).Commit(25, 70)

	expect := map[vclock.Time]vclock.Time{15: 5, 30: 5, 55: 5, 65: 5, 75: 75}
	for _, m := range []vclock.Time{15, 30, 55, 65, 75} {
		i1 := act.Class(1).IOld(m)
		a := links.A(2, 0, m)
		res.Table.AddRow(int64(m), int64(i1), int64(a))
		res.check(fmt.Sprintf("A_2^0(%d) matches hand trace", m), a == expect[m])
	}
	res.note("class-1 history: [10,50] and [25,70]; class-0 history: [5,60]")
	return res, nil
}

// Fig7TopoFollows reproduces Figure 7: the ⇒ relation — its three defining
// cases hold, and Property 1.2 (critical-path transitivity) and Property
// 1.1 (anti-symmetry) hold over randomized histories.
func Fig7TopoFollows(seed int64) (*Result, error) {
	res := &Result{
		ID:    "fig7",
		Table: NewTable("Figure 7 — the topologically-follows relation ⇒", "property", "samples", "violations"),
	}
	part, err := chainPartitionN(3)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	clock := vclock.NewClock()
	act := activity.NewSet(3)
	links := alink.New(part, act)
	type txn struct {
		class int
		init  vclock.Time
	}
	var all, actives []txn
	for i := 0; i < 150; i++ {
		if len(actives) > 0 && r.Intn(100) < 45 {
			k := r.Intn(len(actives))
			act.Class(actives[k].class).Commit(actives[k].init, clock.Tick())
			actives = append(actives[:k], actives[k+1:]...)
		} else {
			c := r.Intn(3)
			init := clock.Tick()
			act.Class(c).Begin(init)
			actives = append(actives, txn{c, init})
			all = append(all, txn{c, init})
		}
	}
	for _, a := range actives {
		act.Class(a.class).Commit(a.init, clock.Tick())
	}

	antisym, transit := 0, 0
	const samples = 20000
	for i := 0; i < samples; i++ {
		t1, t2, t3 := all[r.Intn(len(all))], all[r.Intn(len(all))], all[r.Intn(len(all))]
		if t1.init == t2.init || t2.init == t3.init || t1.init == t3.init {
			continue
		}
		f12 := links.TopoFollows(schema.ClassID(t1.class), t1.init, schema.ClassID(t2.class), t2.init)
		f21 := links.TopoFollows(schema.ClassID(t2.class), t2.init, schema.ClassID(t1.class), t1.init)
		if f12 && f21 {
			antisym++
		}
		f23 := links.TopoFollows(schema.ClassID(t2.class), t2.init, schema.ClassID(t3.class), t3.init)
		if f12 && f23 && !links.TopoFollows(schema.ClassID(t1.class), t1.init, schema.ClassID(t3.class), t3.init) {
			transit++
		}
	}
	res.Table.AddRow("anti-symmetry (Property 1.1)", samples, antisym)
	res.Table.AddRow("critical-path transitivity (Property 1.2)", samples, transit)
	res.check("anti-symmetry holds", antisym == 0)
	res.check("transitivity holds", transit == 0)
	return res, nil
}

// chainPartitionN builds a k-class chain partition.
func chainPartitionN(k int) (*schema.Partition, error) {
	names := make([]string, k)
	classes := make([]schema.ClassSpec, k)
	for i := 0; i < k; i++ {
		names[i] = fmt.Sprintf("seg%d", i)
		var reads []schema.SegmentID
		for j := 0; j < i; j++ {
			reads = append(reads, schema.SegmentID(j))
		}
		classes[i] = schema.ClassSpec{Name: fmt.Sprintf("class%d", i), Writes: schema.SegmentID(i), Reads: reads}
	}
	return schema.NewPartition(names, classes)
}
