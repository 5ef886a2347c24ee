// Package sim drives a concurrency-control engine with concurrent clients
// executing a weighted mix of workload transactions — the measurement
// substrate for every quantitative experiment (§7.4's "efficacy of the HDD
// approach", which the paper leaves to future work and this reproduction
// carries out).
//
// A Runner starts one goroutine per client; each repeatedly picks a
// transaction kind by weight and runs it to commit through hdd.Run, which
// retries from scratch on abort (the runner counts the retries). The run is bounded by
// transactions per client, so results are comparable across engines
// regardless of their speed.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hdd"
	"hdd/internal/cc"
	"hdd/internal/schema"
)

// RetryPolicy is the simulator's retry schedule for hdd.Run: an aborted
// attempt is retried at once, with no backoff, and a transaction still
// aborting after 10 000 retries fails the run (a guard against livelock
// in broken engines).
var RetryPolicy = hdd.RetryPolicy{MaxAttempts: 10001, Sleep: func(time.Duration) {}}

// TxnKind is one entry in a workload mix.
type TxnKind struct {
	// Name labels the kind in reports.
	Name string
	// Weight is the relative frequency (> 0).
	Weight int
	// Class is the update class, or schema.NoClass with ReadOnly.
	Class schema.ClassID
	// ReadOnly selects Engine.BeginReadOnly.
	ReadOnly bool
	// Fn is the transaction body. A returned abort error triggers a
	// retry; any other error fails the run.
	Fn func(cc.Txn, *rand.Rand) error
}

// Config parameterizes a run.
type Config struct {
	// Engine under test.
	Engine cc.Engine
	// Mix is the weighted transaction mix; at least one kind.
	Mix []TxnKind
	// Clients is the number of concurrent clients. Defaults to 8.
	Clients int
	// TxnsPerClient is each client's committed-transaction quota.
	// Defaults to 100.
	TxnsPerClient int
	// Seed makes the run reproducible.
	Seed int64
	// OpDelay injects a fixed latency before every read and write,
	// modelling the storage access a real system would pay. With it,
	// blocking and serialization show up in throughput — the pure
	// in-memory engines are otherwise so fast that synchronization
	// stalls are invisible. Zero disables.
	OpDelay time.Duration
}

// Result summarizes a run.
type Result struct {
	// Committed is the number of committed transactions (clients ×
	// quota).
	Committed int64
	// Retries is the number of aborted attempts that were retried.
	Retries int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Stats is the engine counter delta over the run.
	Stats cc.Stats
}

// Throughput returns committed transactions per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// Run executes the configured workload and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("sim: Config.Engine is required")
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("sim: Config.Mix is empty")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.TxnsPerClient <= 0 {
		cfg.TxnsPerClient = 100
	}
	totalWeight := 0
	for i, k := range cfg.Mix {
		if k.Weight <= 0 {
			return nil, fmt.Errorf("sim: mix entry %d (%q) has non-positive weight", i, k.Name)
		}
		if k.Fn == nil {
			return nil, fmt.Errorf("sim: mix entry %d (%q) has nil Fn", i, k.Name)
		}
		totalWeight += k.Weight
	}

	before := cfg.Engine.Stats()

	var (
		retries  atomic.Int64
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(client)*7919))
			for n := 0; n < cfg.TxnsPerClient; n++ {
				kind := pick(cfg.Mix, totalWeight, r)
				retried, err := runOne(cfg.Engine, kind, r, cfg.OpDelay)
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("sim: client %d: %w", client, err) })
					return
				}
				retries.Add(int64(retried))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	return &Result{
		Committed: int64(cfg.Clients) * int64(cfg.TxnsPerClient),
		Retries:   retries.Load(),
		Elapsed:   elapsed,
		Stats:     cfg.Engine.Stats().Sub(before),
	}, nil
}

// delayTxn wraps a transaction, paying a fixed latency per operation.
type delayTxn struct {
	cc.Txn
	d time.Duration
}

// Read implements cc.Txn with the injected latency.
func (t *delayTxn) Read(g schema.GranuleID) ([]byte, error) {
	time.Sleep(t.d)
	return t.Txn.Read(g)
}

// Write implements cc.Txn with the injected latency.
func (t *delayTxn) Write(g schema.GranuleID, v []byte) error {
	time.Sleep(t.d)
	return t.Txn.Write(g, v)
}

func pick(mix []TxnKind, total int, r *rand.Rand) *TxnKind {
	n := r.Intn(total)
	for i := range mix {
		n -= mix[i].Weight
		if n < 0 {
			return &mix[i]
		}
	}
	return &mix[len(mix)-1]
}

// runOne executes a single transaction to commit through hdd.Run, which
// retries aborted attempts (a simulated client crash from internal/fault
// is one: the crashed attempt is abandoned, not aborted). It returns the
// number of retries consumed.
func runOne(eng cc.Engine, kind *TxnKind, r *rand.Rand, opDelay time.Duration) (int, error) {
	class := kind.Class
	if kind.ReadOnly {
		class = hdd.NoClass
	}
	attempts := 0
	err := hdd.Run(eng, class, func(t hdd.Txn) error {
		attempts++
		if opDelay > 0 {
			t = &delayTxn{Txn: t, d: opDelay}
		}
		return kind.Fn(t, r)
	}, RetryPolicy)
	if err != nil {
		return attempts, fmt.Errorf("transaction %q: %w", kind.Name, err)
	}
	return attempts - 1, nil
}
