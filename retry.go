package hdd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hdd/internal/cc"
)

// Beginner is the slice of an engine the retry runner needs. *Engine
// satisfies it, as does every cc.Engine implementation (Txn and ClassID
// are aliases of the cc/schema types, so the method sets coincide) and the
// networked client.Client. beginner_test.go pins the claim for every
// engine in internal/enginereg.
type Beginner interface {
	Begin(class ClassID) (Txn, error)
	BeginReadOnly() (Txn, error)
}

// RetryPolicy controls Run's capped exponential backoff with jitter.
// The zero value is a sensible default: 10 attempts, 200µs initial
// backoff doubling up to 50ms, with full jitter.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (initial try included)
	// before Run gives up. Defaults to 10; negative means unlimited.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. Defaults to 200µs.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Defaults to 50ms.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay drawn uniformly at random
	// (full jitter decorrelates retrying clients and avoids herds).
	// 0 defaults to 1 (fully random in (0, delay]); use a tiny negative
	// value to mean "no jitter" explicitly.
	Jitter float64
	// Seed makes the jitter sequence reproducible; 0 seeds from the
	// backoff parameters (still deterministic).
	Seed int64
	// Sleep replaces the inter-attempt wait, for tests. Nil means a real
	// timed wait that RunCtx interrupts when its context is cancelled; a
	// non-nil Sleep is called as-is (and is therefore not cancellable
	// mid-wait, though cancellation is still observed between attempts).
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 10
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 1
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// RetryError reports that Run exhausted its attempts; Unwrap exposes the
// last abort error.
type RetryError struct {
	Attempts int
	Last     error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("hdd: transaction still aborting after %d attempts: %v", e.Attempts, e.Last)
}

func (e *RetryError) Unwrap() error { return e.Last }

// Run executes fn inside a transaction of the given class (NoClass for a
// read-only transaction), committing on success and retrying — with capped
// exponential backoff plus jitter — when the engine aborts the attempt.
// It packages the retry loop every HDD client otherwise hand-rolls:
//
//	err := hdd.Run(eng, postClass, func(t hdd.Txn) error {
//		v, err := t.Read(g)
//		if err != nil {
//			return err
//		}
//		return t.Write(g, next(v))
//	}, hdd.RetryPolicy{})
//
// fn must return the error of any failed Read/Write unmodified (wrapping
// with %w is fine) so Run can distinguish engine aborts, which are
// retried with a fresh transaction, from application errors, which abort
// the transaction and are returned as-is. A fn error or panic always
// aborts the attempt; fn never needs to call Commit or Abort itself.
//
// Run gives up immediately on non-abort errors (including ErrEngineClosed
// after Engine.Close) and returns a *RetryError once MaxAttempts abort
// errors have been consumed. Run is RunCtx with a background context: it
// cannot be interrupted mid-backoff.
func Run(eng Beginner, class ClassID, fn func(Txn) error, p RetryPolicy) error {
	return RunCtx(context.Background(), eng, class, fn, p)
}

// RunCtx is Run with cancellation: between attempts — including in the
// middle of a backoff sleep — it observes ctx and returns ctx.Err() as
// soon as the context is cancelled or its deadline expires. An attempt
// already inside fn is not interrupted (HDD transactions have their own
// deadline machinery for that); cancellation takes effect at the next
// attempt boundary. The networked client uses RunCtx so a load generator
// or request handler can abandon a retry loop without waiting out the
// backoff schedule.
func RunCtx(ctx context.Context, eng Beginner, class ClassID, fn func(Txn) error, p RetryPolicy) error {
	p = p.withDefaults()
	var rng *rand.Rand // built on the first backoff: a source is 5 KB
	var last error
	for attempt := 0; p.MaxAttempts < 0 || attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			if rng == nil {
				seed := p.Seed
				if seed == 0 {
					seed = int64(p.BaseDelay) ^ int64(p.MaxDelay)<<20 ^ 0x9e3779b9
				}
				rng = rand.New(rand.NewSource(seed))
			}
			if err := sleepBackoff(ctx, p, backoff(p, rng, attempt-1)); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var (
			t   Txn
			err error
		)
		if class == NoClass {
			t, err = eng.BeginReadOnly()
		} else {
			t, err = eng.Begin(class)
		}
		if err != nil {
			return err
		}
		if err := runAttempt(t, fn); err != nil {
			if !IsAbort(err) {
				return err
			}
			last = err
			continue
		}
		return nil
	}
	return &RetryError{Attempts: p.MaxAttempts, Last: last}
}

// sleepBackoff waits out one backoff delay, returning early with ctx.Err()
// when the context is cancelled. A test-installed Sleep hook is called
// uninterruptibly (cancellation is then only observed at the attempt
// boundary).
func sleepBackoff(ctx context.Context, p RetryPolicy, d time.Duration) error {
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// runAttempt runs fn and commits, aborting on any failure (including a fn
// panic, so a panicking application never leaks an active transaction that
// would stall walls until the reaper finds it).
func runAttempt(t Txn, fn func(Txn) error) (err error) {
	committed := false
	defer func() {
		if !committed {
			_ = t.Abort()
		}
	}()
	if err := fn(t); err != nil {
		return err
	}
	if err := t.Commit(); err != nil {
		// A commit racing the reaper can observe its own force-abort as
		// ErrTxnDone; treat it as an abort so the attempt is retried.
		if errors.Is(err, cc.ErrTxnDone) {
			return &cc.AbortError{Reason: cc.ReasonTimedOut, Err: err}
		}
		return err
	}
	committed = true
	return nil
}

// backoff computes the delay before retry number n (0-based): BaseDelay
// doubled per retry, capped at MaxDelay, with the configured fraction
// drawn uniformly at random.
func backoff(p RetryPolicy, rng *rand.Rand, n int) time.Duration {
	d := p.BaseDelay << uint(min(n, 30))
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter <= 0 {
		return d
	}
	fixed := time.Duration(float64(d) * (1 - p.Jitter))
	random := time.Duration(rng.Int63n(int64(d-fixed) + 1))
	return fixed + random
}
