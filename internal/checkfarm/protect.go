package checkfarm

import (
	"context"
	"fmt"
	"time"

	"duopacity/internal/chaos"
)

// This file is the farm's worker-fault containment: a panicking shard must
// not take the whole certification down (the farm's historical semantics
// for ordinary errors — first error cancels the run — stay untouched; a
// panic is not a verdict, it is a crashed worker). protect wraps only a
// shard's pure compute unit in runProtected — RunShard for jobs (see
// streamJob), the monitored episode for CertifyOnline — never emit
// callbacks or window bookkeeping, which run under streamOrdered's mutex
// and must not unwind mid-update. A unit that panics is retried up to
// shardAttempts times with exponential backoff; a unit that panics past
// its retries degrades: an explicit degraded-and-undecided result takes
// the shard's place (JobSpec.DegradedShard, or an undecided OnlineReport)
// and the rest of the farm proceeds. chaos.FarmFaults attached to the
// context (chaos.WithFarmFaults) strikes inside the protected region, so
// injected faults exercise exactly this machinery.

// shardAttempts bounds how many times a panicking shard is retried before
// it degrades (first run plus two retries).
const shardAttempts = 3

// ShardPanicError reports a shard whose compute unit panicked on every
// one of its shardAttempts attempts.
type ShardPanicError struct {
	// Shard is the index of the work unit (episode, batch entry, plan).
	Shard int
	// Attempt is the zero-based attempt of the final panic.
	Attempt int
	// Value is the recovered panic value of the final attempt.
	Value any
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("checkfarm: shard %d panicked on all %d attempts: %v", e.Shard, e.Attempt+1, e.Value)
}

// runProtected executes fn with panic recovery and bounded retry. A panic
// is recovered, the shard backs off exponentially (1ms, 2ms, ... —
// interruptible by ctx) and fn runs again, up to shardAttempts attempts;
// the final failure returns a *ShardPanicError. Ordinary errors from fn
// return immediately — retry is for crashes, not verdicts. Fault
// schedules attached via chaos.WithFarmFaults strike inside the recovered
// region, before fn.
func runProtected(ctx context.Context, shard int, fn func() error) error {
	faults := chaos.FarmFaultsFromContext(ctx)
	var last *ShardPanicError
	for attempt := 0; attempt < shardAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond << uint(attempt-1)):
			}
		}
		panicked := false
		err := func() (err error) {
			defer func() {
				if v := recover(); v != nil {
					panicked = true
					last = &ShardPanicError{Shard: shard, Attempt: attempt, Value: v}
				}
			}()
			faults.Strike(shard, attempt)
			return fn()
		}()
		if !panicked {
			return err
		}
	}
	return last
}

// protect wraps a streamed run function so that a shard panicking past
// its retries yields degrade(ep, err) as that shard's result instead of
// failing the farm. Non-panic errors pass through unchanged.
func protect[T any](ctx context.Context, run func(ep int) (T, error), degrade func(ep int, err *ShardPanicError) T) func(ep int) (T, error) {
	return func(ep int) (T, error) {
		var r T
		err := runProtected(ctx, ep, func() error {
			var e error
			r, e = run(ep)
			return e
		})
		if pe, ok := err.(*ShardPanicError); ok {
			return degrade(ep, pe), nil
		}
		return r, err
	}
}
