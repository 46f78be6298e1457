// Package checkfarm parallelizes the repository's certification pipeline:
// it shards the episodes of harness.Certify, the cells of harness.Sweep,
// batches of parsed histories (CheckBatch) and exhaustive plan
// explorations (ExplorePlans) across a bounded worker pool with context
// cancellation, deterministic per-shard seeding and ordered result
// aggregation, so parallel runs produce byte-identical results to the
// sequential paths.
//
// The farm exists because the paper's claims are universally quantified:
// du-opacity (Definition 3) must hold for *every* history an engine can
// produce, so evidence scales with how many histories — and, since the
// explorer, how many whole schedule spaces — can be checked per second.
// Three modes cover the quantifier from different sides: Certify samples
// recorded episodes per criterion; CertifyOnline certifies executions
// while they run through spec.Monitor (prefix closure, Corollary 2,
// latches violations at the causing event); ExplorePlans enumerates every
// interleaving of the deterministic stepper's schedule space for small
// plans and returns per-plan proofs over that space or pinned refutations
// (harness.ExplorePlan). On top of the pool, the
// differential soak mode (Soak) runs every registered engine against
// every implemented criterion — du-opacity against final-state opacity
// (Definition 4), opacity (Definition 5), TMS2/RCO (Section 4.2) and the
// serializability baselines — over a randomized workload grid, records
// divergences between criteria, and shrinks each violating history to a
// minimal counterexample with gen.Shrink.
//
// Because du-opacity is prefix- and limit-closed (the paper's main
// theorem), a certification splits into independent shards whose
// verdicts fold in order. Certify, ExplorePlans, CheckBatch and Soak
// build a JobSpec and run it on the farm's one execution path
// (shards.go), which certd's distributed jobs share. The only shared
// state is the fold, fed in shard order; spec.Check is safe for
// concurrent use, which the race-enabled tests pin down.
package checkfarm

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"duopacity/internal/harness"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

// resolveJobs clamps a worker count: 0 (or negative) means GOMAXPROCS,
// and no more workers than shards are spawned.
func resolveJobs(jobs, shards int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > shards {
		jobs = shards
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// shard fans work(0..n-1) out over a pool of jobs workers. Shards are
// claimed from an atomic counter, so completion order is arbitrary — the
// caller must write results into per-shard slots. The first error (or a
// context cancellation) stops the pool and is returned; in-flight shards
// finish, unclaimed shards never start.
func shard(ctx context.Context, n, jobs int, work func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	jobs = resolveJobs(jobs, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := work(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// streamOrdered fans run(0..n-1) across jobs workers and delivers the
// results in index order through emit, holding back workers that get more
// than a bounded window ahead of the stream. Any error — from run, emit
// or the context — wakes every window-blocked worker before returning.
func streamOrdered[T any](ctx context.Context, n, jobs int, run func(ep int) (T, error), emit func(ep int, r T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	jobs = resolveJobs(jobs, n)
	window := 4 * jobs
	if window < 16 {
		window = 16
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int // next episode to emit
		pending  = make(map[int]T, window)
		firstErr error
		stopping bool
	)
	// Record the first failure and wake every window-blocked worker;
	// caller cancellation takes the same path.
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil && err != nil {
			firstErr = err
		}
		stopping = true
		mu.Unlock()
		cond.Broadcast()
		cancel()
	}
	stopWatch := context.AfterFunc(ctx, func() { fail(nil) })

	err := shard(ctx, n, jobs, func(ep int) error {
		// Bounded reorder window: episode ep may only run once the stream
		// has advanced to within window of it. The episode holding `next`
		// is never blocked here, so the stream always progresses.
		mu.Lock()
		for ep >= next+window && !stopping {
			cond.Wait()
		}
		if stopping {
			mu.Unlock()
			return ctx.Err()
		}
		mu.Unlock()

		r, rerr := run(ep)
		if rerr != nil {
			fail(rerr)
			return rerr
		}

		mu.Lock()
		if stopping {
			mu.Unlock()
			return ctx.Err()
		}
		pending[ep] = r
		for {
			rr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if e := emit(next, rr); e != nil {
				mu.Unlock()
				fail(e)
				return e
			}
			next++
		}
		mu.Unlock()
		cond.Broadcast()
		return nil
	})
	stopWatch()
	mu.Lock()
	ferr := firstErr
	mu.Unlock()
	if ferr != nil {
		return ferr
	}
	return err
}

// CertifyOnline is the online certification mode of the farm: each
// episode runs with a spec.Monitor attached to its recorder
// (harness.CertifyEpisodeOnline), so events stream through the
// incremental checker as the engine produces them instead of being
// materialized into histories and batch-checked afterwards. Episodes are
// sharded over jobs workers and folded strictly in episode order, so the
// aggregated statistics are deterministic whenever the per-episode
// histories are (always under cfg.Interleaved). jobs <= 0 uses
// GOMAXPROCS.
func CertifyOnline(ctx context.Context, cfg harness.CertConfig, c spec.Criterion, jobs int) (harness.OnlineStats, error) {
	cfg = cfg.WithDefaults()
	stats := harness.OnlineStats{Engine: cfg.Workload.Engine, Criterion: c}
	run := protect(ctx, func(ep int) (harness.OnlineReport, error) {
		return harness.CertifyEpisodeOnline(ctx, cfg, ep, c)
	}, func(_ int, err *ShardPanicError) harness.OnlineReport {
		return harness.OnlineReport{
			Verdict:        spec.Verdict{Criterion: c, Undecided: true, Reason: "degraded: " + err.Error()},
			ViolationAt:    -1,
			DegradedReason: err.Error(),
		}
	})
	err := streamOrdered(ctx, cfg.Episodes, jobs, run, func(_ int, r harness.OnlineReport) error {
		stats.AddEpisode(r)
		return nil
	})
	if err != nil {
		return harness.OnlineStats{Engine: cfg.Workload.Engine, Criterion: c}, err
	}
	return stats, nil
}

// Certify is harness.Certify sharded over jobs workers: each episode is
// seeded purely from the base seed and its index, and the reports fold in
// episode order as they complete, holding only a bounded reorder window.
// The statistics are byte-identical to harness.Certify whenever the
// per-episode histories are — always under cfg.Interleaved. An episode
// that panics past its retries degrades (harness.DegradedEpisode)
// instead of failing the run. jobs <= 0 uses GOMAXPROCS.
func Certify(ctx context.Context, cfg harness.CertConfig, criteria []spec.Criterion, jobs int) (harness.CertStats, error) {
	rep, err := runJob(ctx, JobSpec{Kind: KindCertify, Certify: &CertifyJob{Config: cfg, Criteria: criteria}}, jobs)
	if err != nil {
		return harness.NewCertStats(cfg.Workload.Engine), err
	}
	return *rep.Certify, nil
}

// Sweep is harness.Sweep sharded over jobs workers. Points come back in
// the same (engine, goroutines, read-fraction) grid order the sequential
// path produces. Concurrent cells contend for the CPUs, so throughput
// numbers are only comparable within a single jobs setting; use jobs = 1
// (or harness.Sweep) for publication-grade measurements and the parallel
// mode for functional sweeps and CI smoke.
func Sweep(ctx context.Context, cfg harness.SweepConfig, jobs int) ([]harness.SweepPoint, error) {
	type cell struct {
		engine string
		g      int
		rf     float64
	}
	var cells []cell
	for _, eng := range cfg.Engines {
		for _, g := range cfg.Goroutines {
			for _, rf := range cfg.ReadFractions {
				cells = append(cells, cell{eng, g, rf})
			}
		}
	}
	points := make([]harness.SweepPoint, len(cells))
	err := shard(ctx, len(cells), jobs, func(i int) error {
		c := cells[i]
		w := cfg.Base
		w.Engine = c.engine
		w.Goroutines = c.g
		w.ReadFraction = c.rf
		stats, rerr := harness.Run(w)
		if rerr != nil {
			return rerr
		}
		points[i] = harness.SweepPoint{Engine: c.engine, Goroutines: c.g, ReadFraction: c.rf, Stats: stats}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// ExplorePlans runs harness.ExplorePlan for every plan, sharded across
// jobs workers, and returns the reports in input order. Explorations are
// independent and deterministic, so the reports are byte-identical to a
// sequential loop. It backs ducheck's -explore batch mode and stmbench's
// explore subcommand. cfg is shared by every shard: with jobs > 1 a
// cfg.OnSchedule callback must be safe for concurrent use. A plan that
// panics past its retries degrades into a BudgetExhausted report with
// DegradedReason set instead of failing the batch. jobs <= 0 uses
// GOMAXPROCS.
func ExplorePlans(ctx context.Context, engine string, plans []stm.Plan, cfg harness.ExploreConfig, jobs int) ([]harness.ExploreReport, error) {
	rep, err := runJob(ctx, JobSpec{Kind: KindExplore, Explore: &ExploreJob{Engine: engine, Plans: plans, Config: cfg}}, jobs)
	if err != nil {
		return nil, err
	}
	return rep.Explore, nil
}

// CheckBatch checks every history of job against every criterion across
// the pool and returns the verdicts with results[i][j] corresponding to
// (job.Histories[i], job.Criteria[j]). It backs ducheck's -parallel batch
// mode. Cancellation propagates into each check's search loop
// (spec.WithContext), turning remaining checks into prompt undecided
// verdicts; a shard panicking past its retries degrades its row into
// explicit undecided verdicts carrying the panic reason.
func CheckBatch(ctx context.Context, job CheckJob, jobs int) ([][]spec.Verdict, error) {
	rep, err := runJob(ctx, JobSpec{Kind: KindCheck, Check: &job}, jobs)
	if err != nil {
		return nil, err
	}
	return rep.Check, nil
}
