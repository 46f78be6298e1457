package checkfarm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"duopacity/internal/harness"
	"duopacity/internal/spec"
)

// certifyStream runs a certification on the farm's execution path and
// hands each episode report to emit in episode order.
func certifyStream(ctx context.Context, cfg harness.CertConfig, criteria []spec.Criterion, jobs int, emit func(ep int, r harness.EpisodeReport) error) error {
	s, err := JobSpec{Kind: KindCertify, Certify: &CertifyJob{Config: cfg, Criteria: criteria}}.Normalize()
	if err != nil {
		return err
	}
	return streamJob(ctx, s, jobs, func(ep int, r ShardResult) error { return emit(ep, *r.Episode) })
}

func streamTestConfig(episodes int) harness.CertConfig {
	return harness.CertConfig{
		Workload: harness.Workload{
			Engine:           "tl2",
			Objects:          3,
			Goroutines:       4,
			TxnsPerGoroutine: 2,
			OpsPerTxn:        3,
			ReadFraction:     0.5,
			Seed:             7,
		},
		Episodes:    episodes,
		Interleaved: true, // deterministic episodes: identical across runs and jobs
	}
}

// TestCertifyStreamOrdered pins the streaming contract: reports arrive
// strictly in episode order, exactly once each, and folding them exactly
// as the sequential path does reproduces harness.Certify's statistics
// byte-for-byte.
func TestCertifyStreamOrdered(t *testing.T) {
	cfg := streamTestConfig(24)
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}

	want, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 3, 8} {
		got := harness.NewCertStats(cfg.Workload.Engine)
		seen := 0
		err := certifyStream(context.Background(), cfg, criteria, jobs, func(ep int, r harness.EpisodeReport) error {
			if ep != seen {
				t.Fatalf("jobs=%d: episode %d emitted out of order (want %d)", jobs, ep, seen)
			}
			seen++
			got.AddEpisode(criteria, r)
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if seen != cfg.Episodes {
			t.Fatalf("jobs=%d: emitted %d episodes, want %d", jobs, seen, cfg.Episodes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: streamed statistics differ from sequential certification\n got: %+v\nwant: %+v",
				jobs, got, want)
		}
	}
}

// TestCertifyStreamEmitError pins cancellation: an emit error stops the
// stream and is returned; no further episodes are emitted.
func TestCertifyStreamEmitError(t *testing.T) {
	cfg := streamTestConfig(32)
	criteria := []spec.Criterion{spec.DUOpacity}
	boom := errors.New("boom")
	emitted := 0
	err := certifyStream(context.Background(), cfg, criteria, 4, func(ep int, _ harness.EpisodeReport) error {
		emitted++
		if ep == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: got %v", err)
	}
	if emitted != 6 {
		t.Fatalf("emitted %d episodes after error at episode 5, want 6", emitted)
	}
}

// TestCertifyStreamContextCancel pins caller cancellation.
func TestCertifyStreamContextCancel(t *testing.T) {
	cfg := streamTestConfig(64)
	criteria := []spec.Criterion{spec.DUOpacity}
	ctx, cancel := context.WithCancel(context.Background())
	err := certifyStream(ctx, cfg, criteria, 4, func(ep int, _ harness.EpisodeReport) error {
		if ep == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCertifyMatchesStreamedFold re-pins the byte-identical aggregation
// claim on the exported Certify wrapper across jobs settings.
func TestCertifyMatchesStreamedFold(t *testing.T) {
	cfg := streamTestConfig(16)
	criteria := []spec.Criterion{spec.DUOpacity, spec.StrictSerializability}
	want, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		got, err := Certify(context.Background(), cfg, criteria, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: Certify differs from sequential harness.Certify", jobs)
		}
	}
}

// TestCertifyPortfolioAgrees runs the same certification with per-check
// portfolio parallelism and asserts the accept/reject counts match the
// sequential search (episodes here are far below any node limit, so
// undecided boundaries cannot differ).
func TestCertifyPortfolioAgrees(t *testing.T) {
	cfg := streamTestConfig(12)
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	want, err := Certify(context.Background(), cfg, criteria, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfgP := cfg
	cfgP.Portfolio = 4
	got, err := Certify(context.Background(), cfgP, criteria, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range criteria {
		if got.Accepted[c] != want.Accepted[c] || got.Rejected[c] != want.Rejected[c] {
			t.Errorf("%s: portfolio certification differs: accepted %d/%d, rejected %d/%d",
				c, got.Accepted[c], want.Accepted[c], got.Rejected[c], want.Rejected[c])
		}
	}
}

// TestStreamOrderedRunErrorWakesBlockedWorkers reproduces the reorder-
// window deadlock: the worker holding the stream head (episode 0) fails
// only after the other workers have run a full window ahead and parked in
// the window wait. The failure must wake them and surface the error
// instead of hanging.
func TestStreamOrderedRunErrorWakesBlockedWorkers(t *testing.T) {
	const jobs = 4
	const window = 16 // streamOrdered's minimum window
	boom := errors.New("episode 0 failed late")
	windowFull := make(chan struct{})
	var completed atomic.Int64
	run := func(ep int) (harness.EpisodeReport, error) {
		if ep == 0 {
			// Fail only after the rest of the pool has filled the reorder
			// window (next stays 0, so workers beyond it park in cond.Wait).
			<-windowFull
			time.Sleep(20 * time.Millisecond)
			return harness.EpisodeReport{}, boom
		}
		// With next stuck at 0, only episodes 1..window-1 can run before
		// every other worker parks at the window boundary.
		if completed.Add(1) == window-1 {
			close(windowFull)
		}
		return harness.EpisodeReport{Skipped: true}, nil
	}
	done := make(chan error, 1)
	go func() {
		done <- streamOrdered(context.Background(), window+2*jobs+4, jobs, run,
			func(int, harness.EpisodeReport) error { return nil })
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("want the run error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("streamOrdered deadlocked after a late run error (window-blocked workers never woken)")
	}
}

// TestCertifyStreamLargeWindow smoke-tests a certification larger than the
// reorder window with more workers than window slots would naively allow.
func TestCertifyStreamLargeWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream in -short mode")
	}
	cfg := streamTestConfig(100)
	criteria := []spec.Criterion{spec.DUOpacity}
	last := -1
	err := certifyStream(context.Background(), cfg, criteria, 0, func(ep int, _ harness.EpisodeReport) error {
		if ep != last+1 {
			return fmt.Errorf("gap: %d after %d", ep, last)
		}
		last = ep
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != cfg.Episodes-1 {
		t.Fatalf("stream stopped at %d, want %d", last, cfg.Episodes-1)
	}
}
