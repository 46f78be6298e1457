package checkfarm

import (
	"context"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/spec"
)

// TestCertifyOnlineMatchesSequential pins the sharded online
// certification against a sequential fold of the same episodes: identical
// statistics for every jobs setting (episodes are interleaved, hence
// deterministic, and folding is ordered).
func TestCertifyOnlineMatchesSequential(t *testing.T) {
	cfg := harness.CertConfig{
		Workload: harness.Workload{
			Engine:           "ple",
			Objects:          4,
			Goroutines:       6,
			TxnsPerGoroutine: 3,
			OpsPerTxn:        6,
			ReadFraction:     0.5,
			Seed:             4,
		},
		Episodes:    16,
		Interleaved: true,
	}
	want := harness.OnlineStats{Engine: "ple", Criterion: spec.DUOpacity}
	cfgd := cfg.WithDefaults()
	for ep := 0; ep < cfgd.Episodes; ep++ {
		r, err := harness.CertifyEpisodeOnline(context.Background(), cfgd, ep, spec.DUOpacity)
		if err != nil {
			t.Fatal(err)
		}
		want.AddEpisode(r)
	}
	if want.Rejected == 0 {
		t.Fatal("expected the pessimistic in-place engine to be rejected online")
	}
	for _, jobs := range []int{1, 3, 8} {
		got, err := CertifyOnline(context.Background(), cfg, spec.DUOpacity, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got != want {
			t.Fatalf("jobs=%d: stats %+v, want %+v", jobs, got, want)
		}
	}
}

// TestCertifyOnlineCanceledContext mirrors the batch farm's cancellation
// contract.
func TestCertifyOnlineCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CertifyOnline(ctx, harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2"}, Episodes: 4, Interleaved: true,
	}, spec.DUOpacity, 2); err == nil {
		t.Fatal("canceled context not surfaced")
	}
}

// TestCertifyOnlineUnknownEngine surfaces engine construction errors.
func TestCertifyOnlineUnknownEngine(t *testing.T) {
	if _, err := CertifyOnline(context.Background(), harness.CertConfig{
		Workload: harness.Workload{Engine: "nope"}, Episodes: 2,
	}, spec.DUOpacity, 2); err == nil {
		t.Fatal("unknown engine not surfaced")
	}
}
