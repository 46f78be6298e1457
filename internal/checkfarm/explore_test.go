package checkfarm

import (
	"context"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

func explorePlans() []stm.Plan {
	return []stm.Plan{
		stm.MustParsePlan("w0\nr0 r0"),
		stm.MustParsePlan("r0 w0\nr0 w0"),
		stm.MustParsePlan("w0 r1\nr0 w1"),
		stm.MustParsePlan("w0 | r0\nr0"),
	}
}

// TestExplorePlansMatchesSequential: the sharded exploration must return
// exactly the reports a sequential loop produces, in input order.
func TestExplorePlansMatchesSequential(t *testing.T) {
	plans := explorePlans()
	for _, eng := range []string{"tl2", "ple"} {
		var want []harness.ExploreReport
		for _, p := range plans {
			r, err := harness.ExplorePlan(context.Background(), eng, p, harness.ExploreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		for _, jobs := range []int{1, 4} {
			got, err := ExplorePlans(context.Background(), eng, plans, harness.ExploreConfig{}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s jobs=%d: %d reports, want %d", eng, jobs, len(got), len(want))
			}
			for i := range got {
				if got[i].Outcome != want[i].Outcome || got[i].Schedules != want[i].Schedules ||
					got[i].Steps != want[i].Steps || got[i].SleepPruned != want[i].SleepPruned ||
					got[i].PrefixCut != want[i].PrefixCut {
					t.Errorf("%s jobs=%d plan %d: report diverged: %+v vs %+v", eng, jobs, i, got[i], want[i])
				}
				gv, wv := got[i].Violation, want[i].Violation
				if (gv == nil) != (wv == nil) {
					t.Fatalf("%s jobs=%d plan %d: violation presence diverged", eng, jobs, i)
				}
				if gv != nil && histio.FormatString(gv.History.History) != histio.FormatString(wv.History.History) {
					t.Errorf("%s jobs=%d plan %d: pinned violations diverged", eng, jobs, i)
				}
			}
		}
	}
}

// TestExplorePlansError: an invalid engine fails the whole batch.
func TestExplorePlansError(t *testing.T) {
	_, err := ExplorePlans(context.Background(), "bogus", explorePlans(), harness.ExploreConfig{}, 2)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestCertifyExploreMode: CertConfig.Explore routes the farm's episodes
// through exhaustive exploration — the deferred-update engine's episodes
// are proven (accepted), the in-place engine's refuted (rejected), and
// the sharded statistics equal the sequential ones.
func TestCertifyExploreMode(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity}
	base := harness.CertConfig{
		Workload: harness.Workload{
			Objects:          2,
			Goroutines:       2,
			TxnsPerGoroutine: 1,
			OpsPerTxn:        2,
			ReadFraction:     0.5,
			Seed:             7,
			MaxAttempts:      3,
		},
		Episodes: 6,
		Explore:  true,
	}

	cfg := base
	cfg.Workload.Engine = "tl2"
	seq, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Rejected[spec.DUOpacity] != 0 || seq.Undecided[spec.DUOpacity] != 0 {
		t.Errorf("tl2 explore-certify: %d rejected, %d undecided; want none (reason %q)",
			seq.Rejected[spec.DUOpacity], seq.Undecided[spec.DUOpacity], seq.FirstReason[spec.DUOpacity])
	}
	par, err := Certify(context.Background(), cfg, criteria, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Accepted[spec.DUOpacity] != seq.Accepted[spec.DUOpacity] ||
		par.Rejected[spec.DUOpacity] != seq.Rejected[spec.DUOpacity] ||
		par.FirstReason[spec.DUOpacity] != seq.FirstReason[spec.DUOpacity] {
		t.Errorf("sharded explore-certify diverged from sequential: %+v vs %+v", par, seq)
	}

	cfg = base
	cfg.Workload.Engine = "ple"
	cfg.Workload.ReadFraction = 0.6 // ensure reads appear alongside writes
	stats, err := harness.Certify(cfg, criteria)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected[spec.DUOpacity] == 0 {
		t.Error("ple explore-certify found no violating plan")
	}
	if stats.FirstReason[spec.DUOpacity] == "" {
		t.Error("missing pinned schedule in rejection reason")
	}
}

// TestCertifyExploreModeRejectsBadCriterion: non-monitorable criteria
// cannot be proven by exploration and must error loudly.
func TestCertifyExploreModeRejectsBadCriterion(t *testing.T) {
	cfg := harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 1},
		Episodes: 1,
		Explore:  true,
	}
	if _, err := harness.Certify(cfg, []spec.Criterion{spec.TMS2}); err == nil {
		t.Fatal("TMS2 accepted in explore mode")
	}
}
