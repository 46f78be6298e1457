package checkfarm

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"duopacity/internal/chaos"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

// acceptingHistories returns a few litmus histories known du-opaque, as
// CheckBatch fodder.
func acceptingHistories(t *testing.T, n int) []histio.Text {
	t.Helper()
	var hs []histio.Text
	for _, c := range litmus.Cases() {
		if c.Expect[spec.DUOpacity] {
			hs = append(hs, histio.Text{History: c.H})
		}
		if len(hs) == n {
			return hs
		}
	}
	if len(hs) == 0 {
		t.Fatal("no accepting litmus cases")
	}
	return hs
}

// TestRunProtectedRetriesThenSucceeds pins the recovery unit itself: a
// compute function that panics below the retry bound is retried to
// success; one that panics on every attempt returns ShardPanicError.
func TestRunProtectedRetriesThenSucceeds(t *testing.T) {
	calls := 0
	err := runProtected(context.Background(), 3, func() error {
		calls++
		if calls < shardAttempts {
			panic("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recovered unit returned error: %v", err)
	}
	if calls != shardAttempts {
		t.Fatalf("fn ran %d times, want %d", calls, shardAttempts)
	}

	calls = 0
	err = runProtected(context.Background(), 7, func() error {
		calls++
		panic("permanent")
	})
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("past-retries panic returned %v, want *ShardPanicError", err)
	}
	if pe.Shard != 7 || pe.Attempt != shardAttempts-1 {
		t.Fatalf("ShardPanicError = %+v", pe)
	}
	if calls != shardAttempts {
		t.Fatalf("fn ran %d times, want %d", calls, shardAttempts)
	}
	if !strings.Contains(pe.Error(), "permanent") {
		t.Fatalf("error %q does not carry the panic value", pe.Error())
	}
}

func TestRunProtectedOrdinaryErrorIsNotRetried(t *testing.T) {
	calls := 0
	want := errors.New("a verdict, not a crash")
	err := runProtected(context.Background(), 0, func() error {
		calls++
		return want
	})
	if err != want || calls != 1 {
		t.Fatalf("err=%v calls=%d; ordinary errors must pass through once", err, calls)
	}
}

// TestCheckBatchRecoversInjectedPanic: a fault schedule whose panics stay
// below the retry bound must leave the results byte-identical to a
// fault-free run.
func TestCheckBatchRecoversInjectedPanic(t *testing.T) {
	hs := acceptingHistories(t, 4)
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	want, err := CheckBatch(context.Background(), CheckJob{Histories: hs, Criteria: criteria}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ff := &chaos.FarmFaults{PanicEvery: 1, PanicAttempts: shardAttempts - 1}
	ctx := chaos.WithFarmFaults(context.Background(), ff)
	got, err := CheckBatch(ctx, CheckJob{Histories: hs, Criteria: criteria}, 2)
	if err != nil {
		t.Fatalf("recovered panics failed the farm: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ after recovered panics:\ngot  %v\nwant %v", got, want)
	}
	if ff.Panics() != int64(len(hs)*(shardAttempts-1)) {
		t.Fatalf("injected %d panics, want %d", ff.Panics(), len(hs)*(shardAttempts-1))
	}
}

// TestCheckBatchDegradesPastRetries: a shard that panics on every attempt
// degrades into explicit undecided verdicts instead of failing the batch,
// and the other shards are untouched.
func TestCheckBatchDegradesPastRetries(t *testing.T) {
	hs := acceptingHistories(t, 3)
	criteria := []spec.Criterion{spec.DUOpacity}
	want, err := CheckBatch(context.Background(), CheckJob{Histories: hs, Criteria: criteria}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Strike only shard 0, forever.
	ff := &chaos.FarmFaults{PanicEvery: len(hs), PanicAttempts: 100}
	ctx := chaos.WithFarmFaults(context.Background(), ff)
	got, err := CheckBatch(ctx, CheckJob{Histories: hs, Criteria: criteria}, 2)
	if err != nil {
		t.Fatalf("degraded shard failed the batch: %v", err)
	}
	v := got[0][0]
	if !v.Undecided {
		t.Fatalf("degraded shard verdict decided: %v", v)
	}
	if !strings.Contains(v.Reason, "degraded:") || !strings.Contains(v.Reason, "panicked") {
		t.Fatalf("degraded reason %q does not report the panic", v.Reason)
	}
	for i := 1; i < len(hs); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("healthy shard %d changed: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestCertifyStreamDegradesPastRetries: episode shards that crash past
// the retry bound arrive as DegradedShard episodes, in order, with every
// verdict undecided and the panic reason attached.
func TestCertifyStreamDegradesPastRetries(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	cfg := interleavedCfg("tl2", 6)
	ff := &chaos.FarmFaults{PanicEvery: 3, PanicAttempts: 100} // episodes 0 and 3
	ctx := chaos.WithFarmFaults(context.Background(), ff)
	var got []harness.EpisodeReport
	err := certifyStream(ctx, cfg, criteria, 2, func(ep int, r harness.EpisodeReport) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("degraded episodes failed the stream: %v", err)
	}
	if len(got) != cfg.Episodes {
		t.Fatalf("emitted %d reports, want %d", len(got), cfg.Episodes)
	}
	for ep, r := range got {
		wantDegraded := ep%3 == 0
		if (r.Degraded != "") != wantDegraded {
			t.Fatalf("episode %d degraded=%q, want degraded=%v", ep, r.Degraded, wantDegraded)
		}
		if wantDegraded {
			for _, c := range criteria {
				v := r.Verdicts[c]
				if !v.Undecided || !strings.Contains(v.Reason, "degraded:") {
					t.Fatalf("episode %d criterion %v: verdict %v not honestly degraded", ep, c, v)
				}
			}
		}
	}

	// The aggregate counts degraded episodes (and never as accepted).
	stats, err := Certify(ctx, cfg, criteria, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded != 2 {
		t.Fatalf("CertStats.Degraded = %d, want 2", stats.Degraded)
	}
}

// TestCertifyStreamRecoversInjectedPanic: below the bound, sharded
// results stay byte-identical to the fault-free run.
func TestCertifyStreamRecoversInjectedPanic(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity}
	cfg := interleavedCfg("tl2", 6)
	want, err := Certify(context.Background(), cfg, criteria, 2)
	if err != nil {
		t.Fatal(err)
	}
	ff := &chaos.FarmFaults{PanicEvery: 2, PanicAttempts: shardAttempts - 1}
	ctx := chaos.WithFarmFaults(context.Background(), ff)
	got, err := Certify(ctx, cfg, criteria, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered panics changed certification:\ngot  %#v\nwant %#v", got, want)
	}
}

// TestCertifyOnlineDegradesPastRetries: the online farm counts degraded
// episodes and their verdicts land in Undecided, never Accepted.
func TestCertifyOnlineDegradesPastRetries(t *testing.T) {
	cfg := interleavedCfg("tl2", 4)
	ff := &chaos.FarmFaults{PanicEvery: 2, PanicAttempts: 100} // episodes 0 and 2
	ctx := chaos.WithFarmFaults(context.Background(), ff)
	stats, err := CertifyOnline(ctx, cfg, spec.DUOpacity, 2)
	if err != nil {
		t.Fatalf("degraded episodes failed the online farm: %v", err)
	}
	if stats.Degraded != 2 {
		t.Fatalf("OnlineStats.Degraded = %d, want 2", stats.Degraded)
	}
	if stats.Undecided < 2 {
		t.Fatalf("degraded episodes not counted undecided: %+v", stats)
	}
	if stats.Accepted+stats.Rejected+stats.Undecided != stats.Episodes {
		t.Fatalf("episode accounting broken: %+v", stats)
	}
}

// TestExplorePlansDegradesPastRetries: a crashed exploration shard
// surfaces as BudgetExhausted with DegradedReason — an honest undecided
// proof obligation, not a dropped plan or a failed batch.
func TestExplorePlansDegradesPastRetries(t *testing.T) {
	plans := []stm.Plan{
		harness.PlanOf(harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 2, Seed: 1}),
		harness.PlanOf(harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 1, OpsPerTxn: 2, Seed: 2}),
	}
	ff := &chaos.FarmFaults{PanicEvery: 2, PanicAttempts: 100} // plan 0 only
	ctx := chaos.WithFarmFaults(context.Background(), ff)
	reports, err := ExplorePlans(ctx, "tl2", plans, harness.ExploreConfig{}, 2)
	if err != nil {
		t.Fatalf("degraded exploration failed the batch: %v", err)
	}
	r0 := reports[0]
	if r0.Outcome != harness.BudgetExhausted || r0.DegradedReason == "" {
		t.Fatalf("crashed shard report: outcome=%v degraded=%q, want budget-exhausted with a reason", r0.Outcome, r0.DegradedReason)
	}
	if r0.Engine != "tl2" || len(r0.Plan.Threads) == 0 {
		t.Fatalf("degraded report lost its identity: %+v", r0)
	}
	if reports[1].Outcome != harness.ProvenDUOpaque {
		t.Fatalf("healthy plan outcome = %v, want proven", reports[1].Outcome)
	}
}

// TestSoakDegradesPastRetries: a soak cell that panics past the retry
// bound becomes a degraded cell — counted in SoakResult.Degraded, shown
// by FormatSoakReport, excluded from the verdict counts — and the other
// cells are untouched.
func TestSoakDegradesPastRetries(t *testing.T) {
	cfg := SoakConfig{Engines: []string{"gl"}, Criteria: []spec.Criterion{spec.DUOpacity}, Rounds: 2, Seed: 3}
	want, err := Soak(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	ff := &chaos.FarmFaults{PanicEvery: 4, PanicAttempts: 100} // cell 0 of 4
	ctx := chaos.WithFarmFaults(context.Background(), ff)
	got, err := Soak(ctx, cfg, 2)
	if err != nil {
		t.Fatalf("degraded cell failed the soak: %v", err)
	}
	if got.Degraded != 1 || got.Cells[0].Degraded == "" || !strings.Contains(got.Cells[0].Degraded, "panicked") {
		t.Fatalf("degraded=%d, cell 0 degraded=%q; want 1 panicked cell", got.Degraded, got.Cells[0].Degraded)
	}
	for i := 1; i < len(got.Cells); i++ {
		if g, w := got.Cells[i].Verdicts[spec.DUOpacity], want.Cells[i].Verdicts[spec.DUOpacity]; g.OK != w.OK || g.Undecided != w.Undecided {
			t.Fatalf("healthy cell %d changed: %v vs %v", i, g, w)
		}
	}
	observed := 0
	for _, c := range got.Cells {
		if c.Degraded == "" && !c.Skipped {
			observed++
		}
	}
	counted := got.Accepted["gl"][spec.DUOpacity] + got.Rejected["gl"][spec.DUOpacity] + got.Undecided["gl"][spec.DUOpacity]
	if counted != observed || observed != len(got.Cells)-1 {
		t.Fatalf("counted %d cells, observed %d of %d; want the degraded cell excluded", counted, observed, len(got.Cells))
	}
	if out := FormatSoakReport(cfg, got); !strings.Contains(out, "1 cell(s) degraded") {
		t.Fatalf("soak report does not surface the degradation:\n%s", out)
	}
}

// TestCertifyCancelledContext: an already-cancelled context stops the
// farm promptly with the context's error and no partial emission damage.
func TestCertifyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Certify(ctx, interleavedCfg("tl2", 8), []spec.Criterion{spec.DUOpacity}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled farm returned %v, want context.Canceled", err)
	}
}

// farmStage wires the soak's farm hook through the real batch path, as
// cmd/stmbench does.
func farmStage(ctx context.Context, h *history.History, c spec.Criterion, nodeLimit int) (spec.Verdict, string, error) {
	vs, err := CheckBatch(ctx, CheckJob{Histories: []histio.Text{{History: h}}, Criteria: []spec.Criterion{c}, NodeLimit: nodeLimit}, 1)
	if err != nil {
		return spec.Verdict{}, "", err
	}
	v := vs[0][0]
	if reason, ok := strings.CutPrefix(v.Reason, "degraded: "); ok {
		return v, reason, nil
	}
	return v, "", nil
}

// TestChaosSoakEndToEnd is the PR's acceptance gate: ≥500 randomized
// fault schedules across the three kill-safe engines, each trial running
// engine, stream and farm faults through the full pipeline, with zero
// soundness flips and exact junk accounting. CI runs this under -race.
func TestChaosSoakEndToEnd(t *testing.T) {
	trials := 170 // 3 engines × 170 = 510 schedules
	if testing.Short() {
		trials = 12
	}
	rep, err := harness.ChaosSoak(harness.ChaosConfig{
		Engines: []string{"tl2", "norec", "dstm"},
		Trials:  trials,
		Seed:    20260808,
		Farm:    farmStage,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	for _, f := range rep.Flips {
		t.Errorf("soundness flip: %s", f)
	}
	if rep.Trials != 3*trials {
		t.Fatalf("ran %d trials, want %d", rep.Trials, 3*trials)
	}
	if rep.SpuriousAborts == 0 || rep.CommitDelays == 0 || rep.Kills == 0 {
		t.Errorf("engine faults not exercised: %s", rep.String())
	}
	if rep.JunkInjected == 0 || rep.JunkInjected != rep.JunkRejected {
		t.Errorf("junk contract broken: injected=%d rejected=%d", rep.JunkInjected, rep.JunkRejected)
	}
	if rep.Truncated == 0 {
		t.Errorf("truncation faults not exercised")
	}
	if rep.FarmDegraded == 0 {
		t.Errorf("farm degradation not exercised")
	}
}
