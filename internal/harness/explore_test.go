package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

// pleLitmusPlan is the minimal plan separating deferred-update from
// in-place engines: one writer, one double reader of the same object. On
// an in-place engine some schedule lets the reader observe the write
// before the writer invokes tryC — precisely the deferred-update
// violation of the paper's Definition 3 — while deferred-update engines
// admit no such schedule.
const pleLitmusPlan = "w0\nr0 r0"

// abortedReaderPlan mirrors the shape of the pinned
// tms2_aborted_reader.hist divergence: a reader that validates against an
// overtaking committed writer and aborts at its own tryC. Deferred-update
// engines stay du-opaque on every schedule (du-opacity serializes the
// aborted reader before the writer), matching that golden's du verdict.
const abortedReaderPlan = "r0 r0\nw0 w0"

// naiveConfig enumerates the raw schedule space: no prunings, every
// schedule run to completion — the reference the pruned explorer is
// differentially tested against.
func naiveConfig() ExploreConfig {
	return ExploreConfig{DisableSleepSets: true, DisableSymmetry: true, DisablePrefixCut: true}
}

// TestExploreProvesDeferredUpdateEngines is the CI gate for the
// exploration side of experiment S1: on the litmus plan, every schedule
// of the deferred-update engines is enumerated — full enumeration, zero
// violations — so the engines are *proven* du-opaque per plan, not
// sampled (the ROADMAP's "Interleaved scheduler coverage" item).
func TestExploreProvesDeferredUpdateEngines(t *testing.T) {
	for _, plan := range []string{pleLitmusPlan, abortedReaderPlan} {
		p := stm.MustParsePlan(plan)
		for _, eng := range []string{"tl2", "norec", "gl", "dstm", "pdur", "tl2+karma", "pdur+backoff"} {
			r, err := ExplorePlan(context.Background(), eng, p, ExploreConfig{})
			if err != nil {
				t.Fatalf("%s: %v", eng, err)
			}
			if r.Outcome != ProvenDUOpaque {
				t.Errorf("%s on %q: outcome %s, want proven", eng, plan, r.Outcome)
			}
			if r.Schedules == 0 || r.Violations != 0 || r.Undecided != 0 {
				t.Errorf("%s on %q: schedules=%d violations=%d undecided=%d",
					eng, plan, r.Schedules, r.Violations, r.Undecided)
			}
		}
	}
}

// TestExploreProvesAtAcceptanceCeiling is the CI gate at the exploration
// size ceiling the acceptance criteria name (4 transactions / 8
// operations): the write-only plan below is exhausted — full enumeration,
// zero violations, zero undecided checks — so tl2 is proven du-opaque on
// it, with sleep sets (buffered tl2 writes commute) measurably shrinking
// the walk versus the naive space.
func TestExploreProvesAtAcceptanceCeiling(t *testing.T) {
	p := stm.MustParsePlan("w0 w1 | w0 w1\nw1 w0 | w1 w0")
	if p.NumTxns() != 4 || p.NumOps() != 8 {
		t.Fatalf("ceiling plan is %d txns / %d ops, want 4/8", p.NumTxns(), p.NumOps())
	}
	r, err := ExplorePlan(context.Background(), "tl2", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ProvenDUOpaque || r.Violations != 0 || r.Undecided != 0 {
		t.Fatalf("outcome %s (violations=%d undecided=%d), want proven",
			r.Outcome, r.Violations, r.Undecided)
	}
	if r.SleepPruned == 0 {
		t.Error("no sleep-set pruning on a write-only tl2 plan")
	}
	naive, err := ExplorePlan(context.Background(), "tl2", p, naiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if naive.Outcome != ProvenDUOpaque {
		t.Fatalf("naive outcome %s, want proven", naive.Outcome)
	}
	if r.Schedules >= naive.Schedules {
		t.Errorf("pruning did not reduce schedules: %d vs naive %d", r.Schedules, naive.Schedules)
	}
}

// TestExplorePinsPLEViolation: the explorer refutes the in-place engine
// on the litmus plan, pinning the violating schedule and the exact event
// that latched it; the violating prefix must also be rejected by the
// batch checker (monitor and checker agree).
func TestExplorePinsPLEViolation(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlan(context.Background(), "ple", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound || r.Violation == nil {
		t.Fatalf("outcome %s, want violation", r.Outcome)
	}
	v := r.Violation
	if got := spec.CheckDUOpacity(v.History.History); got.OK || got.Undecided {
		t.Errorf("batch checker disagrees with the latched monitor: %s", got)
	}
	if v.At < 0 || v.At >= v.History.Len() {
		t.Errorf("latch index %d out of range (history has %d events)", v.At, v.History.Len())
	}
	// Prefix closure must have cut violating subtrees: the naive space of
	// this plan is strictly larger than what the pruned walk replayed.
	naive, err := ExplorePlan(context.Background(), "ple", p, naiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.PrefixCut == 0 {
		t.Error("no prefix-closure cuts recorded")
	}
	if r.Replays >= naive.Schedules {
		t.Errorf("pruned walk replayed %d schedules, naive space is %d — no reduction",
			r.Replays, naive.Schedules)
	}
	if naive.Outcome != ViolationFound {
		t.Errorf("naive exploration outcome %s, want violation", naive.Outcome)
	}
}

// TestExploreGolden pins the explorer's first violation byte-for-byte:
// plan, schedule, latching event, reason and violating history must
// reproduce testdata/explore_ple_litmus.golden on every machine.
func TestExploreGolden(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlan(context.Background(), "ple", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Violation == nil {
		t.Fatal("no violation pinned")
	}
	v := r.Violation
	var b strings.Builder
	fmt.Fprintf(&b, "# First du-opacity violation the explorer pins for the ple litmus plan.\n")
	fmt.Fprintf(&b, "# plan (one thread per line):\n")
	for _, ln := range strings.Split(p.String(), "\n") {
		fmt.Fprintf(&b, "#   %s\n", ln)
	}
	fmt.Fprintf(&b, "# engine: %s\n# criterion: %s\n# schedule: %v\n# latched at event: %d\n# reason: %s\n",
		r.Engine, r.Criterion, v.Schedule, v.At, v.Verdict.Reason)
	b.WriteString(histio.FormatString(v.History.History))

	raw, err := os.ReadFile(filepath.Join("testdata", "explore_ple_litmus.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(raw) {
		t.Errorf("explorer diverged from the golden pin:\ngot:\n%swant:\n%s", b.String(), raw)
	}
}

// TestExploreContainsSampledSchedules is the sampler/explorer
// differential: every history RunInterleaved can produce for a workload
// must appear among the histories the naive exploration of the same plan
// enumerates — the sampler draws from exactly the space the explorer
// exhausts (shared stepper and schedulePolicy, policy.go).
func TestExploreContainsSampledSchedules(t *testing.T) {
	for _, eng := range []string{"tl2", "norec", "ple", "gl", "etl"} {
		for seed := int64(1); seed <= 5; seed++ {
			w := Workload{
				Engine:           eng,
				Objects:          2,
				Goroutines:       2,
				TxnsPerGoroutine: 1,
				OpsPerTxn:        2,
				ReadFraction:     0.5,
				Seed:             seed,
				MaxAttempts:      3,
			}
			h, _, err := RunInterleaved(w)
			if err != nil {
				t.Fatalf("%s/%d: %v", eng, seed, err)
			}
			sampled := histio.FormatString(h)

			seen := make(map[string]bool)
			cfg := naiveConfig()
			cfg.MaxAttempts = w.MaxAttempts
			cfg.OnSchedule = func(_ []int, eh *history.History, _ spec.Verdict) {
				seen[histio.FormatString(eh)] = true
			}
			r, err := ExplorePlan(context.Background(), eng, PlanOf(w), cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", eng, seed, err)
			}
			if r.Outcome == BudgetExhausted {
				t.Fatalf("%s/%d: exploration did not exhaust the space", eng, seed)
			}
			if !seen[sampled] {
				t.Errorf("%s/%d: sampled history not among the %d enumerated schedules:\n%s",
					eng, seed, r.Schedules, sampled)
			}
		}
	}
}

// TestExplorePruningSound: the pruned walk must agree with the naive
// reference on the outcome, and every history a pruned complete schedule
// records must be one the naive enumeration also records (prunings only
// ever remove redundant interleavings, never invent new ones).
func TestExplorePruningSound(t *testing.T) {
	plans := []string{
		pleLitmusPlan,
		abortedReaderPlan,
		"w0 w1 w0\nw1 w0 w1", // write-only: sleep sets bite on tl2/norec
		"r0 w0\nr0 w0",       // identical threads: symmetry bites
		"w0 r1 | r0\nr0 w1",  // two txns on one thread
	}
	for _, src := range plans {
		p := stm.MustParsePlan(src)
		for _, eng := range []string{"tl2", "norec", "ple", "gl", "etl", "dstm"} {
			naiveSeen := make(map[string]bool)
			ncfg := naiveConfig()
			ncfg.OnSchedule = func(_ []int, h *history.History, _ spec.Verdict) {
				naiveSeen[histio.FormatString(h)] = true
			}
			naive, err := ExplorePlan(context.Background(), eng, p, ncfg)
			if err != nil {
				t.Fatalf("%s on %q: %v", eng, src, err)
			}

			var pruned ExploreReport
			pcfg := ExploreConfig{}
			pcfg.OnSchedule = func(_ []int, h *history.History, _ spec.Verdict) {
				if !naiveSeen[histio.FormatString(h)] {
					t.Errorf("%s on %q: pruned walk recorded a history the naive space lacks:\n%s",
						eng, src, histio.FormatString(h))
				}
			}
			pruned, err = ExplorePlan(context.Background(), eng, p, pcfg)
			if err != nil {
				t.Fatalf("%s on %q: %v", eng, src, err)
			}
			if pruned.Outcome != naive.Outcome {
				t.Errorf("%s on %q: pruned outcome %s, naive %s", eng, src, pruned.Outcome, naive.Outcome)
			}
			if pruned.Replays > naive.Replays {
				t.Errorf("%s on %q: pruning increased replays (%d > %d)",
					eng, src, pruned.Replays, naive.Replays)
			}
		}
	}
}

// TestExploreRefutesPLEGoldenWorkload: the workload whose sampled episode
// is pinned as testdata/ple_violation.hist is far too large to exhaust,
// but the explorer refutes it within a small budget — the budgeted mode's
// purpose: a violation is definitive evidence regardless of exhaustion.
func TestExploreRefutesPLEGoldenWorkload(t *testing.T) {
	p := PlanOf(pleGoldenWorkload())
	r, err := ExplorePlan(context.Background(), "ple", p, ExploreConfig{
		MaxSchedules:         5_000,
		StopAtFirstViolation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound || r.Violation == nil {
		t.Fatalf("outcome %s after %d replays, want violation", r.Outcome, r.Replays)
	}
	if v := spec.CheckDUOpacity(r.Violation.History.History); v.OK || v.Undecided {
		t.Errorf("pinned violating prefix accepted by the batch checker: %s", v)
	}
}

// TestExploreTruncatedScheduleKeepsLatchedViolation: a violation the
// monitor latched before the step budget truncates the schedule is
// definitive (prefix closure) and must yield ViolationFound, not
// BudgetExhausted — reachable only with DisablePrefixCut, where no cut
// returns at the latching step.
func TestExploreTruncatedScheduleKeepsLatchedViolation(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlan(context.Background(), "ple", p, ExploreConfig{DisablePrefixCut: true, MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound || r.Violation == nil {
		t.Fatalf("outcome %s (violations=%d), want violation despite the step truncation",
			r.Outcome, r.Violations)
	}
	if v := spec.CheckDUOpacity(r.Violation.History.History); v.OK || v.Undecided {
		t.Errorf("pinned truncated prefix accepted by the batch checker: %s", v)
	}
}

// TestExploreBudgetExhausted: an unexhaustible plan under a tiny budget
// reports the frontier rather than claiming a proof.
func TestExploreBudgetExhausted(t *testing.T) {
	p := PlanOf(Workload{
		Engine: "tl2", Objects: 4, Goroutines: 4,
		TxnsPerGoroutine: 2, OpsPerTxn: 4, Seed: 1,
	})
	r, err := ExplorePlan(context.Background(), "tl2", p, ExploreConfig{MaxSchedules: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != BudgetExhausted {
		t.Fatalf("outcome %s, want budget-exhausted", r.Outcome)
	}
	if r.Replays != 50 || r.MaxFrontier == 0 {
		t.Errorf("replays=%d frontier=%d", r.Replays, r.MaxFrontier)
	}
}

// TestExploreOpacity: the monitorable prefix-closed criteria both work as
// the exploration target; the ple litmus violates opacity too (the prefix
// where the reader has observed the in-flight write admits no final-state
// opaque completion).
func TestExploreOpacity(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlan(context.Background(), "ple", p, ExploreConfig{Criterion: spec.Opacity})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ViolationFound {
		t.Errorf("ple/opacity outcome %s, want violation", r.Outcome)
	}
	r, err = ExplorePlan(context.Background(), "tl2", p, ExploreConfig{Criterion: spec.Opacity})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != ProvenDUOpaque {
		t.Errorf("tl2/opacity outcome %s, want proven", r.Outcome)
	}
}

// TestExploreDeterministic: two explorations of the same configuration
// agree byte-for-byte — reports, counters, pinned schedule.
func TestExploreDeterministic(t *testing.T) {
	p := stm.MustParsePlan("w0 r1\nr0 w1")
	for _, eng := range []string{"tl2", "ple"} {
		a, err := ExplorePlan(context.Background(), eng, p, ExploreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExplorePlan(context.Background(), eng, p, ExploreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Schedules != b.Schedules || a.Steps != b.Steps || a.Outcome != b.Outcome ||
			a.SleepPruned != b.SleepPruned || a.PrefixCut != b.PrefixCut {
			t.Errorf("%s: two explorations diverged: %+v vs %+v", eng, a, b)
		}
		if (a.Violation == nil) != (b.Violation == nil) {
			t.Fatalf("%s: violation presence diverged", eng)
		}
		if a.Violation != nil && histio.FormatString(a.Violation.History.History) != histio.FormatString(b.Violation.History.History) {
			t.Errorf("%s: pinned violations diverged", eng)
		}
	}
}

// TestExploreErrors pins the input validation.
func TestExploreErrors(t *testing.T) {
	good := stm.MustParsePlan(pleLitmusPlan)
	if _, err := ExplorePlan(context.Background(), "bogus", good, ExploreConfig{}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := ExplorePlan(context.Background(), "tl2", stm.Plan{}, ExploreConfig{}); err == nil {
		t.Error("invalid plan accepted")
	}
	for _, c := range []spec.Criterion{spec.FinalStateOpacity, spec.TMS2, spec.RCO, spec.Serializability} {
		if _, err := ExplorePlan(context.Background(), "tl2", good, ExploreConfig{Criterion: c}); err == nil {
			t.Errorf("non-prefix-closed criterion %v accepted", c)
		}
	}
	big := stm.Plan{Objects: 1, Threads: make([][]stm.PlanTxn, 65)}
	for i := range big.Threads {
		big.Threads[i] = []stm.PlanTxn{{{Read: true}}}
	}
	if _, err := ExplorePlan(context.Background(), "tl2", big, ExploreConfig{}); err == nil {
		t.Error("65-thread plan accepted")
	}
}

// TestFormatExploreTable smoke-checks the CLI rendering.
func TestFormatExploreTable(t *testing.T) {
	p := stm.MustParsePlan(pleLitmusPlan)
	r, err := ExplorePlan(context.Background(), "ple", p, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatExploreTable([]ExploreReport{r})
	for _, want := range []string{"ple", "violation", "du-opacity", "schedule"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
