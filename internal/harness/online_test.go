package harness

import (
	"context"
	"testing"

	"duopacity/internal/spec"
)

// TestRunMonitoredMatchesBatch pins online certification against the
// record-then-check pipeline: for the deterministic interleaved
// scheduler, the monitored run and the batch check of the same seeded
// episode must agree on the verdict.
func TestRunMonitoredMatchesBatch(t *testing.T) {
	for _, engine := range []string{"tl2", "norec", "ple"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			w := Workload{
				Engine:           engine,
				Objects:          4,
				Goroutines:       4,
				TxnsPerGoroutine: 2,
				OpsPerTxn:        4,
				ReadFraction:     0.5,
				Seed:             8,
			}
			r, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true)
			if err != nil {
				t.Fatal(err)
			}
			h, _, err := RunInterleaved(w)
			if err != nil {
				t.Fatal(err)
			}
			want := spec.CheckDUOpacity(h, spec.WithNodeLimit(2_000_000))
			if r.Verdict.OK != want.OK || r.Verdict.Undecided != want.Undecided {
				t.Fatalf("online verdict %v, batch %v", r.Verdict, want)
			}
			if r.Events != h.Len() {
				t.Fatalf("monitored %d events, history has %d", r.Events, h.Len())
			}
			if !r.Verdict.OK && r.ViolationAt < 0 {
				t.Fatal("latched violation without a violation index")
			}
		})
	}
}

// TestRunMonitoredIdentifiesViolationEvent pins the new capability: on
// the golden ple episode (a deferred-update violation), the live monitor
// latches at a specific event index while the run is still producing
// events — the prefix up to that event must already violate du-opacity,
// and the prefix before it must not.
func TestRunMonitoredIdentifiesViolationEvent(t *testing.T) {
	r, err := RunMonitored(pleGoldenWorkload(), spec.DUOpacity, 2_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict.OK || r.Verdict.Undecided {
		t.Fatalf("golden ple episode must violate du-opacity online, got %v", r.Verdict)
	}
	if r.ViolationAt < 0 {
		t.Fatal("no violation index recorded")
	}
	h, _, err := RunInterleaved(pleGoldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if v := spec.CheckDUOpacity(h.Prefix(r.ViolationAt + 1)); v.OK {
		t.Fatalf("prefix through event %d should violate du-opacity", r.ViolationAt)
	}
	if v := spec.CheckDUOpacity(h.Prefix(r.ViolationAt)); !v.OK {
		t.Fatalf("prefix before event %d should still be du-opaque: %s", r.ViolationAt, v.Reason)
	}
}

// TestRunMonitoredConcurrent exercises the tap under real goroutines: the
// monitor must consume a well-formed stream (no append errors, which
// would panic) and produce a verdict; tl2's runs are du-opaque in
// practice.
func TestRunMonitoredConcurrent(t *testing.T) {
	r, err := RunMonitored(Workload{
		Engine:           "tl2",
		Objects:          4,
		Goroutines:       4,
		TxnsPerGoroutine: 3,
		OpsPerTxn:        3,
		Seed:             5,
	}, spec.DUOpacity, 2_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verdict.OK {
		t.Fatalf("tl2 run rejected online: %s", r.Verdict.Reason)
	}
	if r.Events == 0 || r.Searches+r.FastHits == 0 {
		t.Fatalf("implausible monitor counters: events=%d searches=%d fastHits=%d",
			r.Events, r.Searches, r.FastHits)
	}
}

// TestRunMonitoredWithRetirement pins the option pass-through: a
// monitored run with spec.WithRetirement must reach the same verdict as
// the plain monitored run, and on a sequential workload (every
// transaction a retirement barrier) it must actually retire.
func TestRunMonitoredWithRetirement(t *testing.T) {
	w := Workload{
		Engine:           "tl2",
		Objects:          3,
		Goroutines:       1,
		TxnsPerGoroutine: 40,
		OpsPerTxn:        3,
		ReadFraction:     0.4,
		Seed:             11,
	}
	plain, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Retired != 0 {
		t.Fatalf("retirement fired without WithRetirement: %d", plain.Retired)
	}
	ret, err := RunMonitored(w, spec.DUOpacity, 2_000_000, true, spec.WithRetirement(4))
	if err != nil {
		t.Fatal(err)
	}
	if ret.Verdict.OK != plain.Verdict.OK || ret.Verdict.Undecided != plain.Verdict.Undecided {
		t.Fatalf("retiring verdict %v diverges from plain %v", ret.Verdict, plain.Verdict)
	}
	if ret.Events != plain.Events {
		t.Fatalf("retiring run saw %d events, plain %d", ret.Events, plain.Events)
	}
	if ret.Retired == 0 {
		t.Fatal("sequential workload retired nothing")
	}
}

// TestCertifyEpisodeOnlineSeeding pins that online episodes cover the
// same executions as batch episodes (same seed derivation).
func TestCertifyEpisodeOnlineSeeding(t *testing.T) {
	cfg := CertConfig{Workload: Workload{
		Engine:           "ple",
		Objects:          4,
		Goroutines:       8,
		TxnsPerGoroutine: 4,
		OpsPerTxn:        8,
		ReadFraction:     0.5,
		Seed:             4,
	}, Episodes: 6, Interleaved: true}
	cfg = cfg.WithDefaults()
	var online OnlineStats
	online.Engine = cfg.Workload.Engine
	online.Criterion = spec.DUOpacity
	batch := NewCertStats(cfg.Workload.Engine)
	for ep := 0; ep < cfg.Episodes; ep++ {
		r, err := CertifyEpisodeOnline(context.Background(), cfg, ep, spec.DUOpacity)
		if err != nil {
			t.Fatal(err)
		}
		online.AddEpisode(r)
		br, err := CertifyEpisode(context.Background(), cfg, ep, []spec.Criterion{spec.DUOpacity})
		if err != nil {
			t.Fatal(err)
		}
		batch.AddEpisode([]spec.Criterion{spec.DUOpacity}, br)
	}
	if online.Accepted != batch.Accepted[spec.DUOpacity] ||
		online.Rejected != batch.Rejected[spec.DUOpacity] {
		t.Fatalf("online (%d accepted, %d rejected) diverges from batch (%d, %d)",
			online.Accepted, online.Rejected,
			batch.Accepted[spec.DUOpacity], batch.Rejected[spec.DUOpacity])
	}
	// The verdicts agree (du-opacity is prefix-closed); the reasons need
	// not: the monitor latches at the first violating prefix, whose
	// refutation can name an earlier cause than the full episode's.
	if online.Rejected > 0 && online.FirstReason == "" {
		t.Fatal("rejections without a first reason")
	}
	if out := FormatOnlineTable(online); out == "" {
		t.Fatal("empty online table")
	}
}
