package checkfarm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/litmus"
	"duopacity/internal/spec"
)

func interleavedCfg(engine string, episodes int) harness.CertConfig {
	return harness.CertConfig{
		Workload: harness.Workload{
			Engine:           engine,
			Objects:          4,
			Goroutines:       4,
			TxnsPerGoroutine: 3,
			OpsPerTxn:        4,
			ReadFraction:     0.5,
			Seed:             7,
		},
		Episodes:    episodes,
		Interleaved: true,
	}
}

// TestCertifyMatchesSequential is the pipeline's core guarantee: sharded
// certification aggregates to byte-identical statistics, at every worker
// count, for deterministic episodes.
func TestCertifyMatchesSequential(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity, spec.StrictSerializability}
	for _, engine := range []string{"tl2", "ple", "gl"} {
		cfg := interleavedCfg(engine, 12)
		want, err := harness.Certify(cfg, criteria)
		if err != nil {
			t.Fatalf("%s: sequential: %v", engine, err)
		}
		for _, jobs := range []int{1, 2, 4, 0} {
			got, err := Certify(context.Background(), cfg, criteria, jobs)
			if err != nil {
				t.Fatalf("%s/jobs=%d: %v", engine, jobs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/jobs=%d: parallel stats differ:\ngot  %#v\nwant %#v", engine, jobs, got, want)
			}
			gotTable := harness.FormatCertTable(got, criteria)
			wantTable := harness.FormatCertTable(want, criteria)
			if gotTable != wantTable {
				t.Errorf("%s/jobs=%d: rendered tables differ:\n%s\nvs\n%s", engine, jobs, gotTable, wantTable)
			}
		}
	}
}

func TestCertifyUnknownEngine(t *testing.T) {
	cfg := harness.CertConfig{Workload: harness.Workload{Engine: "bogus"}, Episodes: 4}
	if _, err := Certify(context.Background(), cfg, []spec.Criterion{spec.DUOpacity}, 2); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestCertifyCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Certify(ctx, interleavedCfg("tl2", 8), []spec.Criterion{spec.DUOpacity}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCheckBatchOrderAndVerdicts(t *testing.T) {
	cases := litmus.Cases()
	hs := make([]histio.Text, len(cases))
	for i, c := range cases {
		hs[i].History = c.H
	}
	criteria := []spec.Criterion{spec.DUOpacity, spec.FinalStateOpacity}
	got, err := CheckBatch(context.Background(), CheckJob{Histories: hs, Criteria: criteria}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hs) {
		t.Fatalf("got %d results, want %d", len(got), len(hs))
	}
	for i, h := range hs {
		for j, c := range criteria {
			want := spec.Check(h.History, c)
			if got[i][j].OK != want.OK || got[i][j].Criterion != want.Criterion {
				t.Errorf("case %q criterion %s: got OK=%v, want OK=%v",
					cases[i].Name, c, got[i][j].OK, want.OK)
			}
		}
	}
}

func TestSweepParallelGridOrder(t *testing.T) {
	cfg := harness.SweepConfig{
		Engines:       []string{"gl", "norec"},
		Goroutines:    []int{1, 2},
		ReadFractions: []float64{0.5},
		Base: harness.Workload{
			Objects:          4,
			TxnsPerGoroutine: 20,
			OpsPerTxn:        2,
			Seed:             1,
		},
	}
	points, err := Sweep(context.Background(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(want) {
		t.Fatalf("got %d points, want %d", len(points), len(want))
	}
	for i := range points {
		if points[i].Engine != want[i].Engine ||
			points[i].Goroutines != want[i].Goroutines ||
			points[i].ReadFraction != want[i].ReadFraction {
			t.Errorf("point %d: grid order diverged: got %s/g=%d/rf=%.2f, want %s/g=%d/rf=%.2f",
				i, points[i].Engine, points[i].Goroutines, points[i].ReadFraction,
				want[i].Engine, want[i].Goroutines, want[i].ReadFraction)
		}
		if points[i].Stats.Commits == 0 {
			t.Errorf("point %d: no commits", i)
		}
	}
}

func TestSweepUnknownEngine(t *testing.T) {
	_, err := Sweep(context.Background(), harness.SweepConfig{
		Engines:       []string{"bogus"},
		Goroutines:    []int{1},
		ReadFractions: []float64{0.5},
	}, 2)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestResolveJobs(t *testing.T) {
	if j := resolveJobs(0, 100); j < 1 {
		t.Errorf("resolveJobs(0, 100) = %d", j)
	}
	if j := resolveJobs(8, 3); j != 3 {
		t.Errorf("resolveJobs(8, 3) = %d, want 3", j)
	}
	if j := resolveJobs(-1, 0); j != 1 {
		t.Errorf("resolveJobs(-1, 0) = %d, want 1", j)
	}
}

func TestCertifyNegativeEpisodesDefaults(t *testing.T) {
	cfg := interleavedCfg("gl", 2)
	cfg.Episodes = -1 // must fall back to the default, not panic
	stats, err := Certify(context.Background(), cfg, []spec.Criterion{spec.DUOpacity}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Episodes+stats.Skipped != 20 {
		t.Fatalf("episodes+skipped = %d, want the default 20", stats.Episodes+stats.Skipped)
	}
}
