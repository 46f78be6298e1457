package checkfarm

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// runRemote simulates the full distributed path of a job: the spec
// crosses the wire as JSON, every shard is computed by RunShard from the
// decoded copy, every result crosses back as JSON, and the decoded
// results are folded. Anything the wire forms lose shows up as a
// difference against the in-process farm.
func runRemote(t *testing.T, s JobSpec) *JobReport {
	t.Helper()
	specBytes, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	var remote JobSpec
	if err := json.Unmarshal(specBytes, &remote); err != nil {
		t.Fatalf("unmarshal spec: %v", err)
	}
	remote, err = remote.Normalize()
	if err != nil {
		t.Fatalf("normalize decoded spec: %v", err)
	}
	if got, want := remote.NumShards(), s.NumShards(); got != want {
		t.Fatalf("decoded spec has %d shards, original %d", got, want)
	}
	results := make([]*ShardResult, remote.NumShards())
	for i := range results {
		r, err := remote.RunShard(context.Background(), i)
		if err != nil {
			t.Fatalf("RunShard(%d): %v", i, err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal result %d: %v", i, err)
		}
		var back ShardResult
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal result %d: %v", i, err)
		}
		results[i] = &back
	}
	rep, err := FoldJob(context.Background(), remote, results, 2)
	if err != nil {
		t.Fatalf("FoldJob: %v", err)
	}
	return rep
}

func mustNormalize(t *testing.T, s JobSpec) JobSpec {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	return n
}

// TestFoldMatchesLocalFarmCertify pins the acceptance criterion at the
// checkfarm layer: a certification distributed shard-by-shard over the
// wire folds byte-identically to the in-process farm.
func TestFoldMatchesLocalFarmCertify(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.Serializability}
	s := mustNormalize(t, JobSpec{Kind: KindCertify, Certify: &CertifyJob{
		Config: harness.CertConfig{
			Workload: harness.Workload{Engine: "tl2", Objects: 3, Goroutines: 3, TxnsPerGoroutine: 2, OpsPerTxn: 3, Seed: 42},
			Episodes: 8, Interleaved: true,
		},
		Criteria: criteria,
	}})

	local, err := Certify(context.Background(), s.Certify.Config, criteria, 2)
	if err != nil {
		t.Fatalf("local Certify: %v", err)
	}
	rep := runRemote(t, s)
	if rep.Certify == nil {
		t.Fatalf("remote fold produced no certify stats")
	}
	if !reflect.DeepEqual(local, *rep.Certify) {
		t.Fatalf("remote fold diverged from local farm:\nlocal:  %+v\nremote: %+v", local, *rep.Certify)
	}
	want := harness.FormatCertTable(local, criteria)
	got := FormatJobReport(s, rep)
	if got != want {
		t.Fatalf("formatted reports differ:\nlocal:\n%s\nremote:\n%s", want, got)
	}
}

func TestFoldMatchesLocalFarmExplore(t *testing.T) {
	plans := []stm.Plan{
		stm.MustParsePlan("w0 | r0 r1\nw1"),
		stm.MustParsePlan("r0 w1\nr1 w0"),
	}
	s := mustNormalize(t, JobSpec{Kind: KindExplore, Explore: &ExploreJob{
		Engine: "gl", Plans: plans, Config: harness.ExploreConfig{},
	}})

	local, err := ExplorePlans(context.Background(), "gl", plans, harness.ExploreConfig{}, 2)
	if err != nil {
		t.Fatalf("local ExplorePlans: %v", err)
	}
	rep := runRemote(t, s)
	if len(rep.Explore) != len(local) {
		t.Fatalf("remote fold has %d reports, local %d", len(rep.Explore), len(local))
	}
	for i := range local {
		l, r := local[i], rep.Explore[i]
		if l.Outcome != r.Outcome || l.Schedules != r.Schedules || l.Steps != r.Steps ||
			l.Violations != r.Violations || l.SleepPruned != r.SleepPruned ||
			l.Plan.String() != r.Plan.String() || l.Plan.Objects != r.Plan.Objects {
			t.Fatalf("plan %d diverged:\nlocal:  %+v\nremote: %+v", i, l, r)
		}
	}
	want := harness.FormatExploreTable(local)
	got := FormatJobReport(s, rep)
	if got != want {
		t.Fatalf("formatted explore tables differ:\nlocal:\n%s\nremote:\n%s", want, got)
	}
}

func TestFoldMatchesLocalFarmCheck(t *testing.T) {
	histories := []string{
		"write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n",
		// Deferred-update violation: T2 reads T1's write before T1 commits.
		"inv write 1 X 5\nres write 1 X 5 ok\nread 2 X 5\ncommit 2\ncommit 1\n",
	}
	criteria := []spec.Criterion{spec.DUOpacity, spec.Serializability}
	hs := mustParse(t, histories...)
	s := mustNormalize(t, JobSpec{Kind: KindCheck, Check: &CheckJob{
		Histories: hs, Criteria: criteria, NodeLimit: 200_000,
	}})

	local, err := CheckBatch(context.Background(), CheckJob{Histories: hs, Criteria: criteria, NodeLimit: 200_000}, 2)
	if err != nil {
		t.Fatalf("local CheckBatch: %v", err)
	}

	rep := runRemote(t, s)
	if len(rep.Check) != len(local) {
		t.Fatalf("remote fold has %d rows, local %d", len(rep.Check), len(local))
	}
	for i := range local {
		var got, want strings.Builder
		for j := range local[i] {
			fmt.Fprintln(&got, rep.Check[i][j])
			fmt.Fprintln(&want, local[i][j])
			// The fold restores every remote witness to the full
			// sequential history: the local one, and for du-opacity one
			// that the search-free verifier accepts.
			rv := rep.Check[i][j]
			if !rv.OK {
				continue
			}
			if rv.Serialization == nil || !reflect.DeepEqual(rv.Serialization, local[i][j].Serialization) {
				t.Fatalf("history %d criterion %s: remote witness %v, local %v", i, criteria[j], rv.Serialization, local[i][j].Serialization)
			}
			if criteria[j] == spec.DUOpacity {
				if err := spec.VerifySerialization(hs[i].History, rv.Serialization); err != nil {
					t.Fatalf("history %d: remote du-opacity witness fails verification: %v", i, err)
				}
			}
		}
		if got.String() != want.String() {
			t.Fatalf("history %d: remote row\n%s\nlocal row\n%s", i, got.String(), want.String())
		}
	}
	if local[1][0].OK {
		t.Fatalf("sanity: the early-read history should violate du-opacity")
	}
}

// mustParse parses histories in the histio text format.
func mustParse(t *testing.T, srcs ...string) []histio.Text {
	t.Helper()
	hs := make([]histio.Text, len(srcs))
	for i, src := range srcs {
		h, err := histio.ParseString(src)
		if err != nil {
			t.Fatalf("parse history %d: %v", i, err)
		}
		hs[i].History = h
	}
	return hs
}

func TestFoldMatchesLocalFarmSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak differential is not -short")
	}
	cfg := SoakConfig{
		Engines:  []string{"gl", "norec"},
		Criteria: []spec.Criterion{spec.DUOpacity, spec.Serializability},
		Rounds:   2,
		Seed:     7,
	}
	s := mustNormalize(t, JobSpec{Kind: KindSoak, Soak: &SoakJob{Config: cfg}})

	local, err := Soak(context.Background(), cfg, 2)
	if err != nil {
		t.Fatalf("local Soak: %v", err)
	}
	rep := runRemote(t, s)
	if rep.Soak == nil {
		t.Fatalf("remote fold produced no soak result")
	}
	want := FormatSoakReport(s.Soak.Config, local)
	got := FormatJobReport(s, rep)
	if got != want {
		t.Fatalf("formatted soak reports differ:\nlocal:\n%s\nremote:\n%s", want, got)
	}
	// The fold restores each cell's witnesses over the cell's history.
	verified := 0
	for i, cell := range rep.Soak.Cells {
		if v := cell.Verdicts[spec.DUOpacity]; v.OK {
			if err := spec.VerifySerialization(cell.History.History, v.Serialization); err != nil {
				t.Fatalf("cell %d: remote du-opacity witness fails verification: %v", i, err)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatalf("sanity: no remote cell accepted du-opacity")
	}
}

// TestDegradedShardFold pins the dead-worker contract per kind: a shard
// substituted by DegradedShard folds into an explicit degradation
// artifact — counted, rendered, never silently dropped.
func TestDegradedShardFold(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity}

	t.Run("certify", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindCertify, Certify: &CertifyJob{
			Config: harness.CertConfig{
				Workload: harness.Workload{Engine: "gl", Objects: 2, Goroutines: 2, TxnsPerGoroutine: 2, OpsPerTxn: 2, Seed: 1},
				Episodes: 3, Interleaved: true,
			},
			Criteria: criteria,
		}})
		results := make([]*ShardResult, s.NumShards())
		for i := range results {
			if i == 1 {
				r := s.DegradedShard(i, "worker w2 lease expired")
				results[i] = &r
				continue
			}
			r, err := s.RunShard(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = &r
		}
		rep, err := FoldJob(context.Background(), s, results, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded != 1 || rep.Certify.Degraded != 1 {
			t.Fatalf("degraded counts: fold %d, stats %d (want 1, 1)", rep.Degraded, rep.Certify.Degraded)
		}
		if rep.Certify.Undecided[spec.DUOpacity] != 1 {
			t.Fatalf("degraded episode should be undecided: %+v", rep.Certify)
		}
		out := FormatJobReport(s, rep)
		if !strings.Contains(out, "degraded") {
			t.Fatalf("report does not surface the degradation:\n%s", out)
		}
	})

	t.Run("explore", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindExplore, Explore: &ExploreJob{
			Engine: "gl", Plans: []stm.Plan{stm.MustParsePlan("w0\nr0")},
		}})
		r := s.DegradedShard(0, "worker lost")
		rep, err := FoldJob(context.Background(), s, []*ShardResult{&r}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded != 1 {
			t.Fatalf("fold degraded count %d, want 1", rep.Degraded)
		}
		er := rep.Explore[0]
		if er.Outcome != harness.BudgetExhausted || er.DegradedReason != "worker lost" {
			t.Fatalf("degraded exploration artifact wrong: %+v", er)
		}
	})

	t.Run("check", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindCheck, Check: &CheckJob{
			Histories: mustParse(t, "write 1 X 1\ncommit 1\n"),
			Criteria:  criteria,
		}})
		r := s.DegradedShard(0, "worker lost")
		rep, err := FoldJob(context.Background(), s, []*ShardResult{&r}, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := rep.Check[0][0]
		if !v.Undecided || !strings.Contains(v.Reason, "degraded: worker lost") {
			t.Fatalf("degraded check verdict wrong: %+v", v)
		}
	})

	t.Run("soak", func(t *testing.T) {
		s := mustNormalize(t, JobSpec{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{
			Engines: []string{"gl"}, Criteria: criteria, Rounds: 1, Seed: 3,
		}}})
		results := make([]*ShardResult, s.NumShards())
		for i := range results {
			if i == 0 {
				r := s.DegradedShard(i, "worker lost")
				results[i] = &r
				continue
			}
			r, err := s.RunShard(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = &r
		}
		rep, err := FoldJob(context.Background(), s, results, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Soak.Degraded != 1 {
			t.Fatalf("soak degraded count %d, want 1", rep.Soak.Degraded)
		}
		out := FormatJobReport(s, rep)
		if !strings.Contains(out, "degraded") {
			t.Fatalf("soak report does not surface the degradation:\n%s", out)
		}
	})
}

// TestFoldRejectsMissingResult: a nil slot must be an error, not a
// silent skip — missing shards are degraded explicitly by the caller.
func TestFoldRejectsMissingResult(t *testing.T) {
	s := mustNormalize(t, JobSpec{Kind: KindCheck, Check: &CheckJob{
		Histories: mustParse(t, "commit 1\n"), Criteria: []spec.Criterion{spec.DUOpacity},
	}})
	if _, err := FoldJob(context.Background(), s, []*ShardResult{nil}, 1); err == nil {
		t.Fatalf("FoldJob accepted a missing result")
	}
	if _, err := FoldJob(context.Background(), s, nil, 1); err == nil {
		t.Fatalf("FoldJob accepted a short result slice")
	}
}

// TestJobSpecNormalizeIdempotent: normalization pins every default, so a
// coordinator and a worker normalizing independently agree on the work.
func TestJobSpecNormalizeIdempotent(t *testing.T) {
	specs := []JobSpec{
		{Kind: KindCertify, Certify: &CertifyJob{
			Config:   harness.CertConfig{Workload: harness.Workload{Engine: "tl2"}},
			Criteria: []spec.Criterion{spec.DUOpacity},
		}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl", Plans: []stm.Plan{stm.MustParsePlan("w0\nr0")}}},
		{Kind: KindCheck, Check: &CheckJob{Histories: mustParse(t, "commit 1\n"), Criteria: []spec.Criterion{spec.Opacity}}},
		{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{Rounds: 1}}},
	}
	for _, s := range specs {
		n1 := mustNormalize(t, s)
		n2 := mustNormalize(t, n1)
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("%s: Normalize not idempotent:\n1: %+v\n2: %+v", s.Kind, n1, n2)
		}
		if n1.NumShards() <= 0 {
			t.Fatalf("%s: normalized spec has no shards", s.Kind)
		}
		b, err := json.Marshal(n1)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Kind, err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", s.Kind, err)
		}
		if back.NumShards() != n1.NumShards() {
			t.Fatalf("%s: shard count changed over the wire: %d -> %d", s.Kind, n1.NumShards(), back.NumShards())
		}
	}
}

func TestJobSpecValidation(t *testing.T) {
	okPlan := []stm.Plan{stm.MustParsePlan("w0\nr0")}
	bad := []JobSpec{
		{Kind: "nope"},
		{Kind: KindCertify},
		{Kind: KindCertify, Certify: &CertifyJob{}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl"}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl", Plans: []stm.Plan{{Objects: 1}}}},
		{Kind: KindCheck, Check: &CheckJob{Histories: []histio.Text{{}}, Criteria: []spec.Criterion{spec.DUOpacity}}},
		{Kind: KindSoak},
		// Engine names go through the shared engine[+cm] parser: unknown
		// bases, unknown CM suffixes and CM suffixes on CM-incapable
		// engines all fail at submit time.
		{Kind: KindCertify, Certify: &CertifyJob{
			Config:   harness.CertConfig{Workload: harness.Workload{Engine: "tl2+bogus"}},
			Criteria: []spec.Criterion{spec.DUOpacity},
		}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "gl+karma", Plans: okPlan}},
		{Kind: KindExplore, Explore: &ExploreJob{Engine: "nope", Plans: okPlan}},
		{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{Engines: []string{"tl2", "nope"}}}},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d (%s): Normalize accepted an invalid spec", i, s.Kind)
		}
	}
	// Plans and histories parse as they are decoded, so bad text fails
	// the JSON decode with an explicit error.
	for _, src := range []string{
		`{"kind":"explore","explore":{"engine":"gl","plans":[{"objects":1,"text":"x9q"}]}}`,
		`{"kind":"check","check":{"histories":["not a history !!"],"criteria":["du"]}}`,
	} {
		var s JobSpec
		if err := json.Unmarshal([]byte(src), &s); err == nil {
			t.Errorf("decoded an invalid spec: %s", src)
		}
	}
}

// TestJobSpecAcceptsEngineCMMatrix: every engine[+cm] matrix cell is a
// valid job-spec engine name, so certd jobs can target the full grid.
func TestJobSpecAcceptsEngineCMMatrix(t *testing.T) {
	for _, name := range engines.Matrix() {
		s := JobSpec{Kind: KindExplore, Explore: &ExploreJob{
			Engine: name, Plans: []stm.Plan{stm.MustParsePlan("w0\nr0")},
		}}
		if _, err := s.Normalize(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	s := JobSpec{Kind: KindSoak, Soak: &SoakJob{Config: SoakConfig{
		Engines: SoakEngineMatrix(), Rounds: 1,
	}}}
	if _, err := s.Normalize(); err != nil {
		t.Errorf("soak over SoakEngineMatrix: %v", err)
	}
}
