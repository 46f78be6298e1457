// This file is the farm's one execution path: a serializable JobSpec, its
// shards (RunShard, or DegradedShard for a shard that could not be
// computed) and the ordered fold. The in-process entry points run jobs
// through runJob and fold the real report types in memory; certd ships
// the same specs and results as JSON and folds them with FoldJob, so the
// two agree by construction. On the wire, plans travel as stm text,
// histories as histio text (histio.Text) and witnesses as history.Seq
// text, rebuilt at the fold (restoreWitnesses).
package checkfarm

import (
	"context"
	"fmt"
	"strings"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// ShardKind names the farm mode a job distributes.
type ShardKind string

const (
	// KindCertify shards the episodes of Certify: shard i is episode i of
	// the certification config.
	KindCertify ShardKind = "certify"
	// KindExplore shards the plans of ExplorePlans: shard i is the
	// exhaustive exploration of plan i.
	KindExplore ShardKind = "explore"
	// KindCheck shards the histories of CheckBatch: shard i checks
	// history i against every requested criterion.
	KindCheck ShardKind = "check"
	// KindSoak shards the cells of Soak: shard i is cell i of the
	// canonical (round, engine, mode) grid order.
	KindSoak ShardKind = "soak"
)

// JobSpec is a complete, serializable description of one farm job. Kind
// selects the mode; exactly the matching payload field must be set.
type JobSpec struct {
	Kind    ShardKind   `json:"kind"`
	Certify *CertifyJob `json:"certify,omitempty"`
	Explore *ExploreJob `json:"explore,omitempty"`
	Check   *CheckJob   `json:"check,omitempty"`
	Soak    *SoakJob    `json:"soak,omitempty"`
}

// CertifyJob is a certification: each shard runs one episode.
type CertifyJob struct {
	Config   harness.CertConfig `json:"config"`
	Criteria []spec.Criterion   `json:"criteria"`
}

// ExploreJob is a batch of plan explorations: each shard explores one
// plan.
type ExploreJob struct {
	Engine string                `json:"engine"`
	Plans  []stm.Plan            `json:"plans"`
	Config harness.ExploreConfig `json:"config"`
}

// CheckJob is a history batch: each shard checks one history against
// every criterion. NodeLimit 0 leaves the searches unbounded, as
// ducheck's batch mode does; Portfolio > 1 runs each check as a parallel
// portfolio search with that many workers (spec.WithParallelism).
type CheckJob struct {
	Histories []histio.Text    `json:"histories"`
	Criteria  []spec.Criterion `json:"criteria"`
	NodeLimit int              `json:"node_limit,omitempty"`
	Portfolio int              `json:"portfolio,omitempty"`
}

// SoakJob is a differential soak: each shard observes one cell of the
// canonical grid; divergence extraction and shrinking run at the fold.
type SoakJob struct {
	Config SoakConfig `json:"config"`
}

// Normalize validates the spec and pins every defaulted knob, so that
// NumShards and RunShard become pure functions of the returned spec —
// the property that lets a coordinator and its workers agree on the work
// without sharing memory. It applies the defaulting of the harness
// (CertConfig.WithDefaults, ExplorePlan's criterion default) and of
// SoakConfig. Engine names — including "engine+cm" matrix cells — are
// validated through engines.Parse, so a bad name fails at submit time on
// the coordinator, not at lease time on some worker.
func (s JobSpec) Normalize() (JobSpec, error) {
	switch s.Kind {
	case KindCertify:
		if s.Certify == nil || len(s.Certify.Criteria) == 0 {
			return s, fmt.Errorf("checkfarm: certify job wants a payload with criteria")
		}
		c := *s.Certify
		c.Config = c.Config.WithDefaults()
		if _, _, err := engines.Parse(c.Config.Engine); err != nil {
			return s, fmt.Errorf("checkfarm: certify job: %w", err)
		}
		s.Certify = &c
	case KindExplore:
		if s.Explore == nil || len(s.Explore.Plans) == 0 {
			return s, fmt.Errorf("checkfarm: explore job wants a payload with plans")
		}
		e := *s.Explore
		if _, _, err := engines.Parse(e.Engine); err != nil {
			return s, fmt.Errorf("checkfarm: explore job: %w", err)
		}
		if e.Config.Criterion == 0 {
			e.Config.Criterion = spec.DUOpacity
		}
		for i, p := range e.Plans {
			if err := p.Validate(); err != nil {
				return s, fmt.Errorf("checkfarm: explore job plan %d: %w", i, err)
			}
		}
		s.Explore = &e
	case KindCheck:
		if s.Check == nil || len(s.Check.Histories) == 0 || len(s.Check.Criteria) == 0 {
			return s, fmt.Errorf("checkfarm: check job wants histories and criteria")
		}
		for i, h := range s.Check.Histories {
			if h.History == nil {
				return s, fmt.Errorf("checkfarm: check job history %d is missing", i)
			}
		}
	case KindSoak:
		if s.Soak == nil {
			return s, fmt.Errorf("checkfarm: soak job wants a payload")
		}
		sk := *s.Soak
		sk.Config = sk.Config.withDefaults()
		for _, e := range sk.Config.Engines {
			if _, _, err := engines.Parse(e); err != nil {
				return s, fmt.Errorf("checkfarm: soak job: %w", err)
			}
		}
		s.Soak = &sk
	default:
		return s, fmt.Errorf("checkfarm: unknown job kind %q", s.Kind)
	}
	return s, nil
}

// NumShards is the number of independent work units of a normalized
// spec.
func (s JobSpec) NumShards() int {
	switch s.Kind {
	case KindCertify:
		return s.Certify.Config.Episodes
	case KindExplore:
		return len(s.Explore.Plans)
	case KindCheck:
		return len(s.Check.Histories)
	case KindSoak:
		return len(soakTasks(s.Soak.Config))
	}
	return 0
}

// ShardResult is the outcome of one shard; the field matching the job's
// kind is set.
type ShardResult struct {
	Episode *harness.EpisodeReport `json:"episode,omitempty"`
	Explore *harness.ExploreReport `json:"explore,omitempty"`
	Check   []spec.Verdict         `json:"check,omitempty"`
	Soak    *SoakCell              `json:"soak,omitempty"`
	// Degraded is set (with the reason) when the result is a
	// DegradedShard artifact rather than a computed one.
	Degraded string `json:"degraded,omitempty"`
}

// RunShard computes shard i of a normalized spec — the compute unit of
// both the in-process farm and a certd worker. It is a pure function of
// (spec, i) up to the scheduling nondeterminism of real-goroutine
// workloads (under Interleaved configs it is bit-reproducible).
// Cancellation propagates into checks, monitors and explorations.
func (s JobSpec) RunShard(ctx context.Context, i int) (ShardResult, error) {
	if n := s.NumShards(); i < 0 || i >= n {
		return ShardResult{}, fmt.Errorf("checkfarm: shard %d out of range (%d shards)", i, n)
	}
	return s.shardRunner(ctx)(i)
}

// shardRunner is RunShard for in-range shards with the job-wide setup
// done once. Each kind gets its own closure, which keeps the frame under
// a deep check or exploration small.
func (s JobSpec) shardRunner(ctx context.Context) func(i int) (ShardResult, error) {
	switch s.Kind {
	case KindCertify:
		return func(i int) (ShardResult, error) {
			r, err := harness.CertifyEpisode(ctx, s.Certify.Config, i, s.Certify.Criteria)
			return ShardResult{Episode: &r}, err
		}
	case KindExplore:
		return func(i int) (ShardResult, error) {
			r, err := harness.ExplorePlan(ctx, s.Explore.Engine, s.Explore.Plans[i], s.Explore.Config)
			return ShardResult{Explore: &r}, err
		}
	case KindCheck:
		opts := []spec.Option{spec.WithNodeLimit(s.Check.NodeLimit)}
		if s.Check.Portfolio > 1 {
			opts = append(opts, spec.WithParallelism(s.Check.Portfolio))
		}
		if ctx != nil {
			opts = append(opts, spec.WithContext(ctx))
		}
		return func(i int) (ShardResult, error) {
			vs := make([]spec.Verdict, len(s.Check.Criteria))
			for j, c := range s.Check.Criteria {
				vs[j] = spec.Check(s.Check.Histories[i].History, c, opts...)
			}
			return ShardResult{Check: vs}, nil
		}
	case KindSoak:
		return func(i int) (ShardResult, error) {
			cell, err := runSoakCell(s.Soak.Config, soakTasks(s.Soak.Config)[i])
			return ShardResult{Soak: &cell}, err
		}
	}
	return func(int) (ShardResult, error) {
		return ShardResult{}, fmt.Errorf("checkfarm: unknown job kind %q", s.Kind)
	}
}

// DegradedShard builds the explicit undecided artifact for a shard that
// could not be computed — one that panicked past its retries, or whose
// certd worker died past its lease retries or was drained. It always
// surfaces in the folded report (CertStats.Degraded, SoakResult.Degraded,
// ExploreReport.DegradedReason, "degraded: " verdicts), never a silent
// drop.
func (s JobSpec) DegradedShard(i int, reason string) ShardResult {
	res := ShardResult{Degraded: reason}
	switch s.Kind {
	case KindCertify:
		ep := harness.DegradedEpisode(s.Certify.Criteria, reason)
		res.Episode = &ep
	case KindExplore:
		res.Explore = &harness.ExploreReport{
			Engine:         s.Explore.Engine,
			Criterion:      s.Explore.Config.Criterion,
			Plan:           s.Explore.Plans[i],
			Outcome:        harness.BudgetExhausted,
			DegradedReason: reason,
		}
	case KindCheck:
		res.Check = make([]spec.Verdict, len(s.Check.Criteria))
		for j, c := range s.Check.Criteria {
			res.Check[j] = spec.Verdict{Criterion: c, Undecided: true, Reason: "degraded: " + reason}
		}
	case KindSoak:
		cell := s.Soak.Config.newCell(soakTasks(s.Soak.Config)[i])
		cell.Degraded = reason
		res.Soak = &cell
	}
	return res
}

// JobReport is the folded outcome of a job; the field matching the kind
// is set.
type JobReport struct {
	Kind     ShardKind
	Certify  *harness.CertStats
	Explore  []harness.ExploreReport
	Check    [][]spec.Verdict
	Soak     *SoakResult
	Degraded int
}

// folder aggregates shard results, given in shard order, into a
// JobReport; certify episodes fold into running statistics.
type folder struct {
	s     JobSpec
	rep   JobReport
	cells []SoakCell
}

func newFolder(s JobSpec) *folder {
	f := &folder{s: s, rep: JobReport{Kind: s.Kind}}
	switch s.Kind {
	case KindCertify:
		stats := harness.NewCertStats(s.Certify.Config.Workload.Engine)
		f.rep.Certify = &stats
	case KindExplore:
		f.rep.Explore = make([]harness.ExploreReport, 0, s.NumShards())
	case KindCheck:
		f.rep.Check = make([][]spec.Verdict, 0, s.NumShards())
	}
	return f
}

// add folds the result of shard i, the next shard in order.
func (f *folder) add(i int, r ShardResult) error {
	if r.Degraded != "" {
		f.rep.Degraded++
	}
	switch {
	case f.s.Kind == KindCertify && r.Episode != nil:
		f.rep.Certify.AddEpisode(f.s.Certify.Criteria, *r.Episode)
	case f.s.Kind == KindExplore && r.Explore != nil:
		f.rep.Explore = append(f.rep.Explore, *r.Explore)
	case f.s.Kind == KindCheck && r.Check != nil:
		f.rep.Check = append(f.rep.Check, r.Check)
	case f.s.Kind == KindSoak && r.Soak != nil:
		f.cells = append(f.cells, *r.Soak)
	default:
		return fmt.Errorf("checkfarm: fold: shard %d carries no %s result", i, f.s.Kind)
	}
	return nil
}

// finish completes the report; soak divergences are shrunk here over
// jobs workers.
func (f *folder) finish(ctx context.Context, jobs int) (*JobReport, error) {
	if f.s.Kind == KindSoak {
		res, err := foldSoak(ctx, f.s.Soak.Config, f.cells, jobs)
		if err != nil {
			return nil, err
		}
		f.rep.Soak = res
	}
	return &f.rep, nil
}

// restoreWitnesses rebuilds the witnesses of a decoded shard result,
// which name only an order and commit decisions, into full sequential
// histories over the history each verdict judged. A certify episode's
// history does not travel, so its witnesses are dropped.
func restoreWitnesses(s JobSpec, i int, r *ShardResult) (err error) {
	restore := func(v spec.Verdict, h *history.History) spec.Verdict {
		switch {
		case v.Serialization == nil || err != nil:
		case h == nil:
			v.Serialization = nil
		default:
			v.Serialization, err = v.Serialization.InHistory(h)
		}
		return v
	}
	switch {
	case s.Kind == KindCheck:
		for j, v := range r.Check {
			r.Check[j] = restore(v, s.Check.Histories[i].History)
		}
	case s.Kind == KindSoak && r.Soak != nil:
		for c, v := range r.Soak.Verdicts {
			r.Soak.Verdicts[c] = restore(v, r.Soak.History.History)
		}
	case s.Kind == KindCertify && r.Episode != nil:
		for c, v := range r.Episode.Verdicts {
			r.Episode.Verdicts[c] = restore(v, nil)
		}
	case s.Kind == KindExplore && r.Explore != nil && r.Explore.Violation != nil:
		v := r.Explore.Violation
		v.Verdict = restore(v.Verdict, v.History.History)
	}
	return err
}

// FoldJob aggregates the results of a normalized spec's shards, given in
// shard order — the coordinator side of a distributed job, whose results
// crossed the wire as JSON (see restoreWitnesses). jobs bounds
// the soak shrinking pool. results[i] == nil is rejected: a missing
// shard must be degraded explicitly, not skipped.
func FoldJob(ctx context.Context, s JobSpec, results []*ShardResult, jobs int) (*JobReport, error) {
	if len(results) != s.NumShards() {
		return nil, fmt.Errorf("checkfarm: fold wants %d results, got %d", s.NumShards(), len(results))
	}
	f := newFolder(s)
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("checkfarm: fold: missing result for shard %d (degrade it explicitly)", i)
		}
		if err := restoreWitnesses(s, i, r); err != nil {
			return nil, fmt.Errorf("checkfarm: fold: shard %d: %w", i, err)
		}
		if err := f.add(i, *r); err != nil {
			return nil, err
		}
	}
	return f.finish(ctx, jobs)
}

// streamJob runs the shards of a normalized spec in process over jobs
// workers, each under runProtected's crash containment (DegradedShard
// past its retries), and hands the results to emit in shard order
// through streamOrdered's bounded reorder window, so a certification's
// memory stays O(jobs) however many episodes it has.
func streamJob(ctx context.Context, s JobSpec, jobs int, emit func(i int, r ShardResult) error) error {
	run := protect(ctx, s.shardRunner(ctx), func(i int, pe *ShardPanicError) ShardResult {
		return s.DegradedShard(i, pe.Error())
	})
	return streamOrdered(ctx, s.NumShards(), jobs, run, emit)
}

// runJob normalizes s, runs it in process and folds it in memory; jobs
// <= 0 uses GOMAXPROCS.
func runJob(ctx context.Context, s JobSpec, jobs int) (*JobReport, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	f := newFolder(s)
	if err := streamJob(ctx, s, jobs, f.add); err != nil {
		return nil, err
	}
	return f.finish(ctx, jobs)
}

// FormatJobReport renders the folded report with the same formatters the
// in-process CLIs use, so a distributed run's output is comparable (and,
// for deterministic jobs, byte-identical) to a local one.
func FormatJobReport(s JobSpec, rep *JobReport) string {
	var b strings.Builder
	if rep.Degraded > 0 {
		fmt.Fprintf(&b, "%d of %d shard(s) degraded (dead workers); their results are explicit undecided artifacts\n",
			rep.Degraded, s.NumShards())
	}
	switch rep.Kind {
	case KindCertify:
		b.WriteString(harness.FormatCertTable(*rep.Certify, s.Certify.Criteria))
	case KindExplore:
		b.WriteString(harness.FormatExploreTable(rep.Explore))
	case KindCheck:
		for i, row := range rep.Check {
			if len(rep.Check) > 1 {
				fmt.Fprintf(&b, "== history %d ==\n", i)
			}
			for _, v := range row {
				fmt.Fprintln(&b, v)
			}
		}
	case KindSoak:
		b.WriteString(FormatSoakReport(s.Soak.Config, rep.Soak))
	}
	return b.String()
}
