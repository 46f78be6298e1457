package checkfarm

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"text/tabwriter"

	"duopacity/internal/gen"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
	"duopacity/internal/stm/engines"
)

// SoakEngines is the default engine set of the differential soak: every
// engine family of the engines registry, including the
// parallel-certification pdur engine. The validating etl variant (etl+v)
// is covered by the base etl knob and can be added explicitly.
func SoakEngines() []string {
	var names []string
	for _, n := range engines.Names() {
		if n != "etl+v" {
			names = append(names, n)
		}
	}
	return names
}

// SoakEngineMatrix is the extended soak grid: the engine families plus a
// bounded sample of contention-managed cells — one cell per CM policy,
// spread across the CM-capable engines so every policy and every
// CM-capable engine family appears without multiplying the grid (CI
// time stays near-flat; the full matrix remains reachable by listing
// names explicitly).
func SoakEngineMatrix() []string {
	return append(SoakEngines(),
		"tl2+karma", "norec+backoff", "dstm+greedy", "pdur+backoff", "etl+karma")
}

// SoakConfig parameterizes a differential soak run.
type SoakConfig struct {
	// Engines to exercise (default SoakEngines()).
	Engines []string
	// Criteria to check each recorded history against (default
	// spec.AllCriteria()).
	Criteria []spec.Criterion
	// Rounds of the randomized workload grid (default 6). Every engine
	// sees the same per-round workload shape, once under real concurrency
	// and once under the deterministic interleaved scheduler, so the
	// engines are compared on identical plans.
	Rounds int
	// Seed randomizes the workload grid; rounds derive their shapes and
	// seeds purely from it.
	Seed int64
	// NodeLimit bounds each exact check and each shrinking re-check
	// (default 300_000).
	NodeLimit int
	// MaxTxns skips histories too large for exact checking (default 40).
	MaxTxns int
	// Portfolio > 1 runs each exact check as a parallel portfolio search
	// with that many workers (spec.WithParallelism). Combine with a small
	// jobs count when a few hard cells dominate the soak.
	Portfolio int
}

// checkOpts builds the spec options shared by the soak's checks.
func (c SoakConfig) checkOpts() []spec.Option {
	opts := []spec.Option{spec.WithNodeLimit(c.NodeLimit)}
	if c.Portfolio > 1 {
		opts = append(opts, spec.WithParallelism(c.Portfolio))
	}
	return opts
}

func (c SoakConfig) withDefaults() SoakConfig {
	if len(c.Engines) == 0 {
		c.Engines = SoakEngines()
	}
	if len(c.Criteria) == 0 {
		c.Criteria = spec.AllCriteria()
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.NodeLimit <= 0 {
		c.NodeLimit = 300_000
	}
	if c.MaxTxns <= 0 {
		c.MaxTxns = 40
	}
	return c
}

// roundWorkload derives round r's workload shape deterministically from
// the soak seed. The shapes stay small (exact checking is exponential in
// the worst case) but contended: few objects, several threads.
func (c SoakConfig) roundWorkload(r int) harness.Workload {
	rng := rand.New(rand.NewSource(c.Seed*1_000_003 + int64(r)))
	return harness.Workload{
		Objects:          2 + rng.Intn(4), // 2..5
		Goroutines:       2 + rng.Intn(5), // 2..6
		TxnsPerGoroutine: 2 + rng.Intn(2), // 2..3
		OpsPerTxn:        2 + rng.Intn(5), // 2..6
		ReadFraction:     []float64{0.3, 0.5, 0.7}[rng.Intn(3)],
		Seed:             c.Seed + int64(r)*7_919_919,
	}
}

// SoakCell is one (engine, round, mode) observation of the soak grid.
type SoakCell struct {
	Engine string
	Round  int
	// Probe marks the deterministic interleaved execution of the round's
	// plan; otherwise the cell ran under real goroutines.
	Probe    bool
	Workload harness.Workload
	// Skipped is set when the recorded history exceeded MaxTxns.
	Skipped  bool
	Verdicts map[spec.Criterion]spec.Verdict
	History  histio.Text
	// Degraded is set when the cell could not be observed at all: it
	// panicked past its retries, or (under internal/certd) its worker died
	// past its lease retries. A degraded cell is excluded from the
	// per-criterion counts like a skipped one, but the degradation is
	// always reported, never a silent drop.
	Degraded string
}

// Divergence records a history on which the criteria disagree — or, when
// Accepted is empty, a history every criterion rejects. Minimal is the
// greedily shrunk counterexample that still violates Criterion (the
// strongest rejecting criterion in the soak's criteria order).
type Divergence struct {
	Engine    string
	Round     int
	Probe     bool
	Accepted  []spec.Criterion
	Rejected  []spec.Criterion
	Criterion spec.Criterion
	Reason    string
	History   *history.History
	Minimal   *history.History
}

// SoakResult aggregates a differential soak run.
type SoakResult struct {
	Cells       []SoakCell
	Divergences []Divergence
	// Accepted/Rejected/Undecided count decided cells per engine and
	// criterion (skipped cells excluded).
	Accepted, Rejected, Undecided map[string]map[spec.Criterion]int
	// Degraded counts cells that could not be observed: in process, a
	// cell that panicked past its retries; under certd, a worker dead
	// past its lease retries.
	Degraded int
}

// MinimalCounterexample returns the smallest shrunk counterexample the
// soak found for the engine under the criterion, or nil.
func (r *SoakResult) MinimalCounterexample(engine string, c spec.Criterion) *history.History {
	var best *history.History
	for _, d := range r.Divergences {
		if d.Engine != engine || d.Criterion != c || d.Minimal == nil {
			continue
		}
		if best == nil || d.Minimal.Len() < best.Len() {
			best = d.Minimal
		}
	}
	return best
}

// soakTask names one cell of the soak grid. The task order — rounds
// outermost, engines inner, the concurrent cell before its interleaved
// probe — is the soak's canonical shard order, shared by the in-process
// farm and the distributed one (certd jobs index shards into this list).
type soakTask struct {
	engine string
	round  int
	probe  bool
}

// soakTasks expands the grid of a defaulted config into its canonical
// task list.
func soakTasks(cfg SoakConfig) []soakTask {
	var tasks []soakTask
	for r := 0; r < cfg.Rounds; r++ {
		for _, e := range cfg.Engines {
			tasks = append(tasks, soakTask{engine: e, round: r, probe: false})
			tasks = append(tasks, soakTask{engine: e, round: r, probe: true})
		}
	}
	return tasks
}

// newCell is the unobserved cell of a task: its identity and workload.
func (c SoakConfig) newCell(t soakTask) SoakCell {
	w := c.roundWorkload(t.round)
	w.Engine = t.engine
	return SoakCell{Engine: t.engine, Round: t.round, Probe: t.probe, Workload: w}
}

// runSoakCell observes one cell: run the task's workload (recorded or
// interleaved probe) and check the recorded history against every
// criterion. It is the pure compute unit of the soak — a function of
// (defaulted config, task) with no shared state — which is what lets a
// certd worker run it on another machine.
func runSoakCell(cfg SoakConfig, t soakTask) (SoakCell, error) {
	cell := cfg.newCell(t)
	w := cell.Workload
	var (
		h    *history.History
		rerr error
	)
	if t.probe {
		h, _, rerr = harness.RunInterleaved(w)
	} else {
		h, _, rerr = harness.RunRecorded(w)
	}
	if rerr != nil {
		return cell, fmt.Errorf("checkfarm: soak %s round %d: %w", t.engine, t.round, rerr)
	}
	cell.History = histio.Text{History: h}
	if h.NumTxns() > cfg.MaxTxns {
		cell.Skipped = true
		return cell, nil
	}
	checkOpts := cfg.checkOpts()
	cell.Verdicts = make(map[spec.Criterion]spec.Verdict, len(cfg.Criteria))
	for _, c := range cfg.Criteria {
		cell.Verdicts[c] = spec.Check(h, c, checkOpts...)
	}
	return cell, nil
}

// Soak runs the differential soak: every engine under every criterion over
// the randomized workload grid, cells sharded across jobs workers. Each
// violating history is shrunk to a minimal counterexample before being
// recorded as a divergence. A cell that panics past its retries degrades
// (SoakResult.Degraded) instead of failing the soak. jobs <= 0 uses
// GOMAXPROCS.
func Soak(ctx context.Context, cfg SoakConfig, jobs int) (*SoakResult, error) {
	rep, err := runJob(ctx, JobSpec{Kind: KindSoak, Soak: &SoakJob{Config: cfg}}, jobs)
	if err != nil {
		return nil, err
	}
	return rep.Soak, nil
}

// foldSoak aggregates observed cells into the soak result: per-criterion
// counts, divergence extraction, and greedy shrinking of each divergent
// history, given the cells in canonical task order. cfg must be the same
// (defaulted) config the cells were computed under, since shrinking
// re-checks with the soak's node limit.
func foldSoak(ctx context.Context, cfg SoakConfig, cells []SoakCell, jobs int) (*SoakResult, error) {
	checkOpts := cfg.checkOpts()
	res := &SoakResult{
		Cells:     cells,
		Accepted:  make(map[string]map[spec.Criterion]int),
		Rejected:  make(map[string]map[spec.Criterion]int),
		Undecided: make(map[string]map[spec.Criterion]int),
	}
	for _, e := range cfg.Engines {
		res.Accepted[e] = make(map[spec.Criterion]int)
		res.Rejected[e] = make(map[spec.Criterion]int)
		res.Undecided[e] = make(map[spec.Criterion]int)
	}
	// Divergence extraction and shrinking, also sharded: shrinking re-runs
	// the checker O(events) times per counterexample.
	divIdx := make([]int, 0, len(cells))
	for i, cell := range cells {
		if cell.Degraded != "" {
			res.Degraded++
			continue
		}
		if cell.Skipped {
			continue
		}
		for _, c := range cfg.Criteria {
			v := cell.Verdicts[c]
			switch {
			case v.Undecided:
				res.Undecided[cell.Engine][c]++
			case v.OK:
				res.Accepted[cell.Engine][c]++
			default:
				res.Rejected[cell.Engine][c]++
			}
		}
		if firstRejected(cfg.Criteria, cell.Verdicts) != 0 {
			divIdx = append(divIdx, i)
		}
	}
	divs := make([]Divergence, len(divIdx))
	err := shard(ctx, len(divIdx), jobs, func(j int) error {
		cell := cells[divIdx[j]]
		target := firstRejected(cfg.Criteria, cell.Verdicts)
		d := Divergence{
			Engine:    cell.Engine,
			Round:     cell.Round,
			Probe:     cell.Probe,
			Criterion: target,
			History:   cell.History.History,
		}
		for _, c := range cfg.Criteria {
			v := cell.Verdicts[c]
			switch {
			case v.Undecided:
			case v.OK:
				d.Accepted = append(d.Accepted, c)
			default:
				d.Rejected = append(d.Rejected, c)
			}
		}
		// Shrink while preserving the cell's full differential signature:
		// every originally-decided criterion must keep its verdict, so the
		// minimal history demonstrates the same separation (not merely
		// some violation of the target — a plain sourceless read would
		// satisfy that and lose the divergence).
		d.Minimal = gen.Shrink(cell.History.History, func(g *history.History) bool {
			for _, c := range d.Accepted {
				if v := spec.Check(g, c, checkOpts...); !v.OK {
					return false
				}
			}
			for _, c := range d.Rejected {
				if v := spec.Check(g, c, checkOpts...); v.OK || v.Undecided {
					return false
				}
			}
			return true
		})
		d.Reason = spec.Check(d.Minimal, target, checkOpts...).Reason
		divs[j] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Divergences = divs
	return res, nil
}

// firstRejected returns the first criterion (in order) with a decided
// rejection, or 0 when every criterion accepts or is undecided.
func firstRejected(criteria []spec.Criterion, verdicts map[spec.Criterion]spec.Verdict) spec.Criterion {
	for _, c := range criteria {
		if v := verdicts[c]; !v.OK && !v.Undecided {
			return c
		}
	}
	return 0
}

// FormatSoakReport renders the aggregate table and the shrunk
// counterexamples: per engine and criterion, accepted/rejected(/undecided)
// cell counts, then one minimal counterexample per (engine, criterion)
// divergence class in histio text format.
func FormatSoakReport(cfg SoakConfig, res *SoakResult) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "differential soak: %d engines x %d criteria, %d cells (%d divergent)\n",
		len(cfg.Engines), len(cfg.Criteria), len(res.Cells), len(res.Divergences))
	if res.Degraded > 0 {
		fmt.Fprintf(&b, "%d cell(s) degraded: lost to crashed or dead workers, excluded from the counts below\n", res.Degraded)
	}
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "engine")
	for _, c := range cfg.Criteria {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, e := range cfg.Engines {
		fmt.Fprint(tw, e)
		for _, c := range cfg.Criteria {
			cellTxt := fmt.Sprintf("%d/%d", res.Accepted[e][c], res.Rejected[e][c])
			if u := res.Undecided[e][c]; u > 0 {
				cellTxt += fmt.Sprintf("(%d?)", u)
			}
			fmt.Fprintf(tw, "\t%s", cellTxt)
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush()
	b.WriteString("cells are accepted/rejected counts (undecided in parentheses)\n")

	// One minimal counterexample per (engine, criterion), smallest first.
	type classKey struct {
		engine string
		c      spec.Criterion
	}
	best := make(map[classKey]Divergence)
	for _, d := range res.Divergences {
		k := classKey{d.Engine, d.Criterion}
		cur, ok := best[k]
		// Prefer a true divergence (some criterion still accepts) over an
		// all-reject violation; among equals, the smaller counterexample.
		switch {
		case !ok:
		case len(d.Accepted) > 0 && len(cur.Accepted) == 0:
		case len(d.Accepted) > 0 == (len(cur.Accepted) > 0) && d.Minimal.Len() < cur.Minimal.Len():
		default:
			continue
		}
		best[k] = d
	}
	keys := make([]classKey, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].engine != keys[j].engine {
			return keys[i].engine < keys[j].engine
		}
		return keys[i].c < keys[j].c
	})
	for _, k := range keys {
		d := best[k]
		mode := "concurrent"
		if d.Probe {
			mode = "interleaved probe"
		}
		fmt.Fprintf(&b, "\n%s violates %s (round %d, %s; shrunk %d -> %d events)\n",
			d.Engine, d.Criterion, d.Round, mode, d.History.Len(), d.Minimal.Len())
		fmt.Fprintf(&b, "  reason: %s\n", d.Reason)
		if len(d.Accepted) > 0 {
			names := make([]string, len(d.Accepted))
			for i, c := range d.Accepted {
				names[i] = c.String()
			}
			fmt.Fprintf(&b, "  still accepted by: %s\n", strings.Join(names, ", "))
		}
		for _, line := range strings.Split(strings.TrimRight(histio.FormatString(d.Minimal), "\n"), "\n") {
			fmt.Fprintf(&b, "  | %s\n", line)
		}
	}
	return b.String()
}
