// Command ducheck checks transactional histories against the correctness
// criteria of the paper. Histories are read from files (or stdin with
// "-") in the text format of internal/histio.
//
// Usage:
//
//	ducheck [-criteria du,opacity,...] [-witness] file...
//	ducheck -parallel [-jobs N] [-portfolio N] file...
//	ducheck -follow [-criteria du,tms2,rco,opacity,finalstate] [-retire N] [-skip-bad|-strict] [-connect host:port] [-]
//	ducheck -explore -engine tl2 [-criteria du,opacity] [-max-schedules N] plan...
//
// With several files (or -parallel), every file is checked against every
// requested criterion; -parallel shards the batch across -jobs workers
// (default GOMAXPROCS) via the certification farm, with results printed
// in input order regardless of completion order. -portfolio parallelizes
// inside a single check instead, fanning the top-level branches of the
// serialization search across workers — the right knob when one large
// history dominates.
//
// -follow monitors a history as it is produced: stdin lines (same text
// format) feed an online monitor per requested criterion, and a verdict
// column is printed after every response event, so a violation is
// reported at the event that caused it while the producer still runs.
// Only the monitorable criteria (spec.MonitorableCriteria: du, tms2, rco,
// opacity, finalstate) are allowed; the serializability baselines stay
// batch-only. A bad line — malformed, or an event the monitors reject —
// is noted on stderr and skipped, leaving the monitors untouched.
// -skip-bad quarantines bad lines instead: they are counted, the first
// ten are reported on stderr at the end, and the summary gains a
// "follow: events=N bad=M" line. -strict aborts at the first bad line
// with exit status 2, as a line longer than 1 MiB always does.
// -retire N bounds the monitors' memory on unbounded streams: settled
// committed transactions are checkpointed and discarded once more than N
// are live, without changing any verdict.
// -connect host:port runs the same follow session in a certd server:
// stdin is forwarded verbatim, the server's echoes and summary stream
// back, and the options travel in the stream hello.
//
// -explore changes the input from histories to *plans* (one thread per
// line, '|' between a thread's transactions, "r<obj>"/"w<obj>"
// operations): instead of checking one recorded history, ducheck
// enumerates every schedule of the deterministic stepper's space for
// the plan — the -engine's exclusion policy plus the stepper's
// abort-backoff discipline, the space the interleaved sampler draws
// from — and certifies each online, so the answer is a per-plan proof
// ("no schedule of that space violates du-opacity") or a refutation
// pinned at the causing schedule and event. Criteria are limited to the
// prefix-closed monitorable ones (du, opacity); -parallel/-jobs shard
// plans across the certification farm.
//
// Exit status: 0 if every requested criterion accepts every history
// (with -explore: proves every plan), 1 if any rejects (with -explore:
// any plan refuted or left undecided by the budget), 2 on input errors.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"

	"duopacity/internal/checkfarm"
	"duopacity/internal/follow"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ducheck:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the CLI with diagnostics on os.Stderr; runWith is the
// testable entry point with the diagnostic stream injected.
func run(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	return runWith(args, stdin, stdout, os.Stderr)
}

func runWith(args []string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("ducheck", flag.ContinueOnError)
	criteriaFlag := fs.String("criteria", "du,opacity,finalstate,tms2,rco,strictser,ser",
		"comma-separated criteria (du, opacity, finalstate, tms2, rco, strictser, ser)")
	witness := fs.Bool("witness", false, "print witness serializations")
	explain := fs.Bool("explain", false, "print the per-read deferred-update analysis")
	nodeLimit := fs.Int("node-limit", 0, "bound the search (0 = unlimited)")
	parallel := fs.Bool("parallel", false, "check the files concurrently via the certification farm")
	jobs := fs.Int("jobs", 0, "worker count for -parallel (0 = GOMAXPROCS)")
	portfolio := fs.Int("portfolio", 0,
		"fan each check's top-level search branches across this many workers (spec.WithParallelism; useful for one hard history, combine with -parallel for many)")
	followMode := fs.Bool("follow", false,
		"monitor events from stdin as they arrive (streaming ingestion; criteria limited to "+spec.MonitorableNames()+")")
	retire := fs.Int("retire", 0,
		"with -follow: retire settled committed transactions once this many are live, bounding monitor memory on long streams (0 = keep everything)")
	skipBad := fs.Bool("skip-bad", false,
		"with -follow: quarantine malformed or rejected input instead of noting each line — count it, report a structured summary on stderr at the end, and add bad=N to the summary line")
	strict := fs.Bool("strict", false,
		"with -follow: fail fast on the first malformed or rejected input line (exit 2)")
	connect := fs.String("connect", "",
		"with -follow: ship events to a certd stream endpoint (host:port) instead of monitoring in-process; the server's per-event verdicts and final summary stream back")
	explore := fs.Bool("explore", false,
		"arguments are plan files (internal/stm text format), not histories: enumerate every schedule of the deterministic stepper's space for each plan and prove or refute it (criteria limited to du, opacity)")
	engine := fs.String("engine", "tl2", "engine to explore plans on (with -explore)")
	maxSchedules := fs.Int("max-schedules", 0, "explore budget: schedules per plan (0 = default)")
	maxAttempts := fs.Int("max-attempts", 0, "explore retry bound per transaction (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if !*followMode && fs.NArg() < 1 {
		return 2, fmt.Errorf("usage: ducheck [flags] <file|->...")
	}

	var criteria []spec.Criterion
	for _, name := range strings.Split(*criteriaFlag, ",") {
		c, ok := spec.ParseCriterion(strings.TrimSpace(name))
		if !ok {
			return 2, fmt.Errorf("unknown criterion %q", name)
		}
		criteria = append(criteria, c)
	}

	if *skipBad && *strict {
		return 2, fmt.Errorf("-skip-bad and -strict are mutually exclusive")
	}
	if *followMode {
		if fs.NArg() > 1 || (fs.NArg() == 1 && fs.Arg(0) != "-") {
			return 2, fmt.Errorf("-follow reads events from stdin; no file arguments allowed")
		}
		// With the default criteria list, follow only the monitorable
		// ones; an explicit -criteria must name monitorable criteria.
		if !flagWasSet(fs, "criteria") {
			criteria = []spec.Criterion{spec.DUOpacity, spec.Opacity, spec.FinalStateOpacity}
		}
		cfg := follow.Config{Criteria: criteria, Retire: *retire, NodeLimit: *nodeLimit, SkipBad: *skipBad, Strict: *strict}
		if *connect != "" {
			return runFollowConnect(*connect, follow.Hello{Config: cfg}, stdin, stdout)
		}
		return runFollow(cfg, stdin, stdout, stderr)
	}
	if *connect != "" {
		return 2, fmt.Errorf("-connect only applies to -follow")
	}
	if flagWasSet(fs, "retire") {
		return 2, fmt.Errorf("-retire only applies to -follow")
	}
	if *skipBad || *strict {
		return 2, fmt.Errorf("-skip-bad and -strict only apply to -follow")
	}

	paths := fs.Args()
	// Buffer stdin once so "-" can appear several times in a batch
	// without the later occurrences silently parsing a drained reader.
	var stdinSrc []byte
	for _, path := range paths {
		if path == "-" {
			b, err := io.ReadAll(stdin)
			if err != nil {
				return 2, err
			}
			stdinSrc = b
			break
		}
	}

	if *explore {
		// With the default criteria list, explore du-opacity only; an
		// explicit -criteria must name explorable criteria.
		if !flagWasSet(fs, "criteria") {
			criteria = []spec.Criterion{spec.DUOpacity}
		}
		exploreJobs := 1
		if *parallel {
			exploreJobs = *jobs
		}
		// The explorer treats NodeLimit <= 0 as "use the default bound",
		// so honor the flag's documented "0 = unlimited" explicitly.
		exploreNodeLimit := *nodeLimit
		if exploreNodeLimit <= 0 {
			exploreNodeLimit = math.MaxInt
		}
		return runExplore(*engine, criteria, paths, stdinSrc, harness.ExploreConfig{
			MaxSchedules: *maxSchedules,
			MaxAttempts:  *maxAttempts,
			NodeLimit:    exploreNodeLimit,
			// Refutation needs one witness; only proving requires
			// exhausting the space, and stop-at-first never fires on a
			// violation-free plan.
			StopAtFirstViolation: true,
		}, exploreJobs, stdout)
	}
	hs := make([]histio.Text, len(paths))
	for i, path := range paths {
		h, err := parseFile(path, stdinSrc)
		if err != nil {
			return 2, err
		}
		hs[i] = histio.Text{History: h}
	}

	// Sequential mode is the farm at one worker: one code path to keep
	// verdicts and ordering identical.
	seqJobs := 1
	if *parallel {
		seqJobs = *jobs
	}
	verdicts, err := checkfarm.CheckBatch(context.Background(), checkfarm.CheckJob{
		Histories: hs, Criteria: criteria, NodeLimit: *nodeLimit, Portfolio: *portfolio,
	}, seqJobs)
	if err != nil {
		return 2, err
	}

	violations := 0
	for i, text := range hs {
		h := text.History
		if len(paths) > 1 {
			fmt.Fprintf(stdout, "== %s ==\n", paths[i])
		}
		fmt.Fprintf(stdout, "history: %d events, %d transactions, %d objects, unique-writes=%v\n",
			h.Len(), h.NumTxns(), len(h.Vars()), spec.UniqueWrites(h))
		if *explain {
			fmt.Fprintln(stdout, "reads:")
			for _, ri := range spec.AnalyzeReads(h) {
				fmt.Fprintf(stdout, "  %s\n", ri)
			}
		}
		for _, v := range verdicts[i] {
			fmt.Fprintln(stdout, v)
			if !v.OK {
				violations++
			}
			if *witness && v.OK && v.Serialization != nil {
				printWitness(stdout, v.Serialization)
			}
		}
	}
	if violations > 0 {
		return 1, nil
	}
	return 0, nil
}

// runExplore is the systematic mode: each path names a plan (one thread
// per line, '|' between transactions, "r<obj>"/"w<obj>" operations), and
// every schedule of the stepper's space for each plan is enumerated and
// certified online per criterion. A proven plan means no schedule of
// that space violates the criterion; a violation pins the causing schedule
// and event. The exit status is 1 when any plan is not proven — refuted
// or budget-exhausted (an undecided exploration is not an acceptance,
// matching the batch mode's treatment of undecided verdicts).
func runExplore(engine string, criteria []spec.Criterion, paths []string, stdinSrc []byte, cfg harness.ExploreConfig, jobs int, stdout io.Writer) (int, error) {
	// Validate every criterion before exploring anything: a non-explorable
	// one must not surface mid-run after reports (and a possible exit-1
	// refutation) were already printed for the earlier criteria.
	for _, c := range criteria {
		switch c {
		case spec.DUOpacity, spec.Opacity:
		default:
			return 2, fmt.Errorf("-explore requires prefix-closed monitorable criteria (du, opacity), got %v", c)
		}
	}
	plans := make([]stm.Plan, len(paths))
	for i, path := range paths {
		src := stdinSrc
		if path != "-" {
			b, err := os.ReadFile(path)
			if err != nil {
				return 2, err
			}
			src = b
		}
		p, err := stm.ParsePlan(string(src))
		if err != nil {
			return 2, fmt.Errorf("%s: %w", path, err)
		}
		plans[i] = p
	}
	unproven := 0
	for _, c := range criteria {
		ccfg := cfg
		ccfg.Criterion = c
		reports, err := checkfarm.ExplorePlans(context.Background(), engine, plans, ccfg, jobs)
		if err != nil {
			return 2, err
		}
		for i, r := range reports {
			if len(paths) > 1 || len(criteria) > 1 {
				fmt.Fprintf(stdout, "== %s, %s ==\n", paths[i], c)
			}
			fmt.Fprintf(stdout, "plan: %d threads, %d txns, %d ops, %d objects\n",
				len(r.Plan.Threads), r.Plan.NumTxns(), r.Plan.NumOps(), r.Plan.Objects)
			fmt.Fprintf(stdout, "%s %s: %s — %d schedules, %d cut (prefix closure), %d sleep-pruned, %d symmetry-pruned, %d steps\n",
				engine, c, r.Outcome, r.Schedules, r.PrefixCut, r.SleepPruned, r.SymmetryPruned, r.Steps)
			if r.Outcome != harness.ProvenDUOpaque {
				unproven++
			}
			if r.Violation != nil {
				fmt.Fprintf(stdout, "violation latched at event %d, schedule %v: %s\n",
					r.Violation.At, r.Violation.Schedule, r.Violation.Verdict.Reason)
				fmt.Fprint(stdout, histio.FormatString(r.Violation.History.History))
			}
		}
	}
	if unproven > 0 {
		return 1, nil
	}
	return 0, nil
}

// runFollow is the streaming mode: stdin lines feed a follow.Session,
// which echoes every event with its verdict columns to stdout and applies
// cfg's bad-input policy. The per-line notes and the quarantine report
// go to stderr. Violations latch, so the exit status is 1 when any
// monitor ever rejected; a strict failure or a read error exits 2.
func runFollow(cfg follow.Config, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	sess, err := follow.New(cfg, stdout, func(no int, err error) {
		fmt.Fprintf(stderr, "ducheck: line %d: %v (skipped)\n", no, err)
	})
	if err != nil {
		return 2, fmt.Errorf("-follow: %w", err)
	}
	sc := follow.NewScanner(stdin)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if _, err := sess.Line(lineNo, sc.Text()); err != nil {
			return 2, err
		}
	}
	if err := sc.Err(); err != nil {
		return 2, follow.LineError(lineNo+1, err)
	}
	sess.Quarantine(stderr, "ducheck: quarantined ")
	if sess.Summary(stdout).Violations > 0 {
		return 1, nil
	}
	return 0, nil
}

// runFollowConnect is -follow -connect: stdin is forwarded to a certd
// stream endpoint, whose follow.Session is configured by the hello, and
// the server's lines are printed as they arrive. The exit status maps as
// runFollow's does: 1 when DONE counts violations, 2 on protocol,
// strict or read failures.
func runFollowConnect(addr string, hello follow.Hello, stdin io.Reader, stdout io.Writer) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 2, fmt.Errorf("-connect: %w", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, hello); err != nil {
		return 2, fmt.Errorf("-connect: %w", err)
	}
	// Server lines are not bounded by follow.MaxLineBytes: a BAD note or
	// a quarantine entry quotes a whole input line, and a witness grows
	// with the stream.
	r := bufio.NewScanner(conn)
	r.Buffer(nil, math.MaxInt)
	if !r.Scan() {
		return 2, fmt.Errorf("-connect: no hello response: %v", r.Err())
	}
	if resp := r.Text(); !strings.HasPrefix(resp, "OK ") {
		return 2, fmt.Errorf("-connect: %s", strings.TrimPrefix(resp, "ERR "))
	}

	// Forward stdin verbatim while the server echoes: it splits, numbers
	// and bounds the lines as runFollow does. A newline ends an
	// unterminated last line (a blank line is no input), then END and a
	// half-close let the server finalize.
	go func() {
		_, _ = io.Copy(conn, stdin)
		_, _ = io.WriteString(conn, "\nEND\n")
		if hc, ok := conn.(interface{ CloseWrite() error }); ok {
			_ = hc.CloseWrite()
		}
	}()

	for r.Scan() {
		line := r.Text()
		fmt.Fprintln(stdout, line)
		switch {
		case strings.HasPrefix(line, "DONE "):
			if d, err := follow.ParseDone(line); err == nil && d.Violations > 0 {
				return 1, nil
			}
			return 0, nil
		case strings.HasPrefix(line, "ERR "):
			return 2, fmt.Errorf("-connect: %s", strings.TrimPrefix(line, "ERR "))
		}
	}
	if err := r.Err(); err != nil {
		return 2, fmt.Errorf("-connect: %w", err)
	}
	return 2, fmt.Errorf("-connect: stream ended without DONE")
}

// flagWasSet reports whether the named flag was given explicitly on the
// command line (as opposed to holding its default).
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func parseFile(path string, stdinSrc []byte) (*history.History, error) {
	if path == "-" {
		return histio.Parse(bytes.NewReader(stdinSrc))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return histio.Parse(f)
}

func printWitness(w io.Writer, s *history.Seq) {
	fmt.Fprintf(w, "  witness: %s\n", s)
}
