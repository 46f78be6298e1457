package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"duopacity/internal/follow"
)

func TestRunAcceptsGoodHistory(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "good.hist")
	src := "write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run([]string{"-witness", file}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"du-opacity: OK", "witness", "unique-writes=true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsViolation(t *testing.T) {
	// Figure 4 shape in shorthand/event mix.
	src := `
inv write 1 X 1
res write 1 X 1 ok
inv tryc 1
read 2 X 1
write 3 X 1
commit 3
res tryc 1 A
`
	var out strings.Builder
	code, err := run([]string{"-criteria", "du,opacity", "-explain", "-"}, strings.NewReader(src), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "violated") {
		t.Errorf("output missing violation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "du-eligible {}") {
		t.Errorf("explain output missing read analysis:\n%s", out.String())
	}
	// Opacity accepts Figure 4.
	if !strings.Contains(out.String(), "opacity: OK") {
		t.Errorf("opacity should accept Figure 4:\n%s", out.String())
	}
}

func TestRunParallelBatch(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.hist")
	if err := os.WriteFile(good, []byte("write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.hist")
	if err := os.WriteFile(bad, []byte("read 1 X 99\ncommit 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run([]string{"-parallel", "-jobs", "4", "-criteria", "du", good, bad, good}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (one file violates)\n%s", code, out.String())
	}
	// Results come back in input order with per-file headers.
	s := out.String()
	iGood := strings.Index(s, "== "+good+" ==")
	iBad := strings.Index(s, "== "+bad+" ==")
	if iGood < 0 || iBad < 0 || iBad < iGood {
		t.Errorf("batch output not in input order:\n%s", s)
	}
	if strings.Count(s, "du-opacity: OK") != 2 || strings.Count(s, "violated") != 1 {
		t.Errorf("batch verdicts wrong:\n%s", s)
	}
	// Sequential multi-file mode agrees.
	var seq strings.Builder
	seqCode, err := run([]string{"-criteria", "du", good, bad, good}, nil, &seq)
	if err != nil {
		t.Fatal(err)
	}
	if seqCode != code || seq.String() != s {
		t.Errorf("parallel and sequential batch output diverge:\n%s\nvs\n%s", s, seq.String())
	}
}

func TestFollowAcceptsStream(t *testing.T) {
	src := "write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n"
	var out strings.Builder
	code, err := run([]string{"-follow"}, strings.NewReader(src), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"du-opacity:ok", "du-opacity: OK", "opacity: OK"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestFollowLatchesViolationAtTheEvent(t *testing.T) {
	// The Figure-4 shape: the dirty read is reported the moment its
	// response arrives, and the verdict stays latched.
	src := "write 1 X 1\nread 2 X 1\ncommit 2\ncommit 1\n"
	var out strings.Builder
	code, err := run([]string{"-follow", "-criteria", "du", "-"}, strings.NewReader(src), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	lines := strings.Split(out.String(), "\n")
	first := -1
	for i, l := range lines {
		if strings.Contains(l, "VIOLATED") {
			first = i
			break
		}
	}
	if first < 0 || !strings.Contains(lines[first], "read_2(X)->1") {
		t.Fatalf("violation not reported at the dirty read's response:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "du-opacity: violated") {
		t.Fatalf("missing final verdict:\n%s", out.String())
	}
}

func TestFollowSkipsMalformedLines(t *testing.T) {
	// A malformed line and an ill-formed event are skipped; the stream
	// continues and the verdict reflects only the valid events.
	src := "write 1 X 1\nnonsense\nres tryc 2 C\ncommit 1\nread 2 X 1\ncommit 2\n"
	var out strings.Builder
	code, err := run([]string{"-follow", "-criteria", "du"}, strings.NewReader(src), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "du-opacity: OK") {
		t.Fatalf("missing final verdict:\n%s", out.String())
	}
}

func TestFollowRetireBoundsLiveWindow(t *testing.T) {
	// A long sequential stream with -retire: the monitor checkpoints the
	// settled committed prefix as it goes, so the final summary reports
	// most transactions retired and a small live window — with every
	// per-event verdict still decided (no "undecided" anywhere).
	var src strings.Builder
	const n = 200
	for k := 1; k <= n; k++ {
		fmt.Fprintf(&src, "write %d X %d\ncommit %d\n", k, k%4, k)
	}
	var out strings.Builder
	code, err := run([]string{"-follow", "-criteria", "du", "-retire", "8"}, strings.NewReader(src.String()), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	s := out.String()
	if strings.Contains(s, "undecided") {
		t.Fatalf("retirement left a prefix undecided:\n%s", s)
	}
	if !strings.Contains(s, "du-opacity: OK") {
		t.Fatalf("missing final verdict:\n%s", s)
	}
	m := regexp.MustCompile(`(\d+) events, (\d+) transactions retired, (\d+) live`).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("missing retirement summary line:\n%s", s)
	}
	events, _ := strconv.Atoi(m[1])
	retired, _ := strconv.Atoi(m[2])
	live, _ := strconv.Atoi(m[3])
	if events != 4*n {
		t.Errorf("events = %d, want %d", events, 4*n)
	}
	if retired < n-17 || live > 17 {
		t.Errorf("retired=%d live=%d: window not bounded over %d transactions", retired, live, n)
	}
}

func TestRetireRequiresFollow(t *testing.T) {
	if code, err := run([]string{"-retire", "8", "somefile"}, nil, &strings.Builder{}); err == nil || code != 2 {
		t.Fatalf("-retire without -follow: code=%d err=%v, want input error", code, err)
	}
}

func TestFollowRejectsUnmonitorableCriteria(t *testing.T) {
	// The serializability baselines are batch-only: violations can appear
	// and disappear as completions resolve, so they have no online monitor.
	for _, crit := range []string{"strictser", "ser"} {
		code, err := run([]string{"-follow", "-criteria", crit}, strings.NewReader(""), &strings.Builder{})
		if err == nil || code != 2 {
			t.Fatalf("%s with -follow: code=%d err=%v, want input error", crit, code, err)
		}
		// The rejection names the monitorable criteria from the shared table.
		for _, want := range []string{"tms2", "rco", "finalstate"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s rejection %q does not list monitorable criterion %q", crit, err.Error(), want)
			}
		}
	}
	if code, err := run([]string{"-follow", "somefile"}, strings.NewReader(""), &strings.Builder{}); err == nil || code != 2 {
		t.Fatalf("file argument with -follow: code=%d err=%v, want input error", code, err)
	}
}

func TestFollowConflictOrderCriteria(t *testing.T) {
	// Figure 6: du-opaque, but the committed writer T1 must precede reader
	// T2 under TMS2 (T2's read set is final at its tryC invocation), and
	// T2 read the pre-state of X. The TMS2 monitor latches the violation
	// at T2's commit response — the first response after the edge arrives
	// — while the RCO monitor accepts every prefix.
	fig6 := "read 1 X 0\nwrite 1 X 1\nread 2 X 0\ncommit 1\nwrite 2 Y 1\ncommit 2\n"
	var out strings.Builder
	code, err := run([]string{"-follow", "-criteria", "tms2,rco"}, strings.NewReader(fig6), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	s := out.String()
	lines := strings.Split(s, "\n")
	first := -1
	for i, l := range lines {
		if strings.Contains(l, "TMS2:VIOLATED") {
			first = i
			break
		}
	}
	if first < 0 || !strings.Contains(lines[first], "tryC_2") {
		t.Fatalf("TMS2 violation not latched at T2's commit response:\n%s", s)
	}
	if !strings.Contains(lines[first], "rco-opacity:ok") {
		t.Errorf("RCO column missing or rejecting on the violating line:\n%s", s)
	}
	if !strings.Contains(s, "TMS2: violated") || !strings.Contains(s, "rco-opacity: OK") {
		t.Errorf("final verdicts wrong (want TMS2 violated, rco OK):\n%s", s)
	}

	// The mirror: Figure 5 is rejected by RCO and accepted by TMS2 —
	// reader T2 stays live, so TMS2 never gains an edge into it, while
	// RCO orders T2 before the overtaking committed writer T3 and T2's
	// later read of T3's write closes the cycle.
	fig5 := "write 1 X 1\ncommit 1\nread 2 X 1\nwrite 3 X 1\nwrite 3 Y 1\ncommit 3\nread 2 Y 1\n"
	out.Reset()
	code, err = run([]string{"-follow", "-criteria", "tms2,rco"}, strings.NewReader(fig5), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("figure-5 exit code = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "rco-opacity: violated") || !strings.Contains(out.String(), "TMS2: OK") {
		t.Errorf("figure-5 final verdicts wrong (want rco violated, TMS2 OK):\n%s", out.String())
	}
}

func TestFollowConflictOrderRetirement(t *testing.T) {
	// A long stream of committed writer/reader pairs under the TMS2 and
	// RCO monitors with a retirement window: every prefix stays decided,
	// the verdicts stay OK, and the summary shows the window bounded.
	var src strings.Builder
	const n = 120
	for k := 1; k <= n; k++ {
		fmt.Fprintf(&src, "write %d X %d\ncommit %d\n", k, k%4, k)
	}
	var out strings.Builder
	code, err := run([]string{"-follow", "-criteria", "tms2,rco", "-retire", "8"}, strings.NewReader(src.String()), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	s := out.String()
	if strings.Contains(s, "undecided") || strings.Contains(s, "VIOLATED") {
		t.Fatalf("conflict-order monitors degraded under retirement:\n%s", s)
	}
	re := regexp.MustCompile(`(\d+) events, (\d+) transactions retired, (\d+) live`)
	ms := re.FindAllStringSubmatch(s, -1)
	if len(ms) != 2 {
		t.Fatalf("want a retirement summary per criterion, got %d:\n%s", len(ms), s)
	}
	for _, m := range ms {
		retired, _ := strconv.Atoi(m[2])
		live, _ := strconv.Atoi(m[3])
		if retired < n-17 || live > 17 {
			t.Errorf("retired=%d live=%d: window not bounded over %d transactions", retired, live, n)
		}
	}
}

func TestRunInputErrors(t *testing.T) {
	if code, err := run([]string{"-criteria", "nope", "-"}, strings.NewReader(""), &strings.Builder{}); err == nil || code != 2 {
		t.Error("unknown criterion should be an input error")
	}
	if code, err := run([]string{}, nil, &strings.Builder{}); err == nil || code != 2 {
		t.Error("missing file argument should be an input error")
	}
	if code, err := run([]string{"-"}, strings.NewReader("garbage line\n"), &strings.Builder{}); err == nil || code != 2 {
		t.Error("malformed history should be an input error")
	}
	if code, err := run([]string{"/does/not/exist.hist"}, nil, &strings.Builder{}); err == nil || code != 2 {
		t.Error("missing file should be an input error")
	}
}

func TestExplorePlanFile(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "litmus.plan")
	if err := os.WriteFile(plan, []byte("w0\nr0 r0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The in-place engine is refuted: exit 1, violation pinned at its
	// causing schedule and event.
	var out strings.Builder
	code, err := run([]string{"-explore", "-engine", "ple", plan}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"violation", "schedule [0 1]", "latched at event 3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explore output missing %q:\n%s", want, out.String())
		}
	}
	// The deferred-update engine is proven: exit 0, full enumeration.
	out.Reset()
	code, err = run([]string{"-explore", "-engine", "tl2", plan}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "proven") {
		t.Errorf("explore output missing proof:\n%s", out.String())
	}
}

func TestExplorePlanStdin(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-explore", "-engine", "norec", "-criteria", "du,opacity", "-"},
		strings.NewReader("w0 | r0\nr0 w0\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"du-opacity", "opacity: proven"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explore output missing %q:\n%s", want, out.String())
		}
	}
}

func TestExploreInputErrors(t *testing.T) {
	if code, _ := run([]string{"-explore", "-"}, strings.NewReader("not a plan\n"), &strings.Builder{}); code != 2 {
		t.Error("malformed plan should be an input error")
	}
	if code, _ := run([]string{"-explore", "-engine", "bogus", "-"}, strings.NewReader("r0\n"), &strings.Builder{}); code != 2 {
		t.Error("unknown engine should be an input error")
	}
	if code, _ := run([]string{"-explore", "-criteria", "tms2", "-"}, strings.NewReader("r0\n"), &strings.Builder{}); code != 2 {
		t.Error("non-explorable criterion should be an input error")
	}
	// Mixed valid/invalid criteria fail upfront: no partial reports may be
	// printed (and no exit-1 refutation masked) before the error surfaces.
	var out strings.Builder
	if code, _ := run([]string{"-explore", "-engine", "ple", "-criteria", "du,tms2", "-"},
		strings.NewReader("w0\nr0 r0\n"), &out); code != 2 {
		t.Error("mixed explorable/non-explorable criteria should be an input error")
	}
	if out.Len() != 0 {
		t.Errorf("partial reports printed before the criteria error:\n%s", out.String())
	}
}

// TestExploreBudgetExhaustedExit: an undecided exploration is not an
// acceptance — budget-exhausted must exit 1, like undecided verdicts in
// batch mode, so `ducheck -explore && deploy` cannot treat an unproven
// plan as proven.
func TestExploreBudgetExhaustedExit(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-explore", "-engine", "tl2", "-max-schedules", "3", "-"},
		strings.NewReader("w0 r1\nr0 w1\nw0 w1\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "budget-exhausted") {
		t.Fatalf("expected a budget-exhausted outcome:\n%s", out.String())
	}
	if code != 1 {
		t.Errorf("budget-exhausted exploration exited %d, want 1", code)
	}
}

func TestFollowSkipBadQuarantines(t *testing.T) {
	// Two bad lines among good events: a parse failure and a monitor
	// rejection (response without a matching invocation).
	src := "write 1 X 1\nnot an event\ncommit 1\nres read 9 X 1\nread 2 X 1\ncommit 2\n"
	var out, errOut strings.Builder
	code, err := runWith([]string{"-follow", "-skip-bad", "-criteria", "du"}, strings.NewReader(src), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "follow: events=8 bad=2") {
		t.Errorf("summary line missing bad accounting:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "du-opacity: OK") {
		t.Errorf("good events were not certified:\n%s", out.String())
	}
	es := errOut.String()
	if !strings.Contains(es, "quarantined 2 bad input line(s)") {
		t.Errorf("structured report missing:\n%s", es)
	}
	for _, want := range []string{"line 2:", `"not an event"`, "line 4:", `"res read 9 X 1"`} {
		if !strings.Contains(es, want) {
			t.Errorf("structured report missing %q:\n%s", want, es)
		}
	}
	// Quarantine is quiet per line: no "(skipped)" notes.
	if strings.Contains(es, "(skipped)") {
		t.Errorf("per-line skip notes printed under -skip-bad:\n%s", es)
	}
}

func TestFollowSkipBadCleanStream(t *testing.T) {
	src := "write 1 X 1\ncommit 1\n"
	var out, errOut strings.Builder
	code, err := runWith([]string{"-follow", "-skip-bad", "-criteria", "du"}, strings.NewReader(src), &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "follow: events=4 bad=0") {
		t.Errorf("summary line missing on clean stream:\n%s", out.String())
	}
	if errOut.Len() != 0 {
		t.Errorf("clean stream produced stderr output:\n%s", errOut.String())
	}
}

func TestFollowStrictFailsFast(t *testing.T) {
	src := "write 1 X 1\nnot an event\ncommit 1\n"
	var out, errOut strings.Builder
	code, err := runWith([]string{"-follow", "-strict", "-criteria", "du"}, strings.NewReader(src), &out, &errOut)
	if err == nil {
		t.Fatalf("strict mode did not fail on a bad line (code=%d)\n%s", code, out.String())
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the offending line", err.Error())
	}
	// Fail-fast: the commit after the bad line was never processed.
	if strings.Contains(out.String(), "tryc") {
		t.Errorf("events after the bad line were processed:\n%s", out.String())
	}
}

func TestFollowStrictAcceptsCleanStream(t *testing.T) {
	src := "write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n"
	var out, errOut strings.Builder
	code, err := runWith([]string{"-follow", "-strict", "-criteria", "du"}, strings.NewReader(src), &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, errOut.String())
	}
	if !strings.Contains(out.String(), "du-opacity: OK") {
		t.Errorf("clean stream not accepted:\n%s", out.String())
	}
	// The bad=N summary line belongs to -skip-bad only.
	if strings.Contains(out.String(), "follow: events=") {
		t.Errorf("strict mode printed the skip-bad summary:\n%s", out.String())
	}
}

func TestSkipBadStrictFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-follow", "-skip-bad", "-strict"}, // mutually exclusive
		{"-skip-bad", "somefile"},           // follow-only
		{"-strict", "somefile"},             // follow-only
	}
	for _, args := range cases {
		var out strings.Builder
		code, err := run(args, strings.NewReader(""), &out)
		if err == nil || code != 2 {
			t.Errorf("args %v: code=%d err=%v, want usage error", args, code, err)
		}
	}
}

// TestFollowLineBound: ducheck reads stdin with follow.MaxLineBytes, the
// bound certd's stream reader uses. A 100KB garbage line is bad input
// like any other, quarantined under -skip-bad; a line past the bound
// fails the follow with an error naming the line.
func TestFollowLineBound(t *testing.T) {
	src := "write 1 X 1\n" + strings.Repeat("x", 100_000) + "\ncommit 1\n"
	var out, errOut strings.Builder
	code, err := runWith([]string{"-follow", "-skip-bad", "-criteria", "du"}, strings.NewReader(src), &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("100KB bad line: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "follow: events=4 bad=1") || !strings.Contains(errOut.String(), "quarantined 1 bad input line(s)") {
		t.Fatalf("100KB bad line not quarantined:\n%s\n%.300s", out.String(), errOut.String())
	}

	src = "write 1 X 1\n" + strings.Repeat("x", follow.MaxLineBytes+1) + "\ncommit 1\n"
	out.Reset()
	code, err = runWith([]string{"-follow", "-skip-bad", "-criteria", "du"}, strings.NewReader(src), &out, &errOut)
	if code != 2 || err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
		t.Fatalf("over-bound line: code=%d err=%v, want exit 2 naming line 2", code, err)
	}
}
