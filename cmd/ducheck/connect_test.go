package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"duopacity/internal/certd"
)

// startCertdStreams spins an in-process certd stream listener for the
// -connect tests.
func startCertdStreams(t *testing.T) string {
	t.Helper()
	s := certd.NewServer(certd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeStreams(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

// TestFollowConnectClean: a clean stream over -connect prints the
// server's per-event verdict lines and final verdicts and exits 0 —
// the networked equivalent of the in-process -follow run.
func TestFollowConnectClean(t *testing.T) {
	addr := startCertdStreams(t)
	stdin := strings.NewReader("write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-criteria", "du,opacity"}, stdin, &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	text := out.String()
	for _, want := range []string{"du-opacity:ok", "du-opacity: OK", "opacity: OK", "DONE events=8 bad=0 dropped=0 violations=0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestFollowConnectViolation: a du-opacity violation streamed to the
// server maps to exit status 1, exactly as the in-process follow does.
func TestFollowConnectViolation(t *testing.T) {
	addr := startCertdStreams(t)
	stdin := strings.NewReader("inv write 1 X 5\nres write 1 X 5 ok\nread 2 X 5\ncommit 2\ncommit 1\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-criteria", "du"}, stdin, &out, &errOut)
	if err != nil || code != 1 {
		t.Fatalf("exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "du-opacity: violated") {
		t.Fatalf("violation verdict missing:\n%s", out.String())
	}
}

// TestFollowConnectStrict: -strict travels in the hello; the server
// kills the stream at the first bad line and the CLI exits 2.
func TestFollowConnectStrict(t *testing.T) {
	addr := startCertdStreams(t)
	stdin := strings.NewReader("write 1 X 1\nnot an event\ncommit 1\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-strict"}, stdin, &out, &errOut)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict over connect: exit %d, err %v", code, err)
	}
}

// TestFollowConnectRetireSkipBad: retirement and skip-bad both apply
// server-side and the summaries stream back.
func TestFollowConnectRetireSkipBad(t *testing.T) {
	addr := startCertdStreams(t)
	var in strings.Builder
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&in, "write %d X %d\ncommit %d\n", i, i, i)
	}
	in.WriteString("garbage line\n")
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-follow", "-connect", addr, "-criteria", "du", "-retire", "4", "-skip-bad"}, strings.NewReader(in.String()), &out, &errOut)
	if err != nil || code != 0 {
		t.Fatalf("exit %d, err %v\nout:\n%s", code, err, out.String())
	}
	text := out.String()
	for _, want := range []string{"transactions retired", "follow: events=80 bad=1", "QUARANTINED 1 bad input line(s):"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestFollowConnectParity: on the same input, -follow and -follow
// -connect print the same echo, verdict and summary lines and exit the
// same way. The wire adds only protocol lines: OK, DONE and ERR, and the
// BAD notes and QUARANTINED ledger that ducheck writes to stderr.
func TestFollowConnectParity(t *testing.T) {
	addr := startCertdStreams(t)
	clean := "write 1 X 1\ncommit 1\nread 2 X 1\ncommit 2\n"
	violation := "inv write 1 X 5\nres write 1 X 5 ok\nread 2 X 5\ncommit 2\ncommit 1\n"
	bad := "write 1 X 1\nnot an event\ncommit 1\nres read 9 X 1\n" + strings.Repeat("x", 100_000) + "\nread 2 X 1\ncommit 2\n"
	var long strings.Builder
	for i := 1; i <= 30; i++ {
		fmt.Fprintf(&long, "write %d X %d\ncommit %d\n", i, i%4, i)
	}
	var manyBad strings.Builder
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&manyBad, "garbage %d\n", i)
	}
	for _, c := range []struct {
		name, in string
		args     []string
	}{
		{"clean", clean, []string{"-criteria", "du,opacity"}},
		{"violation", violation, []string{"-criteria", "du,tms2,rco"}},
		{"bad-default", bad, []string{"-criteria", "du"}},
		{"bad-skip", bad, []string{"-criteria", "du", "-skip-bad"}},
		{"bad-skip-ledger-full", manyBad.String() + clean, []string{"-criteria", "du", "-skip-bad"}},
		{"bad-strict", bad, []string{"-criteria", "du", "-strict"}},
		{"retire", long.String(), []string{"-criteria", "du,tms2", "-retire", "4"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut, wire, wireErr bytes.Buffer
			code, err := runWith(append([]string{"-follow"}, c.args...), strings.NewReader(c.in), &out, &errOut)
			wireCode, wireRunErr := runWith(append([]string{"-follow", "-connect", addr}, c.args...), strings.NewReader(c.in), &wire, &wireErr)
			if code != wireCode || fmt.Sprint(err) != strings.TrimPrefix(fmt.Sprint(wireRunErr), "-connect: ") {
				t.Fatalf("local exit %d (%v), -connect exit %d (%v)", code, err, wireCode, wireRunErr)
			}
			follows, notes := splitWire(t, wire.String())
			if follows != out.String() {
				t.Errorf("stdout differs\nlocal:\n%.2000s\n-connect, protocol lines removed:\n%.2000s", out.String(), follows)
			}
			if notes != errOut.String() {
				t.Errorf("bad-input notes differ\nlocal stderr:\n%.2000s\n-connect:\n%.2000s", errOut.String(), notes)
			}
		})
	}
}

// splitWire separates a -connect transcript into the lines local
// -follow prints on stdout and, rewritten as ducheck's stderr notes, the
// wire's BAD and QUARANTINED lines; OK, DONE and ERR are dropped.
func splitWire(t *testing.T, wire string) (follows, notes string) {
	t.Helper()
	var f, n strings.Builder
	for i, line := range strings.SplitAfter(wire, "\n") {
		switch {
		case line == "":
		case i == 0 && strings.HasPrefix(line, "OK "):
		case strings.HasPrefix(line, "DONE "), strings.HasPrefix(line, "ERR "):
		case strings.HasPrefix(line, "BAD "):
			no, reason, _ := strings.Cut(strings.TrimSuffix(line[len("BAD "):], "\n"), " ")
			fmt.Fprintf(&n, "ducheck: line %s: %s (skipped)\n", no, reason)
		case strings.HasPrefix(line, "QUARANTINED "):
			n.WriteString("ducheck: quarantined " + line[len("QUARANTINED "):])
		case strings.HasPrefix(line, "  line "), strings.HasPrefix(line, "  ... and "):
			n.WriteString(line) // a quarantine ledger entry; echo lines start with a number
		default:
			f.WriteString(line)
		}
	}
	return f.String(), n.String()
}

// TestConnectRequiresFollow: -connect outside -follow is an input error.
func TestConnectRequiresFollow(t *testing.T) {
	var out, errOut bytes.Buffer
	code, err := runWith([]string{"-connect", "localhost:1", "-"}, strings.NewReader(""), &out, &errOut)
	if code != 2 || err == nil {
		t.Fatalf("exit %d, err %v", code, err)
	}
}
