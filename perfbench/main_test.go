package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatches pins the declared workloads and metrics to the
// ones the program measures.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
	if !slices.Equal(b.Paths, []string{"perfbench"}) || len(b.Command) != 2 || b.Command[1] != "perfbench/run.sh" {
		t.Errorf("BENCHMARK.json command %v, paths %v", b.Command, b.Paths)
	}
}

// tinyConfig runs a workload at a size that takes a fraction of a second.
func tinyConfig(workload string, trace bool, spans string) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, txns: 10, pool: 4, spansOut: spans}
}

// runTiny runs the benchmark and returns its exit code, its result line
// and its standard output.
func runTiny(t *testing.T, cfg config) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if code == 0 && stderr.Len() > 0 && !strings.Contains(stderr.String(), "samples beyond") {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, res, stdout.String()
}

// checkPrinted checks that every metric is printed on a line of its own
// with its unit and its sample count (an "n=" in the note), and is the
// whole metric set of the result line.
func checkPrinted(t *testing.T, out string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("result metric %s = %+v, want unit %s", d.name, m, d.unit)
		}
		row := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(d.unit) + ` +\(.*\bn=[0-9]+\b.*\)$`)
		if !row.MatchString(out) {
			t.Errorf("no printed row for %s with unit %s and its sample count", d.name, d.unit)
		}
	}
}

func TestEndToEndTiny(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, res, out := runTiny(t, tinyConfig(w, false, t.TempDir()))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			checkPrinted(t, out, res, endToEndMetrics)
			if !strings.Contains(out, "error_rate") {
				t.Error("error_rate is not printed")
			}
		})
	}
}

func TestTracedTiny(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			spans := t.TempDir()
			code, res, out := runTiny(t, tinyConfig(w, true, spans))
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			checkPrinted(t, out, res, perLayerMetrics)
			f, err := os.Open(filepath.Join(spans, w+"-seed7.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			names := map[string]bool{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				if s.End < s.Start || (s.Parent == 0) != (s.Name == "job") {
					t.Errorf("malformed span %+v", s)
				}
				names[s.Name] = true
			}
			for _, want := range []string{"job", "online", "harness.record", "stm.replay", "recorder.replay",
				"history.ingest", "spec.du", "spec.timed", "histio.encode", "histio.parse"} {
				if !names[want] {
					t.Errorf("no %s span", want)
				}
			}
		})
	}
}

// TestWrongVerdictFails shows that the oracle is live: expecting the
// wrong verdict fails every job and the run.
func TestWrongVerdictFails(t *testing.T) {
	for _, w := range []string{"certify-hotspot", "stream-disjoint"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(w, false, t.TempDir())
			cfg.seconds, cfg.wrongVerdict = 0.2, true
			var stdout, stderr bytes.Buffer
			if code := execute(cfg, &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d with wrong expected verdicts, want 1\n%s", code, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
				t.Errorf("result %+v, want every job failed", res)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "certify-hotspot", "--trace", "2"},
		{"--workload", "certify-hotspot", "--seconds", "0"},
		{"--workload", "certify-hotspot", "--txns", "10"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
