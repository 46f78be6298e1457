package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"duopacity/internal/harness"
)

const (
	// Set-up is repeated at least minSetupRuns times and until
	// minSetupTime has passed (at most maxSetupRuns times); setup_s is
	// the median. Short set-ups thus get enough repeats for a steady
	// median.
	minSetupRuns = 5
	maxSetupRuns = 40
	minSetupTime = 2 * time.Second
)

// jobResult is one finished job of the closed loop: its wall-clock start
// and end as offsets from the start of the loop, and the CPU time the
// process used while it ran.
type jobResult struct {
	start, end time.Duration
	cpu        time.Duration
	events     int
	err        error
}

func (r jobResult) dur() time.Duration { return r.end - r.start }

// runEndToEnd sets up the workload repeatedly (setupMedian), then runs its jobs
// in a closed loop with one client — the next job starts when the
// previous one has delivered its verdict — until cfg.seconds have
// passed, and reports the end-to-end metrics.
//
// The declared metrics are measured in process CPU time: throughput is
// events per CPU second, and a job's time to verdict is the CPU time the
// whole process (client, server, monitors, collector) spent from its
// start to its verdict. On a shared host, wall time also counts the time
// the process waited for a CPU, which comes and goes with the load of
// other tenants; CPU time counts only the work. The wall-clock figures
// are printed after the table for reference.
func runEndToEnd(cfg config, w workloadSpec, stdout, stderr io.Writer) (result, error) {
	f, setup, err := setupMedian(cfg, w)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	debug.FreeOSMemory() // peak RSS measures the timed phase, not set-up garbage
	rss := startRSSSampler()
	d := time.Duration(cfg.seconds * float64(time.Second))
	cpu0 := cpuNow()
	results := closedLoop(f, w, d, cfg.wrongVerdict)
	loopCPU := cpuNow() - cpu0
	peakRSS, rssSeconds, rssSamples := rss.stop()
	if err := f.close(); err != nil {
		return result{}, fmt.Errorf("server shutdown: %w", err)
	}

	var cpus, walls []float64
	events, failed := 0, 0
	for _, r := range results {
		if r.err != nil {
			if failed < 5 {
				fmt.Fprintf(stderr, "perfbench: %s: job failed: %v\n", w.name, r.err)
			}
			failed++
			continue
		}
		events += r.events
		cpus = append(cpus, float64(r.cpu)/float64(time.Millisecond))
		walls = append(walls, float64(r.dur())/float64(time.Millisecond))
	}
	sort.Float64s(cpus)
	sort.Float64s(walls)
	n := len(results)
	var wall time.Duration
	if n > 0 {
		wall = results[n-1].end
	}
	t := newTable(endToEndMetrics)
	t.set("events_per_cpu_s", float64(events)/loopCPU.Seconds(),
		fmt.Sprintf("(n=%d jobs, %d events, %.3f CPU s)", n, events, loopCPU.Seconds()))
	t.set("cpu_to_verdict_p50_ms", percentile(cpus, 50), fmt.Sprintf("(p50, n=%d)", len(cpus)))
	beyond := len(cpus) - rankIndex(len(cpus), w.tailPct) - 1
	t.set("cpu_to_verdict_tail_ms", percentile(cpus, w.tailPct),
		fmt.Sprintf("(p%g, n=%d, %d beyond)", w.tailPct, len(cpus), beyond))
	if beyond < 10 {
		fmt.Fprintf(stderr, "perfbench: %s: only %d samples beyond p%g; run longer for a tail estimate\n", w.name, beyond, w.tailPct)
	}
	t.set("peak_rss_mb", float64(peakRSS)/(1<<20),
		fmt.Sprintf("(median of n=%d per-second peaks, %d samples)", rssSeconds, rssSamples))
	t.set("setup_s", setup.cpu, fmt.Sprintf("(CPU, median of n=%d set-ups, %d jobs each)", setup.n, w.pool))
	t.print(stdout, fmt.Sprintf("%s: end-to-end", w.name))
	errorRate := 0.0
	if n > 0 {
		errorRate = float64(failed) / float64(n)
	}
	fmt.Fprint(stdout, formatRow("error_rate", "ratio", errorRate, fmt.Sprintf("(%d of %d jobs failed)", failed, n)))
	fmt.Fprintf(stdout, "%s: wall clock, for reference\n", w.name)
	fmt.Fprint(stdout, formatRow("wall.events_per_s", "1/s", float64(events)/wall.Seconds(), fmt.Sprintf("(n=%d jobs, %.3f s)", n, wall.Seconds())))
	fmt.Fprint(stdout, formatRow("wall.time_to_verdict_p50_ms", "ms", percentile(walls, 50), fmt.Sprintf("(p50, n=%d)", len(walls))))
	fmt.Fprint(stdout, formatRow("wall.time_to_verdict_tail_ms", "ms", percentile(walls, w.tailPct), fmt.Sprintf("(p%g, n=%d)", w.tailPct, len(walls))))
	fmt.Fprint(stdout, formatRow("wall.setup_s", "s", setup.wall, fmt.Sprintf("(median of n=%d set-ups)", setup.n)))
	return result{Correct: failed == 0 && n > 0, Attempted: n, Failed: failed, Metrics: t.values}, nil
}

// setupTimes is the median CPU and wall time, in seconds, of n set-ups.
type setupTimes struct {
	cpu, wall float64
	n         int
}

// setupMedian runs set-up repeatedly, keeps the last fixture and returns
// the median set-up times.
func setupMedian(cfg config, w workloadSpec) (*fixture, setupTimes, error) {
	var cpus, walls []float64
	var f *fixture
	for begin := time.Now(); len(cpus) < minSetupRuns ||
		(len(cpus) < maxSetupRuns && time.Since(begin) < minSetupTime); {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, setupTimes{}, err
			}
		}
		runtime.GC() // each set-up collects only its own garbage
		start, cpu0 := time.Now(), cpuNow()
		var err error
		f, err = setup(cfg, w)
		if err != nil {
			return nil, setupTimes{}, fmt.Errorf("set-up: %w", err)
		}
		cpus = append(cpus, (cpuNow() - cpu0).Seconds())
		walls = append(walls, time.Since(start).Seconds())
	}
	sort.Float64s(cpus)
	sort.Float64s(walls)
	return f, setupTimes{cpu: percentile(cpus, 50), wall: percentile(walls, 50), n: len(cpus)}, nil
}

// closedLoop runs the pool's jobs in order, cycling, one at a time until
// d has passed.
func closedLoop(f *fixture, w workloadSpec, d time.Duration, wrongVerdict bool) []jobResult {
	var results []jobResult
	for start := time.Now(); time.Since(start) < d; {
		j := f.jobs[len(results)%len(f.jobs)]
		results = append(results, runJob(f, w, j, wrongVerdict, start))
	}
	return results
}

// runJob times one job from its start to its final verdict, as offsets
// from t0.
func runJob(f *fixture, w workloadSpec, j *job, wrongVerdict bool, t0 time.Time) jobResult {
	r := jobResult{start: time.Since(t0)}
	cpu0 := cpuNow()
	if w.stream {
		_, r.err = streamJob(f.srv.addr, w.criteria(), j)
		r.events = len(j.events)
	} else {
		var rep harness.OnlineReport
		rep, r.err = certifyJob(j, wrongVerdict)
		r.events = rep.Events
	}
	r.cpu = cpuNow() - cpu0
	r.end = time.Since(t0)
	return r
}
