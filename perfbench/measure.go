package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(n-1, i))
}

// percentile returns the nearest-rank percentile p of sorted samples
// (NaN when there are none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// cpuNow returns the CPU time the process has used so far, user and
// system, over all its threads. Time the process spent waiting for a CPU
// (other processes, or a hypervisor running other guests on this guest's
// CPUs) is not in it, so a job's CPU time measures its work, not the
// load on the machine.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the process's resident set size every 5 ms from
// /proc/self/statm; where that file does not exist it samples the Go
// runtime's mapped, unreleased memory instead. It keeps the peak of each
// second.
type rssSampler struct {
	quit chan struct{}
	done chan struct{}
	// t0, peaks and samples are written by the sampling goroutine until
	// done is closed.
	t0      time.Time
	peaks   []int64 // peaks[k] is the peak of second k
	samples int
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{}), t0: time.Now()}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	k := int(time.Since(s.t0) / time.Second)
	for len(s.peaks) <= k {
		s.peaks = append(s.peaks, 0)
	}
	s.peaks[k] = max(s.peaks[k], residentBytes())
	s.samples++
}

// stop ends sampling and returns the median of the per-second peaks in
// bytes, the number of seconds and the number of samples. A last, partial
// second is left out unless it is the only one.
func (s *rssSampler) stop() (peak int64, seconds, samples int) {
	close(s.quit)
	<-s.done
	peaks := s.peaks
	if len(peaks) > 1 {
		peaks = peaks[:len(peaks)-1]
	}
	sorted := make([]float64, len(peaks))
	for i, p := range peaks {
		sorted[i] = float64(p)
	}
	sort.Float64s(sorted)
	return int64(percentile(sorted, 50)), len(sorted), s.samples
}

func residentBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

// goCounters is a reading of the runtime's cumulative allocation and CPU
// accounting.
type goCounters struct {
	allocBytes     uint64
	gcCPU, usedCPU float64
}

var goCounterNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGoCounters() goCounters {
	s := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		usedCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (c goCounters) sub(o goCounters) goCounters {
	return goCounters{allocBytes: c.allocBytes - o.allocBytes, gcCPU: c.gcCPU - o.gcCPU, usedCPU: c.usedCPU - o.usedCPU}
}

// allocCounters reads the exact cumulative heap allocation counts.
func allocCounters() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// span is one traced call into a layer: name, start and end (ns since the
// trace began), the span that caused it, and the job it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a job's root span
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, job, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// write saves the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
