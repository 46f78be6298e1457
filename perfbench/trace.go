package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/recorder"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
	"duopacity/internal/stm/engines"
)

// appendTailPct is the fixed percentile of spec.append_tail_us; a traced
// run sees tens of thousands of appends, so at least 10 lie beyond it.
const appendTailPct = 99.9

// layerSums accumulates the traced run over its jobs.
type layerSums struct {
	jobs, failed int
	untracedJobs int   // of jobs, those of the untraced closed loop
	events, txns int64 // per job: the streamed events, the recorded transactions
	// commits and aborts of the recording (harness.RunStats).
	commits, aborts int64

	online, record, raw, rec, tapped, ingest, timed, enc, parse, stream time.Duration
	spec                                                                [3]time.Duration // by streamCriteria index

	rawAllocs, rawBytes, recAllocs, recBytes uint64
	encBytes, echoBytes                      int64

	// Monitor counters over the workload's own criteria.
	searches, fastHits, retired, monitoredTxns int64
	maxLive                                    int
	commitAppend, searchAppend, allAppend      time.Duration
	appendNS                                   []float64

	srvAppend, srvEvents, srvStalls int64
	// The runtime's accounting over the untraced closed loop.
	goc      goCounters
	goEvents int64
}

// runTraced first runs the closed loop untraced for a quarter of
// cfg.seconds to measure the Go runtime's share, then traces jobs one at
// a time for the rest. Each traced job first runs online, untimed inside
// (the reference time), then its exact event sequence is replayed through
// each layer's public functions, each call timed as a span; the
// per-layer metrics and self times come from those spans.
func runTraced(cfg config, w workloadSpec, stdout, stderr io.Writer) (result, error) {
	f, err := setup(cfg, w)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	srv := f.srv
	if srv == nil {
		// Certify workloads stream each job's events to certd too, so the
		// certd and histio layers are measured on every workload.
		if srv, err = startServer(); err != nil {
			return result{}, err
		}
	}
	var s layerSums
	budget := time.Duration(cfg.seconds * float64(time.Second))
	runtimeShare(f, w, budget/4, cfg.wrongVerdict, &s, stderr)
	tr := newTracer()
	deadline := time.Now().Add(budget - budget/4)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		j := f.jobs[i%len(f.jobs)]
		s.jobs++
		if err := traceJob(tr, srv, w, j, &s, cfg.wrongVerdict); err != nil {
			if s.failed < 5 {
				fmt.Fprintf(stderr, "perfbench: %s: traced job %d failed: %v\n", w.name, j.id, err)
			}
			s.failed++
		}
	}
	if srv != f.srv {
		if err := srv.close(); err != nil {
			return result{}, fmt.Errorf("server shutdown: %w", err)
		}
	}
	if err := f.close(); err != nil {
		return result{}, fmt.Errorf("server shutdown: %w", err)
	}
	spansPath := filepath.Join(cfg.spansOut, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}

	t := s.table(w)
	t.print(stdout, fmt.Sprintf("%s: per layer (%d jobs, %d events traced, spans in %s)", w.name, s.jobs, s.events, spansPath))
	if w.stream {
		// Only stream workloads monitor TMS2 and RCO, so these two are
		// printed but not declared metrics (NOTES.md says why).
		note := fmt.Sprintf("(n=%d events)", s.events)
		fmt.Fprint(stdout, formatRow("spec.tms2.ns_per_event", "ns", float64(s.spec[1])/float64(s.events), note))
		fmt.Fprint(stdout, formatRow("spec.rco.ns_per_event", "ns", float64(s.spec[2])/float64(s.events), note))
	} else {
		// The tapped replay's excess is reported apart from the layer sum
		// (see unaccounted); it has no stream counterpart, so it is
		// printed but not declared.
		fmt.Fprint(stdout, formatRow("trace.interleaving_share", "ratio", s.interleavingShare(),
			fmt.Sprintf("(n=%d jobs, tapped replay excess, share of online time)", s.jobs-s.untracedJobs)))
	}
	s.printSelfTimes(stdout, w)
	return result{Correct: s.failed == 0, Attempted: s.jobs, Failed: s.failed, Metrics: t.values}, nil
}

// traceJob runs one job online and then through every layer, checking
// that each replay reproduces what the online run did.
func traceJob(tr *tracer, srv *server, w workloadSpec, j *job, s *layerSums, wrongVerdict bool) error {
	root := tr.begin("job", j.id, 0)
	defer tr.end(root)

	// The online run, exactly as the end-to-end run does it.
	quiesce()
	srv0 := srv.srv.Stats()
	appendNS0 := srv.srv.Metrics.AppendNanos.Load()
	id := tr.begin("online", j.id, root)
	var online harness.OnlineReport
	var streamed streamResult
	var err error
	if w.stream {
		streamed, err = streamJob(srv.addr, w.criteria(), j)
	} else {
		online, err = certifyJob(j, wrongVerdict)
	}
	tOnline := tr.end(id)
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}

	// harness: the deterministic stepper, recorder and engine, without
	// the monitor.
	quiesce()
	id = tr.begin("harness.record", j.id, root)
	h, stats, err := harness.RunInterleaved(j.w)
	tRecord := tr.end(id)
	if err != nil {
		return err
	}
	source := h.Events()
	events := j.events // the streamed events, planted read included
	switch {
	case !w.stream:
		events = source
		if len(source) != online.Events {
			return fmt.Errorf("replay recorded %d events, the online run %d", len(source), online.Events)
		}
	case !j.planted && !slices.Equal(source, events):
		return errors.New("replay recorded a different history than set-up")
	}
	sc, err := buildScript(source)
	if err != nil {
		return err
	}

	// stm: the engine alone, driven through the recorded operations;
	// then recorder: the same operations through a recorder. Both
	// engines exist before counting, so the allocation difference is
	// the recorder's alone.
	eng, err := engines.New(engine, j.w.Objects)
	if err != nil {
		return err
	}
	recEng, _ := engines.New(engine, j.w.Objects)
	rec := recorder.New(recEng)
	quiesce()
	a0, b0 := allocCounters()
	id = tr.begin("stm.replay", j.id, root)
	rawErr := sc.replay(eng.Begin)
	tRaw := tr.end(id)
	a1, b1 := allocCounters()
	if rawErr != nil {
		return fmt.Errorf("stm replay: %w", rawErr)
	}

	quiesce()
	id = tr.begin("recorder.replay", j.id, root)
	recErr := sc.replay(func() stm.Txn { return rec.Begin() })
	tRec := tr.end(id)
	a2, b2 := allocCounters()
	if recErr != nil {
		return fmt.Errorf("recorder replay: %w", recErr)
	}
	if !slices.Equal(rec.History().Events(), source) {
		return errors.New("recorder replay produced a different history")
	}

	// The du monitor in its pipeline position — on the recorder's tap,
	// as RunMonitored attaches it — driven by the same operations. Its
	// excess over the recorder replay plus the monitor replayed alone is
	// what running the layers interleaved costs.
	var tTapped time.Duration
	if !w.stream {
		tapEng, _ := engines.New(engine, j.w.Objects)
		trec := recorder.New(tapEng)
		m, _ := spec.NewMonitor(spec.DUOpacity, spec.WithRetirement(retireWindow))
		var tapErr error
		trec.Tap(func(e history.Event) {
			if _, err := m.Append(e); err != nil && tapErr == nil {
				tapErr = err
			}
		})
		quiesce()
		id = tr.begin("recorder.tapped", j.id, root)
		err := sc.replay(func() stm.Txn { return trec.Begin() })
		tTapped = tr.end(id)
		if err == nil {
			err = tapErr
		}
		if err == nil {
			err = sameWork(m, online)
		}
		if err != nil {
			return fmt.Errorf("tapped replay: %w", err)
		}
	}

	// history: stream ingestion and indexing alone.
	st := history.NewStream()
	quiesce()
	id = tr.begin("history.ingest", j.id, root)
	for _, e := range events {
		if err := st.Append(e); err != nil {
			return fmt.Errorf("history ingest: %w", err)
		}
	}
	tIngest := tr.end(id)

	// spec: one monitor per criterion of the workload, as the STREAM
	// hello and RunMonitored configure them.
	var tSpec [3]time.Duration
	crits := w.criteria()
	classes := make([]string, len(crits))
	for ci, c := range crits {
		m, _ := spec.NewMonitor(c, spec.WithRetirement(retireWindow))
		name, _ := spec.CriterionAlias(c)
		quiesce()
		id = tr.begin("spec."+name, j.id, root)
		for _, e := range events {
			if _, err := m.Append(e); err != nil {
				return fmt.Errorf("spec %s: %w", name, err)
			}
		}
		tSpec[ci] = tr.end(id)
		classes[ci] = classify(m.Verdict())
		if c == spec.DUOpacity && !w.stream {
			if err := sameWork(m, online); err != nil {
				return fmt.Errorf("du replay: %w", err)
			}
		}
	}
	if w.stream && !slices.Equal(classes, j.want) {
		return fmt.Errorf("replayed verdicts %v, want %v", classes, j.want)
	}

	// spec, timed per append over the workload's criteria.
	quiesce()
	id = tr.begin("spec.timed", j.id, root)
	tTimed := timedAppends(events, crits, s)
	tr.end(id)

	// histio: encode and parse the streamed events.
	var buf bytes.Buffer
	quiesce()
	id = tr.begin("histio.encode", j.id, root)
	if err := histio.WriteEvents(&buf, events); err != nil {
		return err
	}
	tEnc := tr.end(id)
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	strs := make([]string, len(lines))
	for i, l := range lines {
		strs[i] = string(l)
	}
	parsed := make([]history.Event, 0, len(events))
	quiesce()
	id = tr.begin("histio.parse", j.id, root)
	for _, l := range strs {
		evs, err := histio.ParseEvents(l)
		if err != nil {
			return fmt.Errorf("histio parse: %w", err)
		}
		parsed = append(parsed, evs...)
	}
	tParse := tr.end(id)
	if !slices.Equal(parsed, events) {
		return errors.New("histio round trip changed the events")
	}

	// certd: the stream session. A stream workload's online run is that
	// stream; certify workloads stream their events here.
	tStream := tOnline
	if !w.stream {
		sj := &job{id: j.id, events: events, lines: buf.Bytes(), want: classes}
		quiesce()
		id = tr.begin("certd.stream", j.id, root)
		streamed, err = streamJob(srv.addr, crits, sj)
		tStream = tr.end(id)
		if err != nil {
			return fmt.Errorf("certd stream: %w", err)
		}
	}
	srv1 := srv.srv.Stats()

	s.events += int64(len(events))
	s.txns += int64(h.NumTxns())
	s.commits += stats.Commits
	s.aborts += stats.Aborts
	s.online += tOnline
	s.record += tRecord
	s.raw += tRaw
	s.rec += tRec
	s.tapped += tTapped
	s.ingest += tIngest
	for i := range tSpec {
		s.spec[i] += tSpec[i]
	}
	s.timed += tTimed
	s.enc += tEnc
	s.parse += tParse
	s.stream += tStream
	s.rawAllocs += a1 - a0
	s.rawBytes += b1 - b0
	s.recAllocs += a2 - a1
	s.recBytes += b2 - b1
	s.encBytes += int64(buf.Len())
	s.echoBytes += streamed.echoBytes
	s.monitoredTxns += int64(h.NumTxns() * len(crits))
	s.srvAppend += srv.srv.Metrics.AppendNanos.Load() - appendNS0
	s.srvEvents += srv1.Streams.Events - srv0.Streams.Events
	s.srvStalls += srv1.Streams.Stalls - srv0.Streams.Stalls
	return nil
}

// runtimeShare runs the untraced closed loop for d, without forced
// collections, and records the runtime's allocation and CPU accounting
// over it; its jobs count as attempted like the traced ones.
func runtimeShare(f *fixture, w workloadSpec, d time.Duration, wrongVerdict bool, s *layerSums, stderr io.Writer) {
	g0 := readGoCounters()
	results := closedLoop(f, w, d, wrongVerdict)
	s.goc = readGoCounters().sub(g0)
	for _, r := range results {
		s.jobs++
		s.untracedJobs++
		s.goEvents += int64(r.events)
		if r.err != nil {
			if s.failed < 5 {
				fmt.Fprintf(stderr, "perfbench: %s: job failed: %v\n", w.name, r.err)
			}
			s.failed++
		}
	}
}

// sameWork checks that a replayed du monitor reached the online run's
// verdict with the same searches, fast hits and retirements.
func sameWork(m *spec.Monitor, online harness.OnlineReport) error {
	searches, fastHits := m.Stats()
	if classify(m.Verdict()) != classify(online.Verdict) || searches != online.Searches ||
		fastHits != online.FastHits || m.Retired() != online.Retired {
		return fmt.Errorf("%s, %d searches, %d fast hits, %d retired; online: %s, %d, %d, %d",
			classify(m.Verdict()), searches, fastHits, m.Retired(),
			classify(online.Verdict), online.Searches, online.FastHits, online.Retired)
	}
	return nil
}

// timedAppends feeds the events to fresh monitors for crits, timing each
// event's appends (all criteria together, as certd's append metric does)
// and attributing the time to commit responses and to appends that
// searched. It returns the pass's total time.
func timedAppends(events []history.Event, crits []spec.Criterion, s *layerSums) time.Duration {
	ms := make([]*spec.Monitor, len(crits))
	for i, c := range crits {
		ms[i], _ = spec.NewMonitor(c, spec.WithRetirement(retireWindow))
	}
	searchCount := func() (n int) {
		for _, m := range ms {
			searches, _ := m.Stats()
			n += searches
		}
		return n
	}
	start := time.Now()
	for _, e := range events {
		before := searchCount()
		t0 := time.Now()
		for _, m := range ms {
			_, _ = m.Append(e) // the untimed replay already checked these events
		}
		d := time.Since(t0)
		s.appendNS = append(s.appendNS, float64(d))
		s.allAppend += d
		if e.Kind == history.Res && e.Op == history.OpTryCommit && e.Out == history.OutCommit {
			s.commitAppend += d
		}
		if searchCount() > before {
			s.searchAppend += d
		}
		for _, m := range ms {
			s.maxLive = max(s.maxLive, m.LiveTxns())
		}
	}
	total := time.Since(start)
	for _, m := range ms {
		searches, fastHits := m.Stats()
		s.searches += int64(searches)
		s.fastHits += int64(fastHits)
		s.retired += int64(m.Retired())
	}
	return total
}

// table computes the per-layer metrics.
func (s *layerSums) table(w workloadSpec) *table {
	t := newTable(perLayerMetrics)
	ev, txns := float64(s.events), float64(s.txns)
	perEvent := func(d time.Duration) float64 { return float64(d) / ev }
	evNote := fmt.Sprintf("(n=%d events)", s.events)
	txnNote := fmt.Sprintf("(n=%d txns)", s.txns)
	pathSpec := s.specTime(w.criteria())

	t.set("harness.record_ns_per_event", perEvent(s.record), evNote)
	t.set("stm.ns_per_txn", float64(s.raw)/txns, txnNote)
	t.set("stm.abort_ratio", ratio(float64(s.aborts), float64(s.commits+s.aborts)),
		fmt.Sprintf("(n=%d attempts, %d aborts)", s.commits+s.aborts, s.aborts))
	t.set("recorder.ns_per_event", perEvent(s.rec-s.raw), evNote)
	t.set("recorder.allocs_per_txn", (float64(s.recAllocs)-float64(s.rawAllocs))/txns, txnNote)
	t.set("recorder.bytes_per_txn", (float64(s.recBytes)-float64(s.rawBytes))/txns, txnNote)
	t.set("history.ingest_ns_per_event", perEvent(s.ingest), evNote)
	t.set("spec.du.ns_per_event", perEvent(s.spec[0]), evNote)
	sort.Float64s(s.appendNS)
	t.set("spec.append_tail_us", percentile(s.appendNS, appendTailPct)/1e3,
		fmt.Sprintf("(p%g, n=%d appends)", appendTailPct, len(s.appendNS)))
	t.set("spec.commit_append_share", ratio(float64(s.commitAppend), float64(s.allAppend)), evNote)
	t.set("spec.max_live_txns", float64(s.maxLive), fmt.Sprintf("(n=%d appends, retirement window %d)", len(s.appendNS), retireWindow))
	t.set("spec.search_append_share", ratio(float64(s.searchAppend), float64(s.allAppend)), evNote)
	t.set("spec.searches_per_kevent", 1000*float64(s.searches)/ev, fmt.Sprintf("(n=%d events, %d searches)", s.events, s.searches))
	t.set("spec.fast_hit_ratio", ratio(float64(s.fastHits), float64(s.fastHits+s.searches)),
		fmt.Sprintf("(n=%d rechecks, %d fast hits)", s.fastHits+s.searches, s.fastHits))
	t.set("spec.retired_share", ratio(float64(s.retired), float64(s.monitoredTxns)),
		fmt.Sprintf("(n=%d monitored txns, %d retired)", s.monitoredTxns, s.retired))
	t.set("histio.encode_ns_per_event", perEvent(s.enc), evNote)
	t.set("histio.parse_ns_per_event", perEvent(s.parse), evNote)
	t.set("histio.bytes_per_event", float64(s.encBytes)/ev, evNote)
	t.set("certd.append_ns_per_event", ratio(float64(s.srvAppend), float64(s.srvEvents)),
		fmt.Sprintf("(server Stats, n=%d events)", s.srvEvents))
	t.set("certd.session_ns_per_event", perEvent(s.stream-s.parse-pathSpec),
		fmt.Sprintf("(n=%d events, stream minus parse and monitors)", s.events))
	t.set("certd.stalls_per_kevent", 1000*ratio(float64(s.srvStalls), float64(s.srvEvents)),
		fmt.Sprintf("(n=%d events, %d stalls)", s.srvEvents, s.srvStalls))
	t.set("certd.echo_bytes_per_event", float64(s.echoBytes)/ev, evNote)
	goNote := fmt.Sprintf("(untraced loop, n=%d events)", s.goEvents)
	t.set("go.alloc_bytes_per_event", ratio(float64(s.goc.allocBytes), float64(s.goEvents)), goNote)
	t.set("go.gc_cpu_share", ratio(s.goc.gcCPU, s.goc.usedCPU), goNote)
	unaccounted, note := s.unaccounted(w)
	t.set("trace.unaccounted_share", unaccounted, note)
	t.set("trace.overhead_share", ratio(float64(s.timed-pathSpec), float64(s.online)),
		fmt.Sprintf("(n=%d jobs, timed appends vs untimed replay, share of online time)", s.jobs-s.untracedJobs))
	return t
}

func (s *layerSums) specTime(crits []spec.Criterion) time.Duration {
	var d time.Duration
	for i, c := range streamCriteria {
		if slices.Contains(crits, c) {
			d += s.spec[i]
		}
	}
	return d
}

// unaccounted is the share of the online time the separately measured
// layers do not add up to, with what it compares. On certify workloads
// the layer sum is harness self + recorder + stm + history + spec, which
// is the recording plus the du monitor replayed alone; what running them
// interleaved costs beyond that is reported apart (interleavingShare),
// not folded into the sum. A stream's session time is by definition
// what is left after parsing and the monitors, so there the check is
// the server's own measurement of its monitor appends against the
// replayed monitors.
func (s *layerSums) unaccounted(w workloadSpec) (float64, string) {
	n := s.jobs - s.untracedJobs
	if w.stream {
		return ratio(math.Abs(float64(s.srvAppend)-float64(s.specTime(w.criteria()))), float64(s.online)),
			fmt.Sprintf("(n=%d jobs, |server append - replayed monitors| / online)", n)
	}
	return ratio(math.Abs(float64(s.online-s.layerSum(w))), float64(s.online)),
		fmt.Sprintf("(n=%d jobs, |online - layer sum| / online)", n)
}

// layerSum is the sum of the self times of the separately measured
// layers on a certify workload's online path.
func (s *layerSums) layerSum(w workloadSpec) time.Duration {
	var sum time.Duration
	for _, r := range s.selfTimes(w) {
		sum += r.d
	}
	return sum
}

// interleavingShare is the du monitor's excess on the recorder's tap —
// its pipeline position — over the recorder and the monitor replayed
// apart, as a share of the online time: what sharing caches with the
// engine, stepper and recorder costs. Certify workloads only.
func (s *layerSums) interleavingShare() float64 {
	return ratio(float64(s.tapped-s.rec-s.spec[0]), float64(s.online))
}

type selfTime struct {
	layer string
	d     time.Duration
}

// selfTimes is each layer's self time on the workload's online path: a
// replayed layer's time minus the time of the layer it wraps.
func (s *layerSums) selfTimes(ws workloadSpec) []selfTime {
	n := time.Duration(len(ws.criteria()))
	specSelf := s.specTime(ws.criteria()) - n*s.ingest
	if ws.stream {
		return []selfTime{
			{"histio (parse)", s.parse},
			{"history (ingest x3)", n * s.ingest},
			{"spec (du+tms2+rco)", specSelf},
			{"certd (session)", s.online - s.parse - s.specTime(ws.criteria())},
		}
	}
	return []selfTime{
		{"harness (stepper)", s.record - s.rec},
		{"recorder", s.rec - s.raw},
		{"stm (tl2)", s.raw},
		{"history (ingest)", s.ingest},
		{"spec (du)", specSelf},
	}
}

// printSelfTimes prints the self times, their sum and, on certify
// workloads, the interleaving excess, which is not part of the sum.
func (s *layerSums) printSelfTimes(w io.Writer, ws workloadSpec) {
	ev := float64(s.events)
	row := func(layer string, d time.Duration, suffix string) {
		fmt.Fprintf(w, "  %-22s %10.1f ns  %5.1f%%%s\n", layer, float64(d)/ev, 100*ratio(float64(d), float64(s.online)), suffix)
	}
	fmt.Fprintf(w, "%s: self time per event on the online path\n", ws.name)
	var sum time.Duration
	for _, r := range s.selfTimes(ws) {
		sum += r.d
		row(r.layer, r.d, "")
	}
	row("layer sum", sum, "")
	row("end to end", s.online, " (untraced online runs)")
	if !ws.stream {
		row("interleaving", s.tapped-s.rec-s.spec[0], " (tapped replay excess, not in the sum)")
	}
}

// quiesce collects the garbage of earlier calls so that a timed call
// pays only for the collection of its own allocations.
func quiesce() { runtime.GC() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// script is a recorded event sequence turned into the engine operations
// that produced it, with their recorded outcomes.
type script struct {
	steps []step
	slots int // transactions
}

type step struct {
	slot  int
	op    history.OpKind
	obj   int
	val   int64 // write argument, or the value the read returned
	abort bool  // the operation's recorded response was A_k
}

// buildScript pairs every invocation with its response. Transactions get
// slots in the order of their first event, which is the order the
// recorder assigned their identifiers.
func buildScript(evs []history.Event) (script, error) {
	var sc script
	slot := map[history.TxnID]int{}
	pending := map[history.TxnID]int{} // txn -> index of its open step
	for _, e := range evs {
		k, ok := slot[e.Txn]
		if !ok {
			k = sc.slots
			slot[e.Txn] = k
			sc.slots++
		}
		if e.Kind == history.Inv {
			st := step{slot: k, op: e.Op, val: int64(e.Arg)}
			if e.Op == history.OpRead || e.Op == history.OpWrite {
				obj, err := strconv.Atoi(string(e.Obj)[1:])
				if err != nil {
					return sc, fmt.Errorf("object %q: %w", e.Obj, err)
				}
				st.obj = obj
			}
			pending[e.Txn] = len(sc.steps)
			sc.steps = append(sc.steps, st)
			continue
		}
		i, ok := pending[e.Txn]
		if !ok {
			return sc, fmt.Errorf("response without invocation: %v", e)
		}
		delete(pending, e.Txn)
		sc.steps[i].abort = e.Out == history.OutAbort
		if e.Op == history.OpRead {
			sc.steps[i].val = int64(e.Val)
		}
	}
	return sc, nil
}

// replay drives transactions from begin through the script and checks
// that every operation has its recorded outcome.
func (sc script) replay(begin func() stm.Txn) error {
	txs := make([]stm.Txn, sc.slots)
	for i, st := range sc.steps {
		tx := txs[st.slot]
		if tx == nil {
			tx = begin()
			txs[st.slot] = tx
		}
		var err error
		switch st.op {
		case history.OpRead:
			var v int64
			v, err = tx.Read(st.obj)
			if err == nil && v != st.val {
				return fmt.Errorf("step %d: read %d, recorded %d", i, v, st.val)
			}
		case history.OpWrite:
			err = tx.Write(st.obj, st.val)
		case history.OpTryCommit:
			err = tx.Commit()
		case history.OpTryAbort:
			tx.Abort()
			err = stm.ErrAborted
		}
		if (err != nil) != st.abort {
			return fmt.Errorf("step %d: aborted=%v, recorded %v", i, err != nil, st.abort)
		}
	}
	return nil
}
