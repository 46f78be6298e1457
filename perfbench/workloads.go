package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"duopacity/internal/certd"
	"duopacity/internal/gen"
	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// workloadSpec is one named workload. Every job is an episode of the
// tl2 engine on two threads, shaped by one of harness's canonical
// workload shapes; certify workloads certify it online, stream workloads
// ship its recorded events to certd.
type workloadSpec struct {
	name  string
	shape string // harness.ScaleWorkload kind
	txns  int    // transactions per thread per job
	pool  int    // distinct jobs per run; the closed loop cycles through them
	// stream selects the certd path: jobs are recorded in set-up and
	// streamed as histio lines to an in-process server.
	stream bool
	// procs is the GOMAXPROCS the workload runs with. A certify job runs
	// on one goroutine (the stepper), so it gets one CPU: with a second,
	// the collector's idle mark workers kept that CPU busy through every
	// cycle, which cost CPU time that varied with how the host scheduled
	// the second vCPU, and the busy vCPU drew several times more host
	// steal. A stream has a client and a server working at once, which
	// in use are two processes, so it gets two.
	procs int
	// tailPct is the fixed percentile reported as cpu_to_verdict_tail_ms.
	// At the baseline job rate at least 10 samples lie beyond it (NOTES.md
	// gives each choice); it stays fixed so that a faster program, which
	// finishes more jobs, is not judged on a higher percentile.
	tailPct float64
}

const (
	engine  = "tl2"
	threads = 2
	// retireWindow is the monitors' retirement window, in-process and in
	// the STREAM hello.
	retireWindow = 32
	// plantEvery: one stream in plantEvery carries a planted
	// sourceless read, which every criterion must reject.
	plantEvery = 8
)

var workloads = []workloadSpec{
	{name: "certify-readheavy", shape: "read-heavy", txns: 100, pool: 1024, procs: 1, tailPct: 99},
	{name: "certify-hotspot", shape: "write-hotspot", txns: 500, pool: 512, procs: 1, tailPct: 90},
	{name: "stream-disjoint", shape: "disjoint", txns: 250, pool: 32, stream: true, procs: 2, tailPct: 95},
}

// streamCriteria are the criteria of the STREAM hello; certify workloads
// monitor du-opacity alone.
var streamCriteria = []spec.Criterion{spec.DUOpacity, spec.TMS2, spec.RCO}

func (w workloadSpec) criteria() []spec.Criterion {
	if w.stream {
		return streamCriteria
	}
	return streamCriteria[:1]
}

func (w workloadSpec) sized(cfg config) workloadSpec {
	if cfg.txns > 0 {
		w.txns = cfg.txns
	}
	if cfg.pool > 0 {
		w.pool = cfg.pool
	}
	return w
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// verdict classes the oracle compares.
const (
	verdictOK        = "OK"
	verdictViolated  = "VIOLATED"
	verdictUndecided = "undecided"
)

func classify(v spec.Verdict) string {
	switch {
	case v.Undecided:
		return verdictUndecided
	case v.OK:
		return verdictOK
	default:
		return verdictViolated
	}
}

// job is one unit of the closed loop: an episode (certify) or a stream.
type job struct {
	id      int
	w       harness.Workload // the episode; for streams, the recorded source
	planned int              // planned transactions, all of which must commit
	// Stream jobs only: the streamed events (with the planted read when
	// planted), their histio encoding, and the expected verdict per
	// criterion of the hello.
	events  []history.Event
	lines   []byte
	planted bool
	want    []string
}

// jobSeed derives the episode seed of job i from the run seed
// (splitmix64, so nearby seeds give unrelated jobs).
func jobSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// fixture is what set-up builds: the job pool and, for stream workloads,
// a running certd server.
type fixture struct {
	jobs []*job
	srv  *server
}

func (f *fixture) close() error {
	if f.srv == nil {
		return nil
	}
	return f.srv.close()
}

// setup builds the job pool from the seed. Certify jobs are workloads
// with their plans checked; stream jobs are recorded, encoded, planted
// and given reference verdicts by in-process monitors (no histio, no
// certd), and a certd server is started for them.
func setup(cfg config, w workloadSpec) (*fixture, error) {
	f := &fixture{jobs: make([]*job, w.pool)}
	rng := rand.New(rand.NewSource(cfg.seed))
	planted := make([]bool, w.pool)
	if w.stream {
		for _, i := range rng.Perm(w.pool)[:(w.pool+plantEvery-1)/plantEvery] {
			planted[i] = true
		}
	}
	for i := range f.jobs {
		hw, err := harness.ScaleWorkload(w.shape, engine, threads, w.txns, jobSeed(cfg.seed, i))
		if err != nil {
			return nil, err
		}
		plan := harness.PlanOf(hw)
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		j := &job{id: i, w: hw, planned: plan.NumTxns()}
		f.jobs[i] = j
		if !w.stream {
			continue
		}
		if err := recordStreamJob(j, planted[i], rng, cfg.wrongVerdict); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	if w.stream {
		srv, err := startServer()
		if err != nil {
			return nil, err
		}
		f.srv = srv
	}
	return f, nil
}

// recordStreamJob records the job's episode, plants a sourceless read
// when asked, encodes the events as histio lines and computes the
// reference verdicts.
func recordStreamJob(j *job, planted bool, rng *rand.Rand, wrongVerdict bool) error {
	h, stats, err := harness.RunInterleaved(j.w)
	if err != nil {
		return err
	}
	if stats.Failed != 0 || int(stats.Commits) != j.planned {
		return fmt.Errorf("recording committed %d of %d transactions (%d failed)", stats.Commits, j.planned, stats.Failed)
	}
	if planted {
		m, ok := gen.MutateSourcelessRead(h, rng)
		if !ok {
			return errors.New("no read to plant a sourceless value in")
		}
		h = m
	}
	j.events = h.Events()
	j.planted = planted
	var buf bytes.Buffer
	if err := histio.WriteEvents(&buf, j.events); err != nil {
		return err
	}
	j.lines = buf.Bytes()
	ref, err := referenceVerdicts(j.events)
	if err != nil {
		return err
	}
	for i, got := range ref {
		if planted && got != verdictViolated {
			return fmt.Errorf("planted stream: reference %v verdict is %s", streamCriteria[i], got)
		}
	}
	if wrongVerdict {
		for i, v := range ref {
			if v == verdictOK {
				ref[i] = verdictViolated
			} else {
				ref[i] = verdictOK
			}
		}
	}
	j.want = ref
	return nil
}

// referenceVerdicts replays the events through fresh in-process monitors
// configured as the STREAM hello configures the server's.
func referenceVerdicts(evs []history.Event) ([]string, error) {
	out := make([]string, len(streamCriteria))
	for i, c := range streamCriteria {
		m, err := spec.NewMonitor(c, spec.WithRetirement(retireWindow))
		if err != nil {
			return nil, err
		}
		for _, e := range evs {
			if _, err := m.Append(e); err != nil {
				return nil, err
			}
		}
		out[i] = classify(m.Verdict())
	}
	return out, nil
}

// certifyJob runs one episode through the online monitor and checks the
// oracle: tl2 episodes end decided OK, undegraded, with every planned
// transaction committed.
func certifyJob(j *job, wrongVerdict bool) (harness.OnlineReport, error) {
	r, err := harness.RunMonitored(j.w, spec.DUOpacity, 0, true, spec.WithRetirement(retireWindow))
	if err != nil {
		return r, err
	}
	want := verdictOK
	if wrongVerdict {
		want = verdictViolated
	}
	switch {
	case r.DegradedReason != "":
		return r, fmt.Errorf("degraded: %s", r.DegradedReason)
	case classify(r.Verdict) != want:
		return r, fmt.Errorf("verdict %s, want %s: %s", classify(r.Verdict), want, r.Verdict.Reason)
	case r.Stats.Failed != 0 || int(r.Stats.Commits) != j.planned:
		return r, fmt.Errorf("committed %d of %d transactions (%d failed)", r.Stats.Commits, j.planned, r.Stats.Failed)
	}
	return r, nil
}

// server is an in-process certd stream endpoint on loopback.
type server struct {
	srv    *certd.Server
	addr   string
	served chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: certd.NewServer(certd.Config{}), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.ServeStreams(ln) }()
	// Wait until the server serves streams, as a client would: one empty
	// stream. Draining a server whose ServeStreams has not yet started
	// races on the server's draining flag.
	if _, err := streamJob(s.addr, streamCriteria[:1], &job{want: []string{verdictOK}}); err != nil {
		_ = s.close() // the readiness failure is the error to report
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return s, nil
}

// close drains the server and waits for its accept loop to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// streamHello is the hello `ducheck -follow -connect -criteria <crits>
// -retire 32` sends: echoes on.
func streamHello(crits []spec.Criterion) string {
	names := make([]string, len(crits))
	for i, c := range crits {
		names[i], _ = spec.CriterionAlias(c)
	}
	return fmt.Sprintf("STREAM %s retire=%d", strings.Join(names, ","), retireWindow)
}

// streamResult is what the client saw on one stream.
type streamResult struct {
	verdicts  []string // per criterion of the hello, "" when missing
	echoBytes int64    // every byte the server sent after the hello reply
}

// streamJob sends the job's lines as `ducheck -follow -connect` does —
// hello, lines on a sender goroutine, END and a half-close — while
// reading the echoes, and checks the final verdicts and the DONE counts
// against the job's expectations (j.want, one per criterion of crits).
func streamJob(addr string, crits []spec.Criterion, j *job) (streamResult, error) {
	var res streamResult
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return res, err
	}
	if _, err := fmt.Fprintln(conn, streamHello(crits)); err != nil {
		return res, err
	}
	r := bufio.NewReaderSize(conn, 64*1024)
	hello, err := r.ReadString('\n')
	if err != nil {
		return res, fmt.Errorf("no hello response: %w", err)
	}
	if !strings.HasPrefix(hello, "OK ") {
		return res, fmt.Errorf("hello refused: %s", strings.TrimSpace(hello))
	}
	sent := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(conn)
		_, err := w.Write(j.lines)
		if err == nil {
			_, err = w.WriteString("END\n")
		}
		if err == nil {
			err = w.Flush()
		}
		if err == nil {
			err = conn.(*net.TCPConn).CloseWrite()
		}
		sent <- err
	}()
	res.verdicts = make([]string, len(crits))
	var done string
	for done == "" {
		line, err := r.ReadSlice('\n')
		res.echoBytes += int64(len(line))
		if err == nil || err == bufio.ErrBufferFull {
			done = parseServerLine(line, crits, &res)
		}
		for err == bufio.ErrBufferFull {
			// A witness line longer than the buffer: its prefix was
			// parsed; drain the rest.
			var more []byte
			more, err = r.ReadSlice('\n')
			res.echoBytes += int64(len(more))
		}
		if err != nil {
			conn.Close()
			<-sent
			return res, fmt.Errorf("stream ended without DONE: %w", err)
		}
	}
	if err := <-sent; err != nil {
		return res, fmt.Errorf("send: %w", err)
	}
	return res, checkStream(j, crits, res, done)
}

// parseServerLine folds one server line into res and returns the line
// when it is the terminal DONE (or ERR) line.
func parseServerLine(line []byte, crits []spec.Criterion, res *streamResult) string {
	if len(line) == 0 || line[0] == ' ' || (line[0] >= '0' && line[0] <= '9') {
		return "" // per-event echo
	}
	s := strings.TrimRight(string(line), "\n")
	if strings.HasPrefix(s, "DONE ") || strings.HasPrefix(s, "ERR ") {
		return s
	}
	for i, c := range crits {
		rest, ok := strings.CutPrefix(s, c.String()+": ")
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(rest, "OK"):
			res.verdicts[i] = verdictOK
		case strings.HasPrefix(rest, "violated"):
			res.verdicts[i] = verdictViolated
		case strings.HasPrefix(rest, "undecided"):
			res.verdicts[i] = verdictUndecided
		}
	}
	return ""
}

// checkStream is the stream oracle: every criterion's final verdict is
// the expected one, and DONE reports exactly the sent events, nothing
// bad or dropped, and as many violations as expected.
func checkStream(j *job, crits []spec.Criterion, res streamResult, done string) error {
	if strings.HasPrefix(done, "ERR ") {
		return errors.New(done)
	}
	var events, bad, dropped, violations int
	if _, err := fmt.Sscanf(done, "DONE events=%d bad=%d dropped=%d violations=%d", &events, &bad, &dropped, &violations); err != nil {
		return fmt.Errorf("unparsable %q: %w", done, err)
	}
	wantViolations := 0
	for i, want := range j.want {
		if want == verdictViolated {
			wantViolations++
		}
		if res.verdicts[i] != want {
			return fmt.Errorf("%v verdict %q, want %s (planted %v)", crits[i], res.verdicts[i], want, j.planted)
		}
	}
	if events != len(j.events) || bad != 0 || dropped != 0 || violations != wantViolations {
		return fmt.Errorf("%s, sent %d events expecting %d violations", done, len(j.events), wantViolations)
	}
	return nil
}
