package certd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"duopacity/internal/checkfarm"
)

// Config parameterizes a coordinator. The zero value is usable; every
// field has a default.
type Config struct {
	// LeaseTTL is how long a granted shard stays owned without a
	// heartbeat (default 3s). Heartbeats extend the lease by a full TTL.
	LeaseTTL time.Duration
	// MaxShardAttempts bounds how many grants a shard gets before the
	// coordinator gives up and folds a degraded artifact in its place
	// (default 3, matching the in-process farm's panic retries).
	MaxShardAttempts int
	// FoldJobs bounds the fold's own compute pool (soak divergence
	// shrinking; default GOMAXPROCS).
	FoldJobs int
	// MaxStreams caps concurrently open monitor streams; helloes past the
	// cap are refused with "ERR busy" (default 256).
	MaxStreams int
	// StreamQueue is the per-stream input queue depth (default 256
	// lines). A full queue stalls the reader (default) or drops (lossy
	// streams) — never grows.
	StreamQueue int
	// SlowAppend artificially delays every input line before the stream
	// session appends its events — a test knob for making backpressure
	// observable deterministically.
	SlowAppend time.Duration
	// Clock overrides time.Now for lease bookkeeping — a test knob for
	// deterministic expiry.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.MaxShardAttempts <= 0 {
		c.MaxShardAttempts = 3
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 256
	}
	if c.StreamQueue <= 0 {
		c.StreamQueue = 256
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

const (
	shardPending = iota
	shardLeased
	shardDone
)

type job struct {
	id       string
	spec     checkfarm.JobSpec // normalized
	n        int
	state    []int
	attempts []int
	results  []*checkfarm.ShardResult
	pending  []int // FIFO of pending shard indices
	done     int
	leased   int
	degraded int

	folded    bool
	foldErr   error
	formatted string
	report    *checkfarm.JobReport
	foldedCh  chan struct{} // closed when the fold finishes
}

type lease struct {
	id      string
	jobID   string
	shard   int
	worker  string
	expires time.Time
}

// Server is the certd coordinator: the job/lease state machine, its HTTP
// surface (Handler), and the stream listener (ServeStreams).
type Server struct {
	cfg     Config
	Metrics Metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order; leases are granted oldest-job-first
	leases   map[string]*lease
	seq      int64
	draining bool

	streams   sync.WaitGroup
	streamMu  sync.Mutex
	streamLns []interface{ Close() error }
	conns     map[interface{ Close() error }]struct{}
}

// NewServer builds a coordinator. Run ExpireLoop (or poke Expire from
// tests) to reclaim leases whose workers died; lease checks also happen
// lazily on every lease and heartbeat call.
func NewServer(cfg Config) *Server {
	return &Server{
		cfg:    cfg.withDefaults(),
		jobs:   make(map[string]*job),
		leases: make(map[string]*lease),
		conns:  make(map[interface{ Close() error }]struct{}),
	}
}

// Submit registers a job and returns its id. The spec is normalized
// here, once, so every worker sees identical defaults.
func (s *Server) Submit(spec checkfarm.JobSpec) (string, int, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return "", 0, err
	}
	n := spec.NumShards()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", 0, fmt.Errorf("certd: coordinator is draining")
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j%d", s.seq),
		spec:     spec,
		n:        n,
		state:    make([]int, n),
		attempts: make([]int, n),
		results:  make([]*checkfarm.ShardResult, n),
		pending:  make([]int, 0, n),
		foldedCh: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		j.pending = append(j.pending, i)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.Metrics.JobsSubmitted.Add(1)
	return j.id, n, nil
}

// Lease grants the oldest pending shard to a worker, or returns nil when
// no work is available. Expired leases are reclaimed first, so a polling
// worker doubles as the liveness scan.
func (s *Server) Lease(worker string) *LeaseGrant {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if s.draining {
		return nil
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if len(j.pending) == 0 {
			continue
		}
		shard := j.pending[0]
		j.pending = j.pending[1:]
		j.state[shard] = shardLeased
		j.leased++
		j.attempts[shard]++
		s.seq++
		l := &lease{
			id:      fmt.Sprintf("L%d", s.seq),
			jobID:   j.id,
			shard:   shard,
			worker:  worker,
			expires: s.cfg.Clock().Add(s.cfg.LeaseTTL),
		}
		s.leases[l.id] = l
		s.Metrics.LeasesGranted.Add(1)
		return &LeaseGrant{
			JobID:     j.id,
			Shard:     shard,
			LeaseID:   l.id,
			TTLMillis: s.cfg.LeaseTTL.Milliseconds(),
			Spec:      j.spec,
		}
	}
	return nil
}

// Heartbeat extends a lease by a full TTL; false means the lease is gone
// (expired and reclaimed, or its shard already resolved).
func (s *Server) Heartbeat(leaseID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, ok := s.leases[leaseID]
	if !ok {
		return false
	}
	l.expires = s.cfg.Clock().Add(s.cfg.LeaseTTL)
	return true
}

// Result folds one shard outcome. Idempotent: a result for an
// already-done shard — a retried delivery, or a slow worker racing the
// requeue — is an acknowledged no-op. An Err outcome requeues the shard
// (or degrades it past its attempts).
func (s *Server) Result(req ResultRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[req.JobID]
	if !ok {
		return fmt.Errorf("certd: unknown job %q", req.JobID)
	}
	if req.Shard < 0 || req.Shard >= j.n {
		return fmt.Errorf("certd: job %s has no shard %d", req.JobID, req.Shard)
	}
	// Release the delivering lease regardless of outcome; the leased
	// count is settled by requeueLocked/resolveLocked below. Whether the
	// lease still owned its shard decides the error path.
	owned := false
	if l, ok := s.leases[req.LeaseID]; ok && l.jobID == req.JobID && l.shard == req.Shard {
		delete(s.leases, req.LeaseID)
		owned = true
	}
	if j.state[req.Shard] == shardDone {
		return nil // duplicate delivery
	}
	if req.Err != "" {
		// Only the lease that still owns the shard may requeue it. A
		// stale Err — the lease expired and the shard is already back in
		// the queue or re-leased — already had its requeue; acting on it
		// again would enqueue the shard twice.
		if owned && j.state[req.Shard] == shardLeased {
			s.requeueLocked(j, req.Shard, fmt.Sprintf("worker %s: %s", req.Worker, req.Err))
		}
		return nil
	}
	if req.Result == nil {
		return fmt.Errorf("certd: result for job %s shard %d carries neither a result nor an error", req.JobID, req.Shard)
	}
	s.resolveLocked(j, req.Shard, req.Result)
	return nil
}

// Expire reclaims every lease past its deadline: the shard goes back to
// the pending queue, or — past MaxShardAttempts grants — degrades into
// the explicit dead-worker artifact. Safe to call from a ticker.
func (s *Server) Expire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
}

func (s *Server) expireLocked() {
	now := s.cfg.Clock()
	for id, l := range s.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(s.leases, id)
		s.Metrics.LeasesExpired.Add(1)
		j := s.jobs[l.jobID]
		if j == nil || j.state[l.shard] != shardLeased {
			continue
		}
		s.requeueLocked(j, l.shard, fmt.Sprintf("worker %s: lease expired", l.worker))
	}
}

// requeueLocked returns a shard to the queue, or degrades it once its
// grants are spent. It settles the leased count for a shard coming off a
// lease.
func (s *Server) requeueLocked(j *job, shard int, reason string) {
	if j.state[shard] == shardLeased {
		j.leased--
		j.state[shard] = shardPending
	}
	if j.attempts[shard] >= s.cfg.MaxShardAttempts {
		res := j.spec.DegradedShard(shard, fmt.Sprintf("%s (attempt %d/%d)", reason, j.attempts[shard], s.cfg.MaxShardAttempts))
		s.Metrics.ShardsDegraded.Add(1)
		j.degraded++
		s.resolveLocked(j, shard, &res)
		return
	}
	j.state[shard] = shardPending
	j.pending = append(j.pending, shard)
	s.Metrics.ShardsRequeued.Add(1)
}

// resolveLocked marks a shard done and kicks the fold when it was the
// last one. The fold runs outside the lock (soak folds shrink
// counterexamples — real compute). Any lease still pointing at the shard
// — a second worker racing a stale delivery — is released; its eventual
// result lands as a duplicate no-op.
func (s *Server) resolveLocked(j *job, shard int, res *checkfarm.ShardResult) {
	if j.state[shard] == shardDone {
		return // racing duplicate — the first resolution stands
	}
	for id, l := range s.leases {
		if l.jobID == j.id && l.shard == shard {
			delete(s.leases, id)
		}
	}
	if j.state[shard] == shardLeased {
		j.leased--
	}
	// A stale result can land while the shard sits requeued in the
	// pending FIFO (lease expired, delivery raced the re-lease): pull it
	// out so a later Lease can't grant an already-done shard.
	for i, p := range j.pending {
		if p == shard {
			j.pending = append(j.pending[:i], j.pending[i+1:]...)
			break
		}
	}
	j.state[shard] = shardDone
	j.results[shard] = res
	j.done++
	s.Metrics.ShardsDone.Add(1)
	if j.done == j.n {
		go s.fold(j)
	}
}

func (s *Server) fold(j *job) {
	rep, err := checkfarm.FoldJob(context.Background(), j.spec, j.results, s.cfg.FoldJobs)
	s.mu.Lock()
	j.folded = true
	if err != nil {
		j.foldErr = err
		s.Metrics.JobsFailed.Add(1)
	} else {
		j.report = rep
		j.formatted = checkfarm.FormatJobReport(j.spec, rep)
		s.Metrics.JobsDone.Add(1)
	}
	s.mu.Unlock()
	close(j.foldedCh)
}

// Status reports a job's progress; the formatted report appears once the
// fold lands.
func (s *Server) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("certd: unknown job %q", id)
	}
	st := &JobStatus{
		ID: j.id, Kind: j.spec.Kind, Shards: j.n,
		Done: j.done, Leased: j.leased, Degraded: j.degraded,
	}
	switch {
	case j.foldErr != nil:
		st.State = JobFailed
		st.Err = j.foldErr.Error()
	case j.folded:
		st.State = JobDone
		st.Formatted = j.formatted
	case j.done == j.n:
		st.State = JobFolding
	default:
		st.State = JobRunning
	}
	return st, nil
}

// Report blocks until the job's fold lands and returns the structured
// report — the in-process path for embedders and tests.
func (s *Server) Report(ctx context.Context, id string) (*checkfarm.JobReport, string, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, "", fmt.Errorf("certd: unknown job %q", id)
	}
	select {
	case <-j.foldedCh:
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.foldErr != nil {
		return nil, "", j.foldErr
	}
	return j.report, j.formatted, nil
}

// Drain gracefully shuts the coordinator down: no new jobs, no new
// leases, no new streams. Every shard still pending or outstanding
// degrades into its explicit dead-worker artifact so every job folds and
// completes — a drained coordinator never leaves a submitter hanging.
// Open streams are closed (the listener first, then — once ctx expires —
// any connection still open). Returns once every job has folded and
// every stream handler has returned, or with ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var open []*job
	for id, l := range s.leases {
		delete(s.leases, id)
		j := s.jobs[l.jobID]
		if j != nil && j.state[l.shard] == shardLeased {
			j.leased--
			j.state[l.shard] = shardPending
			j.pending = append(j.pending, l.shard)
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		pending := j.pending
		j.pending = nil // detach before resolving: resolveLocked edits j.pending
		for _, shard := range pending {
			if j.state[shard] == shardDone {
				continue
			}
			res := j.spec.DegradedShard(shard, "coordinator draining")
			s.Metrics.ShardsDegraded.Add(1)
			j.degraded++
			s.resolveLocked(j, shard, &res)
		}
		if !j.folded {
			open = append(open, j)
		}
	}
	s.mu.Unlock()

	s.closeStreamListeners()
	streamsDone := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(streamsDone)
	}()

	for _, j := range open {
		select {
		case <-j.foldedCh:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case <-streamsDone:
		return nil
	case <-ctx.Done():
		s.closeStreamConns()
		<-streamsDone
		return ctx.Err()
	}
}

// ExpireLoop runs the lease janitor until ctx ends: even with every
// worker dead (nobody left to poll Lease and trigger the lazy scan),
// outstanding leases still expire and jobs still complete.
func (s *Server) ExpireLoop(ctx context.Context) {
	interval := s.cfg.LeaseTTL / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Expire()
		}
	}
}

// Stats composes the /statsz snapshot.
func (s *Server) Stats() StatsSnapshot {
	snap := s.Metrics.snapshot()
	s.mu.Lock()
	snap.Draining = s.draining
	snap.Jobs.LeasesOutstanding = int64(len(s.leases))
	for _, j := range s.jobs {
		if !j.folded {
			snap.Jobs.Open++
		}
	}
	s.mu.Unlock()
	return snap
}

// Handler is the coordinator's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Stats())
	})
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req SubmitRequest
		if !decodeBody(w, r, &req) {
			return
		}
		id, n, err := s.Submit(req.Spec)
		if err != nil {
			code := http.StatusBadRequest
			if strings.Contains(err.Error(), "draining") {
				code = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), code)
			return
		}
		writeJSON(w, SubmitResponse{ID: id, Shards: n})
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		st, err := s.Status(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		g := s.Lease(req.Worker)
		if g == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, g)
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if !s.Heartbeat(req.LeaseID) {
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := s.Result(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxBodyBytes bounds every /v1 request body. The largest bodies the
// repository's CLIs and tests send are soak shard results carrying a
// recorded history and check jobs carrying whole histories, tens of KiB
// at most; 8 MiB leaves two orders of magnitude of headroom for
// hand-written check jobs while keeping a hostile body from holding the
// coordinator's memory.
const maxBodyBytes = 8 << 20

// decodeBody decodes the JSON request body into v. On failure it answers
// 413 for a body over maxBodyBytes and 400 for a malformed one, and
// reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
