package certd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"duopacity/internal/checkfarm"
	"duopacity/internal/harness"
	"duopacity/internal/spec"
	"duopacity/internal/stm"
)

// startFarm spins an in-process coordinator with nWorkers pull workers
// over real HTTP and returns a client. Everything tears down with the
// test.
func startFarm(t *testing.T, cfg Config, nWorkers int) (*Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.ExpireLoop(ctx)
	for i := 0; i < nWorkers; i++ {
		w := &Worker{Client: c, Name: fmt.Sprintf("w%d", i), Poll: 5 * time.Millisecond}
		go func() { _ = w.Run(ctx) }()
	}
	return s, c
}

func submitAndWait(t *testing.T, c *Client, job checkfarm.JobSpec) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id, _, err := c.Submit(ctx, job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if st.State != JobDone {
		t.Fatalf("job %s finished %s: %s", id, st.State, st.Err)
	}
	return st
}

// TestDistributedCertifyByteIdentical is the acceptance gate: a
// certification sliced into leases, computed by networked workers, and
// folded by the coordinator renders byte-for-byte what the in-process
// farm renders for the same spec.
func TestDistributedCertifyByteIdentical(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.Serializability}
	cfg := harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2", Objects: 3, Goroutines: 3, TxnsPerGoroutine: 2, OpsPerTxn: 3, Seed: 99},
		Episodes: 10, Interleaved: true,
	}
	local, err := checkfarm.Certify(context.Background(), cfg, criteria, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := checkfarm.JobSpec{Kind: checkfarm.KindCertify, Certify: &checkfarm.CertifyJob{Config: cfg, Criteria: criteria}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := harness.FormatCertTable(local, criteria)

	_, c := startFarm(t, Config{LeaseTTL: 2 * time.Second}, 3)
	st := submitAndWait(t, c, spec2)
	if st.Formatted != want {
		t.Fatalf("distributed certification diverged from in-process farm:\nlocal:\n%s\ndistributed:\n%s", want, st.Formatted)
	}
	if st.Degraded != 0 {
		t.Fatalf("healthy run degraded %d shard(s)", st.Degraded)
	}
}

func TestDistributedExploreByteIdentical(t *testing.T) {
	plans := []stm.Plan{
		stm.MustParsePlan("w0 | r0 r1\nw1"),
		stm.MustParsePlan("r0 w1\nr1 w0"),
	}
	local, err := checkfarm.ExplorePlans(context.Background(), "gl", plans, harness.ExploreConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := harness.FormatExploreTable(local)

	_, c := startFarm(t, Config{LeaseTTL: 2 * time.Second}, 2)
	st := submitAndWait(t, c, checkfarm.JobSpec{Kind: checkfarm.KindExplore, Explore: &checkfarm.ExploreJob{Engine: "gl", Plans: plans}})
	if st.Formatted != want {
		t.Fatalf("distributed exploration diverged:\nlocal:\n%s\ndistributed:\n%s", want, st.Formatted)
	}
}

func TestDistributedSoakByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak differential is not -short")
	}
	cfg := checkfarm.SoakConfig{
		Engines:  []string{"gl", "norec"},
		Criteria: []spec.Criterion{spec.DUOpacity, spec.Serializability},
		Rounds:   2,
		Seed:     11,
	}
	local, err := checkfarm.Soak(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	job, err := checkfarm.JobSpec{Kind: checkfarm.KindSoak, Soak: &checkfarm.SoakJob{Config: cfg}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := checkfarm.FormatSoakReport(job.Soak.Config, local)

	_, c := startFarm(t, Config{LeaseTTL: 5 * time.Second}, 2)
	st := submitAndWait(t, c, job)
	if st.Formatted != want {
		t.Fatalf("distributed soak diverged:\nlocal:\n%s\ndistributed:\n%s", want, st.Formatted)
	}
}

// TestWorkerDiesMidRunRequeues kills a worker holding a lease (it leases
// and never returns) while a healthy worker keeps polling: the lease
// expires, the healthy worker completes the shard, and nothing degrades.
func TestWorkerDiesMidRunRequeues(t *testing.T) {
	s, c := startFarm(t, Config{LeaseTTL: 150 * time.Millisecond}, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, _, err := c.Submit(ctx, checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	// The doomed worker grabs the shard and dies (no heartbeat).
	g, ok, err := c.Lease(ctx, "doomed")
	if err != nil || !ok {
		t.Fatalf("doomed lease: %v ok=%v", err, ok)
	}
	_ = g
	// A healthy worker joins after the fact.
	go func() {
		w := &Worker{Client: c, Name: "healthy", Poll: 10 * time.Millisecond}
		_ = w.Run(ctx)
	}()

	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Degraded != 0 {
		t.Fatalf("requeue after worker death failed: %+v", st)
	}
	if s.Metrics.LeasesExpired.Load() < 1 || s.Metrics.ShardsRequeued.Load() < 1 {
		t.Fatalf("expiry not recorded: expired=%d requeued=%d",
			s.Metrics.LeasesExpired.Load(), s.Metrics.ShardsRequeued.Load())
	}
}

// TestAllWorkersDeadDegrades: with every worker dead, the janitor alone
// burns the attempts and the job completes with explicit degraded
// artifacts — never a hung or failed coordinator.
func TestAllWorkersDeadDegrades(t *testing.T) {
	s, c := startFarm(t, Config{LeaseTTL: 60 * time.Millisecond, MaxShardAttempts: 2}, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, _, err := c.Submit(ctx, checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Two doomed workers each lease and die; the janitor (ExpireLoop)
	// reclaims both grants with no one left polling.
	for i := 0; i < 2; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, ok, err := c.Lease(ctx, fmt.Sprintf("doomed%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard never became leasable for doomed worker %d", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Degraded != 1 {
		t.Fatalf("dead-fleet job status: %+v", st)
	}
	if !strings.Contains(st.Formatted, "degraded") {
		t.Fatalf("report hides the degradation:\n%s", st.Formatted)
	}
	if s.Metrics.ShardsDegraded.Load() != 1 {
		t.Fatalf("ShardsDegraded = %d, want 1", s.Metrics.ShardsDegraded.Load())
	}
}

// TestHealthzStatsz smoke-tests the ops surface end to end.
func TestHealthzStatsz(t *testing.T) {
	_, c := startFarm(t, Config{}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	submitAndWait(t, c, checkJobSpec("write 1 X 1\ncommit 1\n"))
	snap, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs.Submitted != 1 || snap.Jobs.Done != 1 || snap.Jobs.ShardsDone != 1 {
		t.Fatalf("statsz wrong: %+v", snap.Jobs)
	}
	if snap.Jobs.Open != 0 {
		t.Fatalf("finished job still open in statsz: %+v", snap.Jobs)
	}
}

// TestOversizedBodiesRejected: a /v1/jobs or /v1/result body over
// maxBodyBytes is answered 413 with an explicit error, and the
// coordinator keeps serving.
func TestOversizedBodiesRejected(t *testing.T) {
	_, c := startFarm(t, Config{}, 1)
	big := `{"spec":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/result"} {
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "request body exceeds") {
			t.Fatalf("%s: oversized body got %d %q, want 413 with an explicit error", path, resp.StatusCode, body)
		}
	}
	st := submitAndWait(t, c, checkJobSpec("write 1 X 1\ncommit 1\n"))
	if !strings.Contains(st.Formatted, "du-opacity: OK") {
		t.Fatalf("coordinator stopped serving after oversized bodies: %+v", st)
	}
}
