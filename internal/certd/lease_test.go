package certd

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"duopacity/internal/checkfarm"
	"duopacity/internal/histio"
	"duopacity/internal/spec"
)

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func checkJobSpec(histories ...string) checkfarm.JobSpec {
	hs := make([]histio.Text, len(histories))
	for i, src := range histories {
		h, err := histio.ParseString(src)
		if err != nil {
			panic(err)
		}
		hs[i] = histio.Text{History: h}
	}
	return checkfarm.JobSpec{Kind: checkfarm.KindCheck, Check: &checkfarm.CheckJob{
		Histories: hs,
		Criteria:  []spec.Criterion{spec.DUOpacity},
	}}
}

// waitReport fetches the folded report with a hard timeout: a hung
// coordinator is itself a failure here.
func waitReport(t *testing.T, s *Server, id string) (*checkfarm.JobReport, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, text, err := s.Report(ctx, id)
	if err != nil {
		t.Fatalf("Report(%s): %v", id, err)
	}
	return rep, text
}

// TestLeaseExpiryRequeues pins the worker-dies-mid-shard path: the lease
// expires, the shard goes back in the queue, and a second worker
// completes the job with no degradation.
func TestLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Second, Clock: clk.Now})
	id, n, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil || n != 1 {
		t.Fatalf("Submit: %v (n=%d)", err, n)
	}

	g1 := s.Lease("w1")
	if g1 == nil || g1.Shard != 0 {
		t.Fatalf("first lease: %+v", g1)
	}
	// w1 dies: no heartbeat, no result. Before expiry no other worker
	// can steal the shard.
	if g := s.Lease("w2"); g != nil {
		t.Fatalf("shard double-leased before expiry: %+v", g)
	}
	clk.Advance(1500 * time.Millisecond)

	g2 := s.Lease("w2")
	if g2 == nil || g2.Shard != 0 || g2.LeaseID == g1.LeaseID {
		t.Fatalf("expiry did not requeue the shard: %+v", g2)
	}
	if got := s.Metrics.LeasesExpired.Load(); got != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", got)
	}
	if got := s.Metrics.ShardsRequeued.Load(); got != 1 {
		t.Fatalf("ShardsRequeued = %d, want 1", got)
	}
	// The dead worker's heartbeat (if it wakes up late) is refused.
	if s.Heartbeat(g1.LeaseID) {
		t.Fatalf("expired lease accepted a heartbeat")
	}

	res, err := g2.Spec.RunShard(context.Background(), g2.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g2.LeaseID, Worker: "w2", Result: &res}); err != nil {
		t.Fatal(err)
	}
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 0 {
		t.Fatalf("requeued-and-completed shard counted degraded:\n%s", text)
	}
	if !rep.Check[0][0].OK {
		t.Fatalf("verdict wrong after requeue: %+v", rep.Check[0][0])
	}
}

// TestLeaseExhaustionDegrades: a shard whose every grant dies becomes an
// explicit degraded artifact and the job still completes — never hangs.
func TestLeaseExhaustionDegrades(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Second, Clock: clk.Now, MaxShardAttempts: 3})
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		if g := s.Lease("doomed"); g == nil {
			t.Fatalf("attempt %d: no grant", attempt)
		}
		clk.Advance(2 * time.Second)
		s.Expire()
	}
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 1 {
		t.Fatalf("degraded count %d, want 1\n%s", rep.Degraded, text)
	}
	v := rep.Check[0][0]
	if !v.Undecided || !strings.Contains(v.Reason, "degraded") || !strings.Contains(v.Reason, "lease expired") {
		t.Fatalf("degraded artifact wrong: %+v", v)
	}
	if !strings.Contains(text, "degraded") {
		t.Fatalf("formatted report hides the degradation:\n%s", text)
	}
	if g := s.Lease("late"); g != nil {
		t.Fatalf("degraded shard re-leased: %+v", g)
	}
	st, err := s.Status(id)
	if err != nil || st.State != JobDone || st.Degraded != 1 {
		t.Fatalf("status: %+v, %v", st, err)
	}
}

// TestDuplicateResultDelivery: redelivered and stale results are
// acknowledged no-ops; the fold sees each shard exactly once.
func TestDuplicateResultDelivery(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Second, Clock: clk.Now})
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := s.Lease("w1")
	res, err := g1.Spec.RunShard(context.Background(), g1.Shard)
	if err != nil {
		t.Fatal(err)
	}
	req := ResultRequest{JobID: id, Shard: 0, LeaseID: g1.LeaseID, Worker: "w1", Result: &res}
	for i := 0; i < 3; i++ {
		if err := s.Result(req); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	if got := s.Metrics.ShardsDone.Load(); got != 1 {
		t.Fatalf("ShardsDone = %d after duplicate deliveries, want 1", got)
	}
	rep, _ := waitReport(t, s, id)
	if rep.Degraded != 0 || !rep.Check[0][0].OK {
		t.Fatalf("report wrong after duplicates: %+v", rep)
	}
}

// TestStaleResultAfterRequeue: a presumed-dead worker delivering after
// its lease expired and the shard was re-leased still resolves the shard
// (the result is valid work); the second worker's later delivery is the
// duplicate no-op.
func TestStaleResultAfterRequeue(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Second, Clock: clk.Now})
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := s.Lease("slow")
	clk.Advance(2 * time.Second)
	g2 := s.Lease("fast") // triggers expiry, re-leases shard 0
	if g2 == nil || g2.Shard != 0 {
		t.Fatalf("requeue grant: %+v", g2)
	}
	res, err := g1.Spec.RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The slow worker's stale delivery arrives first.
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g1.LeaseID, Worker: "slow", Result: &res}); err != nil {
		t.Fatal(err)
	}
	// The fast worker finishes and delivers into a done shard: no-op.
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g2.LeaseID, Worker: "fast", Result: &res}); err != nil {
		t.Fatal(err)
	}
	rep, _ := waitReport(t, s, id)
	if rep.Degraded != 0 || s.Metrics.ShardsDone.Load() != 1 {
		t.Fatalf("stale+duplicate handling wrong: degraded=%d done=%d", rep.Degraded, s.Metrics.ShardsDone.Load())
	}
	st, _ := s.Status(id)
	if st.Leased != 0 {
		t.Fatalf("leased gauge leaked: %+v", st)
	}
}

// TestStaleResultWhileRequeued: the slow worker's result arrives while
// its expired shard is still sitting in the pending queue (not yet
// re-leased). The result resolves the shard AND removes it from the
// queue — a later Lease must never grant an already-done shard (which
// would double-resolve it and fail the fold on a multi-shard job).
func TestStaleResultWhileRequeued(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Second, Clock: clk.Now})
	id, n, err := s.Submit(checkJobSpec(
		"write 1 X 1\ncommit 1\n",
		"write 1 Y 2\ncommit 1\n",
	))
	if err != nil || n != 2 {
		t.Fatalf("Submit: %v (n=%d)", err, n)
	}
	g1 := s.Lease("slow")
	if g1 == nil || g1.Shard != 0 {
		t.Fatalf("first lease: %+v", g1)
	}
	clk.Advance(2 * time.Second)
	s.Expire() // shard 0 back in the queue behind shard 1; nobody re-leases it
	res, err := g1.Spec.RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g1.LeaseID, Worker: "slow", Result: &res}); err != nil {
		t.Fatal(err)
	}
	// Only shard 1 is grantable now; shard 0 is done and must be gone
	// from the queue.
	gA := s.Lease("w2")
	if gA == nil || gA.Shard != 1 {
		t.Fatalf("expected shard 1 grant, got %+v", gA)
	}
	if gB := s.Lease("w3"); gB != nil {
		t.Fatalf("already-done shard granted again: %+v", gB)
	}
	res1, err := gA.Spec.RunShard(context.Background(), gA.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Result(ResultRequest{JobID: id, Shard: 1, LeaseID: gA.LeaseID, Worker: "w2", Result: &res1}); err != nil {
		t.Fatal(err)
	}
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 0 {
		t.Fatalf("stale-while-pending resolve degraded the job:\n%s", text)
	}
	if got := s.Metrics.ShardsDone.Load(); got != 2 {
		t.Fatalf("ShardsDone = %d, want 2", got)
	}
	st, _ := s.Status(id)
	if st.Leased != 0 || st.Done != 2 {
		t.Fatalf("gauges skewed after stale resolve: %+v", st)
	}
}

// TestStaleErrorAfterRequeue: an Err delivery from a lease that no
// longer owns the shard (it expired and the shard was requeued) is a
// no-op — no duplicate pending entry, so the shard can never be leased
// to two workers at once.
func TestStaleErrorAfterRequeue(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Second, Clock: clk.Now})
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := s.Lease("slow")
	clk.Advance(2 * time.Second)
	s.Expire() // shard 0 requeued
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g1.LeaseID, Worker: "slow", Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics.ShardsRequeued.Load(); got != 1 {
		t.Fatalf("stale Err requeued again: ShardsRequeued = %d, want 1", got)
	}
	g2 := s.Lease("w2")
	if g2 == nil || g2.Shard != 0 {
		t.Fatalf("requeued shard not grantable: %+v", g2)
	}
	if g3 := s.Lease("w3"); g3 != nil {
		t.Fatalf("shard leased twice concurrently: %+v", g3)
	}
	res, err := g2.Spec.RunShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g2.LeaseID, Worker: "w2", Result: &res}); err != nil {
		t.Fatal(err)
	}
	rep, _ := waitReport(t, s, id)
	if rep.Degraded != 0 || s.Metrics.ShardsDone.Load() != 1 {
		t.Fatalf("stale Err handling wrong: degraded=%d done=%d", rep.Degraded, s.Metrics.ShardsDone.Load())
	}
	st, _ := s.Status(id)
	if st.Leased != 0 {
		t.Fatalf("leased gauge leaked: %+v", st)
	}
}

// TestErrorResultRequeues: a worker reporting a failed computation sends
// the shard back to the queue with the attempt burned.
func TestErrorResultRequeues(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Second, Clock: clk.Now, MaxShardAttempts: 2})
	id, _, err := s.Submit(checkJobSpec("write 1 X 1\ncommit 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g := s.Lease("w1")
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g.LeaseID, Worker: "w1", Err: "shard panicked: boom"}); err != nil {
		t.Fatal(err)
	}
	g2 := s.Lease("w1")
	if g2 == nil {
		t.Fatalf("errored shard was not requeued")
	}
	// Second failure exhausts the attempts -> degraded, job completes.
	if err := s.Result(ResultRequest{JobID: id, Shard: 0, LeaseID: g2.LeaseID, Worker: "w1", Err: "shard panicked: boom"}); err != nil {
		t.Fatal(err)
	}
	rep, text := waitReport(t, s, id)
	if rep.Degraded != 1 || !strings.Contains(text, "degraded") {
		t.Fatalf("exhausted error path not degraded:\n%s", text)
	}
}

// TestDrainDegradesOutstanding: draining with shards pending and leased
// completes every job with explicit degradation artifacts — the
// coordinator never leaves a submitter hanging.
func TestDrainDegradesOutstanding(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{LeaseTTL: time.Minute, Clock: clk.Now})
	id, n, err := s.Submit(checkJobSpec(
		"write 1 X 1\ncommit 1\n",
		"write 1 Y 2\ncommit 1\n",
		"write 2 Z 3\ncommit 2\n",
	))
	if err != nil || n != 3 {
		t.Fatalf("Submit: %v (n=%d)", err, n)
	}
	// Shard 0 completes normally; shard 1 is leased to a worker that will
	// never return; shard 2 stays pending.
	g0 := s.Lease("w1")
	res, err := g0.Spec.RunShard(context.Background(), g0.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Result(ResultRequest{JobID: id, Shard: g0.Shard, LeaseID: g0.LeaseID, Result: &res}); err != nil {
		t.Fatal(err)
	}
	_ = s.Lease("vanished")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Degraded != 2 {
		t.Fatalf("drained job status: %+v", st)
	}
	if !strings.Contains(st.Formatted, "degraded") {
		t.Fatalf("drained report hides degradation:\n%s", st.Formatted)
	}
	// Draining coordinator refuses new work.
	if _, _, err := s.Submit(checkJobSpec("commit 1\n")); err == nil {
		t.Fatalf("draining coordinator accepted a job")
	}
	if g := s.Lease("w9"); g != nil {
		t.Fatalf("draining coordinator granted a lease: %+v", g)
	}
}
