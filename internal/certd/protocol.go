// Package certd turns the certification farm (package checkfarm) into a
// service: a coordinator slices farm jobs — episode certifications,
// differential soak cells, exhaustive plan explorations, history batches
// — into the shards of checkfarm.JobSpec and hands them to pull-based
// workers over a lease/heartbeat protocol. Workers compute shards with
// checkfarm's RunShard and the coordinator folds the ordered results
// with checkfarm.FoldJob — the execution path the in-process farm runs
// too, so a distributed run's report is byte-identical to a local one by
// construction. Specs and shard results travel as JSON (the report types'
// own codecs: histio text for histories, stm text for plans); every /v1
// request body is bounded (maxBodyBytes, 413 past it). A second, line-oriented
// listener generalizes `ducheck -follow` to the network: each connection
// feeds a spec.Monitor incrementally and gets per-event verdicts back,
// with bounded per-stream queues and explicit backpressure.
//
// The coordinator never trusts a worker to stay alive: every grant
// carries a lease with a TTL, heartbeats extend it, and an expired lease
// requeues the shard. A shard that burns through its attempts degrades
// into the explicit artifacts of checkfarm.(JobSpec).DegradedShard — the
// PR 7 contract that a dead worker costs coverage, visibly, never a hung
// or silently-wrong run.
//
// # Job protocol (HTTP/JSON)
//
//	POST /v1/jobs       SubmitRequest  -> SubmitResponse
//	POST /v1/lease      LeaseRequest   -> LeaseGrant, or 204 (no work)
//	POST /v1/heartbeat  HeartbeatRequest -> 200, or 410 (lease gone)
//	POST /v1/result     ResultRequest  -> 200 (idempotent)
//	GET  /v1/jobs/{id}  -> JobStatus
//	GET  /healthz       -> "ok" | "draining"
//	GET  /statsz        -> StatsSnapshot
//
// # Stream protocol (line-oriented TCP)
//
// The client opens with a hello line (follow.Hello):
//
//	STREAM <criteria-csv> [retire=N] [nodelimit=N] [skipbad|strict] [lossy] [quiet]
//
// and the server answers "OK <stream-id>" or "ERR <reason>" (admission
// control: past MaxStreams every hello is refused with "ERR busy" — the
// connection-level analog of HTTP 429 — and counted in /statsz). The
// client then sends histio event lines; the server answers each accepted
// event with the `ducheck -follow` rendering (suppressed by quiet), each
// rejected line with "BAD <line> <reason>" (silent under skipbad; fatal
// "ERR line <n>: <reason>" under strict). A line longer than
// follow.MaxLineBytes fails the stream with "ERR read: line <n>: ...".
// "END" or EOF finishes the stream: the server emits the skipbad ledger
// when skipbad is set, the final per-criterion verdict lines, the
// retirement summary when retire is set, and a terminal (follow.Done)
//
//	DONE events=<n> bad=<n> dropped=<n> violations=<n>
//
// line. Per-stream memory is bounded by the monitor's retirement window
// plus a fixed-depth input queue; when the queue fills, the server
// either stops reading (default — TCP flow control pushes back on the
// producer, counted as a stall) or drops the overflow (lossy, counted
// and reported in DONE and /statsz). It never buffers without bound.
package certd

import (
	"duopacity/internal/checkfarm"
)

// SubmitRequest asks the coordinator to run a farm job.
type SubmitRequest struct {
	Spec checkfarm.JobSpec `json:"spec"`
}

// SubmitResponse acknowledges a submitted job.
type SubmitResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
}

// LeaseRequest is a worker pulling for a shard.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseGrant hands one shard to a worker under a lease. The spec arrives
// normalized: the worker computes Spec.RunShard(ctx, Shard) and posts
// the result back under the lease.
type LeaseGrant struct {
	JobID     string            `json:"job_id"`
	Shard     int               `json:"shard"`
	LeaseID   string            `json:"lease_id"`
	TTLMillis int64             `json:"ttl_millis"`
	Spec      checkfarm.JobSpec `json:"spec"`
}

// HeartbeatRequest extends a lease. A 410 response means the lease
// already expired (the shard is requeued or degraded); the worker should
// abandon the shard.
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// ResultRequest delivers a shard outcome. Err reports a failed
// computation (the shard is requeued, or degraded past its attempts);
// otherwise Result carries the computed shard. Delivery is idempotent:
// posting a result for an already-folded shard is an acknowledged no-op,
// so retried or duplicated deliveries are harmless.
type ResultRequest struct {
	JobID   string                 `json:"job_id"`
	Shard   int                    `json:"shard"`
	LeaseID string                 `json:"lease_id"`
	Worker  string                 `json:"worker,omitempty"`
	Result  *checkfarm.ShardResult `json:"result,omitempty"`
	Err     string                 `json:"err,omitempty"`
}

// Job states reported by JobStatus.
const (
	JobRunning = "running" // shards outstanding
	JobFolding = "folding" // every shard delivered; aggregation in progress
	JobDone    = "done"    // report ready
	JobFailed  = "failed"  // the fold itself errored (malformed results)
)

// JobStatus is the coordinator's view of one job. Formatted is the
// report rendered exactly as the in-process farm CLIs render it — the
// byte-identity contract travels as text (structured explore and soak
// reports hold process-local types and stay on the coordinator).
type JobStatus struct {
	ID        string              `json:"id"`
	Kind      checkfarm.ShardKind `json:"kind"`
	State     string              `json:"state"`
	Shards    int                 `json:"shards"`
	Done      int                 `json:"done"`
	Leased    int                 `json:"leased"`
	Degraded  int                 `json:"degraded"`
	Formatted string              `json:"formatted,omitempty"`
	Err       string              `json:"err,omitempty"`
}
