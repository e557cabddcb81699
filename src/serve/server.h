// Optimization_server: production-style serving in front of the
// superoptimisers.
//
// PR 1's Optimization_service is a synchronous, caller-blocking facade;
// this is the layer that lets many clients share it. The server owns a
// bounded, policy-ordered job queue (serve/job_queue.h) and a configurable
// worker budget executed on the process-wide Thread_pool, and runs every
// job through the service — so the memo cache, the per-backend instance
// pools, and the internally-locked simulator are all shared with direct
// callers.
//
//   submit(backend, graph, request, {priority, deadline}) -> Job_handle
//
// is asynchronous: the handle supports wait / poll / cancel, and
// cancellation rides the unified API's heartbeat path (a running search
// stops at its next step and resolves with its best-so-far graph).
//
// Request coalescing: a submit whose (model hash, backend, target-device
// fingerprint, request fingerprint) matches a job that is still queued or running
// attaches to that job instead of searching again — N identical concurrent
// submits cost one search and produce N identical results. This is
// distinct from (and composes with) the service's post-hoc memo cache,
// which answers duplicates that arrive *after* the original finished. A
// coalesced arrival can raise the primary's priority and tighten its
// deadline, never lower them; its own progress callback is not invoked
// (only the primary submission's runs).
//
// Admission control: the queue is bounded; overflow rejects the newcomer
// or sheds the worst-ranked queued job (Overflow_policy). Rejected handles
// resolve immediately; wait() on them throws.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/optimization_service.h"
#include "serve/job.h"
#include "serve/job_queue.h"
#include "serve/state_store.h"
#include "serve/telemetry.h"
#include "support/fault_plan.h"
#include "support/sync.h"
#include "support/thread_pool.h"

namespace xrl {

/// Invoked after a job this server *executed* reaches a terminal state
/// (done / cancelled / failed). Jobs that resolved while still queued
/// (handle cancellation, shedding) never ran here and are not reported.
/// Called outside every server lock; exceptions are swallowed. The router
/// feeds each shard's Shard_health through this.
using Completion_hook = std::function<void(const std::string& backend, Job_state state)>;

struct Server_config {
    /// Forwarded to the owned Optimization_service (device registry,
    /// backend options, memo-cache capacity).
    Service_config service;

    /// Queue policy, overflow policy, and capacity bound.
    Job_queue_config queue;

    /// Jobs executed concurrently; 0 = the shared pool's width (at least
    /// 1). Workers are not dedicated threads — jobs are posted to the
    /// process-wide Thread_pool, which the candidate engines also use.
    std::size_t workers = 0;

    /// Construct with dispatch suspended (resume() starts execution).
    /// Tests and staged rollouts fill the queue deterministically this way.
    bool start_paused = false;

    /// Warm-start persistence. When set the server imports the store's
    /// memo snapshot at construction, snapshots the service memo table
    /// back on drain() and destruction (and periodically, below), and —
    /// unless `service.policy_store` was set explicitly — hands the store
    /// to training backends as their policy store. Shared: a router
    /// passes one store to every shard.
    std::shared_ptr<State_store> state_store;

    /// Also snapshot the memo table after every N jobs that reach a
    /// terminal state, so long-running servers bound how much warm state
    /// a crash can lose. 0 = snapshot only on drain and shutdown.
    std::size_t snapshot_every = 0;

    /// Observes executed jobs' terminal states (see Completion_hook).
    Completion_hook on_terminal;

    /// `shard` label value for this server's series in
    /// Metrics_registry::global() (xrlflow_server_*, xrlflow_job_*), which
    /// stats() reads back. The router stamps each slot's stable shard id
    /// here; a standalone server keeps the default.
    std::string metrics_shard = "0";

    /// Deterministic fault injection (support/fault_plan.h). When set, one
    /// event is consumed at `fault_site` per executed job, just before the
    /// search runs: `fail` makes the job fail as if the backend threw (the
    /// failure is never cached), `delay` stalls the worker first — the
    /// heartbeat goes quiet for the duration. Tests and benches drive
    /// shard-death scenarios through this; production leaves it null.
    std::shared_ptr<Fault_plan> fault_plan;
    std::string fault_site = "server";
};

class Optimization_server {
public:
    explicit Optimization_server(Server_config config = {});

    /// Cancels every queued job, then blocks until in-flight searches
    /// finish. Waiters of queued jobs wake with cancelled results.
    ~Optimization_server();

    Optimization_server(const Optimization_server&) = delete;
    Optimization_server& operator=(const Optimization_server&) = delete;

    /// Schedule an optimisation. Throws std::invalid_argument for a
    /// malformed request (validate_request), an unknown backend, or a
    /// negative deadline — before anything is enqueued. Never blocks on
    /// search work; a rejected submission returns a handle already in
    /// Job_state::rejected.
    Job_handle submit(const std::string& backend, const Graph& graph,
                      const Optimize_request& request = {}, const Submit_options& options = {});

    /// As submit(), with `model_hash` — exactly graph.model_hash() —
    /// precomputed by the caller. The router already paid that full-graph
    /// traversal for its routing decision; this overload keeps it from
    /// being paid twice per routed request.
    Job_handle submit_hashed(std::uint64_t model_hash, const std::string& backend,
                             const Graph& graph, const Optimize_request& request = {},
                             const Submit_options& options = {});

    /// Suspend / resume dispatch. Running jobs are unaffected; queued jobs
    /// wait. resume() is idempotent and kicks the dispatcher.
    void pause();
    void resume();

    /// Block until no job is queued or running, then — with a state store
    /// configured — snapshot the memo table into it, so a drained server's
    /// warm state is on disk before a deployment replaces it. Call
    /// resume() first if the server is paused with work queued, or this
    /// waits forever.
    void drain();

    /// Counters + latency percentiles read from the registry (see
    /// Telemetry::snapshot) plus queue depth and worker occupancy sampled
    /// just before — a job finishing between the two reads can make
    /// occupancy lag the counters by one.
    Server_stats stats() const;

    std::size_t queue_depth() const;
    std::size_t running() const;

    /// The underlying service (memo cache stats, simulator, direct calls).
    /// Direct optimize() calls are safe alongside server traffic — they
    /// share the memo cache but bypass queueing and coalescing.
    Optimization_service& service() { return service_; }

private:
    void dispatch();
    void execute(const std::shared_ptr<Job>& job);

    /// Resolve `job` as rejected unless it already reached a terminal
    /// state (a shed evictee may have been handle-cancelled first); true
    /// when this call did the rejecting.
    static bool finalise_rejected(const std::shared_ptr<Job>& job, std::string reason);

    /// Telemetry for a job that resolved without ever reaching a worker
    /// (purged corpse or already-terminal shed evictee).
    void record_queued_resolution(const std::shared_ptr<Job>& job);

    /// Under mutex_: attach one more submission to the in-flight job with
    /// this coalesce key, raising its urgency to at least (priority,
    /// deadline). Null when no such job exists or the job is no longer
    /// attachable (terminal / cancellation requested).
    std::shared_ptr<Job> try_attach_locked(const std::string& key, int priority,
                                           bool has_deadline, Job::Clock::time_point deadline)
        XRL_REQUIRES(mutex_);

    /// Under mutex_: give back `freeing` worker slots, claim as many
    /// queued jobs as the remaining budget allows (claims count as running
    /// immediately, so running_ never dips to zero while claimable work
    /// remains), and fire idle_ when truly idle. The caller posts the
    /// returned jobs *after* releasing mutex_ — and must not touch `this`
    /// afterwards if it returns empty with running_ at zero, because
    /// idle_ waiters (drain, the destructor) may free the server then.
    std::vector<std::shared_ptr<Job>> claim_replacements_locked(std::size_t freeing)
        XRL_REQUIRES(mutex_);

    Server_config config_;
    Optimization_service service_;
    Thread_pool* pool_;
    std::size_t workers_;
    Telemetry telemetry_;

    mutable Mutex mutex_{"server", Lock_rank::server};
    Cond_var idle_;
    Job_queue queue_ XRL_GUARDED_BY(mutex_);
    /// Coalesce key -> the queued/running job duplicates attach to. Entries
    /// are removed when their job resolves; later duplicates then hit the
    /// service memo cache instead.
    std::unordered_map<std::string, std::shared_ptr<Job>> inflight_ XRL_GUARDED_BY(mutex_);
    std::size_t running_ XRL_GUARDED_BY(mutex_) = 0;
    bool paused_ XRL_GUARDED_BY(mutex_) = false;
    bool shutting_down_ XRL_GUARDED_BY(mutex_) = false;
    std::uint64_t next_id_ XRL_GUARDED_BY(mutex_) = 1;
    std::uint64_t next_sequence_ XRL_GUARDED_BY(mutex_) = 0;
    /// Drives periodic snapshotting.
    std::size_t finished_since_snapshot_ XRL_GUARDED_BY(mutex_) = 0;
};

} // namespace xrl
