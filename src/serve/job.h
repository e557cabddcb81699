// Serving jobs: the unit of work Optimization_server schedules.
//
// A submit() call produces a Job — one (graph, backend, request) with a
// priority, an optional deadline, and a coalesce key — and hands back a
// Job_handle, the caller's view of it: poll / wait / cancel. Several
// handles can share one job: when an identical request arrives while the
// original is still queued or running, the server attaches the newcomer to
// the in-flight job instead of searching twice, and every attached handle
// receives the same result. *Handle* cancellation is interest-counted for
// exactly this reason — cancel() only stops the job (riding the unified
// API's heartbeat cancellation) once every handle attached to it has
// cancelled. The request's own cancellation channels are different: the
// progress callback is deliberately outside the request's identity (like
// the memo key), so if the primary submission's callback — or the time
// budget every coalesced duplicate shares, since budgets *are* part of the
// identity — stops the search, the job resolves cancelled for all waiters,
// each receiving the best-so-far result.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/optimizer_api.h"
#include "ir/graph.h"
#include "support/sync.h"

namespace xrl {

/// The underlying type is the state's wire width (poll_ok, cancel_ok).
enum class Job_state : std::uint8_t {
    queued,    ///< Admitted, waiting for a worker.
    running,   ///< A worker is executing the search.
    done,      ///< Finished; result available.
    cancelled, ///< Cancelled (queued: immediately; running: best-so-far result).
    rejected,  ///< Refused admission (queue full) or shed to make room.
    failed,    ///< The backend threw; wait() rethrows.
};

const char* to_string(Job_state state);

/// done / cancelled / rejected / failed — the states a job never leaves.
bool is_terminal(Job_state state);

/// A waiter's view of search progress. Unlike the request's own
/// Progress_callback (which only the primary submission carries, and which
/// can cancel), observers are fan-out: every handle attached to a job —
/// coalesced duplicates included — can register one, and they cannot
/// cancel the search (cancellation stays interest-counted via
/// Job_handle::cancel).
using Progress_observer = std::function<void(const Optimize_progress&)>;

/// Scheduling knobs for one submission. Priority orders the queue under
/// Queue_policy::priority (and breaks ties elsewhere). The deadline orders
/// the queue under Queue_policy::earliest_deadline — and, under *every*
/// policy, clamps the job's wall-clock budget at dequeue to the time
/// remaining: a deadline-carrying job dequeued too late resolves cancelled
/// (best-so-far) instead of burning a worker. The clamp only engages when
/// every coalesced submission carries a deadline; one no-deadline waiter
/// disarms it (that waiter is owed the full search).
struct Submit_options {
    int priority = 0;              ///< Higher runs sooner.
    double deadline_seconds = 0.0; ///< Relative to submit time; 0 = no deadline.
};

/// The shared state behind one scheduled search. Public because the queue,
/// the server, and the handle all operate on it, but user code only ever
/// sees Job_handle.
struct Job {
    using Clock = std::chrono::steady_clock;

    // -- immutable after submit -------------------------------------------
    std::uint64_t id = 0;       ///< Server-unique, 1-based.
    std::uint64_t sequence = 0; ///< Arrival order; the FIFO tie-break.
    std::string backend;
    Graph graph;
    Optimize_request request;
    std::string coalesce_key; ///< Optimization_service::memo_key of the job.
    Clock::time_point submitted{};
    /// Distributed-trace linkage, captured from the submitting thread's
    /// trace context (support/trace.h): the worker re-installs these so
    /// shard-side spans nest under the client/daemon spans. 0 = untraced.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;

    /// Read lock-free by the server's heartbeat wrapper on every search
    /// step; set once all interest is withdrawn.
    std::atomic<bool> cancel_requested{false};

    // -- guarded by mutex -------------------------------------------------
    mutable Mutex mutex{"job", Lock_rank::job};
    Cond_var changed;
    Job_state state XRL_GUARDED_BY(mutex) = Job_state::queued;
    /// Coalesced arrivals may raise this.
    int priority XRL_GUARDED_BY(mutex) = 0;
    /// Coalesced arrivals may tighten this (EDF ordering).
    Clock::time_point deadline XRL_GUARDED_BY(mutex){};
    bool has_deadline XRL_GUARDED_BY(mutex) = false;
    /// Budget-clamp bookkeeping, distinct from the *ordering* deadline
    /// above: the dequeue-time clamp may only engage when every attached
    /// submission opted into deadline semantics, and then only to the
    /// loosest of their deadlines — a no-deadline waiter is owed the full
    /// search, identical to a direct service call.
    bool every_waiter_has_deadline XRL_GUARDED_BY(mutex) = false;
    Clock::time_point latest_deadline XRL_GUARDED_BY(mutex){};
    /// Set at dequeue; clamped running jobs refuse attachments.
    bool budget_clamped XRL_GUARDED_BY(mutex) = false;
    /// Handles that still want the result.
    int interest XRL_GUARDED_BY(mutex) = 1;
    /// Latest heartbeat snapshot.
    std::optional<Optimize_progress> last_progress XRL_GUARDED_BY(mutex);
    /// Fan-out to every waiter.
    std::vector<Progress_observer> observers XRL_GUARDED_BY(mutex);
    Optimize_result result XRL_GUARDED_BY(mutex);     ///< Valid in done / cancelled.
    std::exception_ptr error XRL_GUARDED_BY(mutex);   ///< Valid in failed.
    std::string reject_reason XRL_GUARDED_BY(mutex);  ///< Valid in rejected.
    Clock::time_point started XRL_GUARDED_BY(mutex){};
    Clock::time_point finished XRL_GUARDED_BY(mutex){};

    Job_state snapshot_state() const;

    /// Withdraw one handle's interest. When the last interested handle
    /// cancels: a queued job transitions to `cancelled` on the spot (its
    /// input graph becomes the result, waiters wake immediately); a running
    /// job gets `cancel_requested` set, which the server's heartbeat turns
    /// into a backend stop at the next search step.
    void withdraw_interest();

    /// Resolve a never-started job as cancelled: the input graph becomes
    /// the result and waiters wake. Caller holds `mutex` and has checked
    /// the state is not already terminal (handle cancellation and server
    /// shutdown share this path).
    void resolve_cancelled_locked() XRL_REQUIRES(mutex);
};

/// The caller's view of a submitted job. Copyable; copies share the same
/// underlying job *and* the same cancellation ticket, so cancel() through
/// any copy withdraws that submission's interest exactly once.
class Job_handle {
public:
    Job_handle() = default;
    Job_handle(std::shared_ptr<Job> job, bool coalesced);

    bool valid() const { return job_ != nullptr; }
    std::uint64_t id() const;
    const std::string& backend() const;

    /// True when this submission attached to an earlier identical in-flight
    /// job instead of scheduling its own search.
    bool coalesced() const { return coalesced_; }

    Job_state poll() const;
    bool finished() const { return is_terminal(poll()); }

    /// Block until the job reaches a terminal state. Returns the result for
    /// `done` and `cancelled` (a cancelled search carries its best-so-far
    /// graph, exactly like direct Optimizer::optimize cancellation); throws
    /// std::runtime_error for `rejected` and rethrows the backend's
    /// exception for `failed`.
    Optimize_result wait() const;

    /// wait(), but give up after `seconds`; false = still not terminal.
    bool wait_for(double seconds) const;

    /// Streaming progress for every waiter, coalesced duplicates included:
    /// `observer` is invoked (off this caller's thread, on the search's
    /// heartbeat) for each subsequent progress snapshot of the underlying
    /// job. Unlike the request's on_progress — which only the primary
    /// submission carries — observers attach per handle and cannot cancel
    /// the search. Observers registered after the job resolved never fire;
    /// read progress() for the last snapshot instead.
    void on_progress(Progress_observer observer);

    /// The most recent progress snapshot the underlying search reported,
    /// or nullopt before its first heartbeat (or when it never ran).
    std::optional<Optimize_progress> progress() const;

    /// Withdraw this submission's interest in the result (idempotent across
    /// copies of the handle). The underlying search stops only when every
    /// coalesced submission has cancelled — see Job::withdraw_interest.
    void cancel();

private:
    std::shared_ptr<Job> job_;
    std::shared_ptr<std::atomic<bool>> cancel_ticket_;
    bool coalesced_ = false;
};

} // namespace xrl
