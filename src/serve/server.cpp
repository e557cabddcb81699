#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/trace.h"

namespace xrl {

namespace {

double seconds_between(Job::Clock::time_point from, Job::Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/// A configured state store doubles as the training backends' policy store
/// unless the caller wired one explicitly; resolved before the service is
/// constructed from this config.
Server_config with_shared_state(Server_config config)
{
    if (config.state_store != nullptr && config.service.policy_store == nullptr)
        config.service.policy_store = config.state_store;
    return config;
}

} // namespace

Optimization_server::Optimization_server(Server_config config)
    : config_(with_shared_state(std::move(config))),
      service_(config_.service),
      pool_(&Thread_pool::shared()),
      workers_(config_.workers > 0 ? config_.workers : std::max<std::size_t>(pool_->workers(), 1)),
      telemetry_(config_.metrics_shard),
      queue_(config_.queue),
      paused_(config_.start_paused)
{
    // Warm restart: whatever the store holds answers repeats immediately;
    // damaged store content degrades to a cold cache, never a throw.
    if (config_.state_store != nullptr) config_.state_store->load_memo(service_);
}

Optimization_server::~Optimization_server()
{
    std::vector<std::shared_ptr<Job>> orphans;
    {
        const Lock_guard lock(mutex_);
        shutting_down_ = true;
        orphans = queue_.drain();
    }
    for (const std::shared_ptr<Job>& job : orphans) {
        {
            const Lock_guard job_lock(job->mutex);
            if (!is_terminal(job->state)) job->resolve_cancelled_locked();
        }
        // Orphans never reached a worker, so this is their only recording.
        record_queued_resolution(job);
    }
    {
        Unique_lock lock(mutex_);
        idle_.wait(lock, [this]() XRL_REQUIRES(mutex_) { return running_ == 0; });
    }
    // Final snapshot: everything the memo table learned this lifetime is
    // on disk before the service is torn down.
    if (config_.state_store != nullptr) config_.state_store->save_memo(service_);
}

bool Optimization_server::finalise_rejected(const std::shared_ptr<Job>& job, std::string reason)
{
    const Lock_guard job_lock(job->mutex);
    // A queued job can already be terminal (handle-cancelled) by the time
    // it is shed; its waiters saw that outcome — never rewrite it.
    if (is_terminal(job->state)) return false;
    job->state = Job_state::rejected;
    job->reject_reason = std::move(reason);
    job->finished = Job::Clock::now();
    job->observers.clear(); // break potential handle-capture cycles
    job->changed.notify_all();
    return true;
}

std::shared_ptr<Job> Optimization_server::try_attach_locked(const std::string& key, int priority,
                                                            bool has_deadline,
                                                            Job::Clock::time_point deadline)
{
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) return nullptr;
    const std::shared_ptr<Job>& primary = it->second;
    const Lock_guard job_lock(primary->mutex);
    const bool attachable =
        (primary->state == Job_state::queued || primary->state == Job_state::running) &&
        !primary->cancel_requested.load(std::memory_order_relaxed) &&
        // A running search whose budget was actually tightened to a
        // deadline may resolve truncated; a newcomer *without* a deadline
        // is owed a direct-call-identical result, so it schedules its own
        // search instead of attaching. A deadline-carrying newcomer opted
        // into SLA semantics and may attach.
        (!primary->budget_clamped || has_deadline);
    if (!attachable) return nullptr;
    ++primary->interest;
    // A duplicate arrival can only raise urgency (EDF ordering)...
    primary->priority = std::max(primary->priority, priority);
    if (has_deadline && (!primary->has_deadline || deadline < primary->deadline)) {
        primary->has_deadline = true;
        primary->deadline = deadline;
    }
    // ...but the *budget clamp* must honour the least demanding waiter: it
    // stays armed only while every attached submission has a deadline, and
    // tracks the loosest one.
    primary->every_waiter_has_deadline = primary->every_waiter_has_deadline && has_deadline;
    if (has_deadline && deadline > primary->latest_deadline) primary->latest_deadline = deadline;
    return primary;
}

void Optimization_server::record_queued_resolution(const std::shared_ptr<Job>& job)
{
    double latency_seconds = 0.0;
    Job_state terminal;
    {
        const Lock_guard job_lock(job->mutex);
        terminal = job->state;
        latency_seconds = seconds_between(job->submitted, job->finished);
    }
    telemetry_.on_finish(job->backend, terminal, latency_seconds, /*busy_seconds=*/0.0,
                         /*from_cache=*/false);
}

Job_handle Optimization_server::submit(const std::string& backend, const Graph& graph,
                                       const Optimize_request& request,
                                       const Submit_options& options)
{
    return submit_hashed(graph.model_hash(), backend, graph, request, options);
}

Job_handle Optimization_server::submit_hashed(std::uint64_t model_hash, const std::string& backend,
                                              const Graph& graph, const Optimize_request& request,
                                              const Submit_options& options)
{
    validate_request(request, service_.devices()); // budgets + target device
    if (!std::ranges::binary_search(backend_names(), backend)) {
        std::ostringstream os;
        os << "unknown optimizer backend '" << backend << "'; registered backends:";
        for (const std::string& name : backend_names()) os << ' ' << name;
        throw std::invalid_argument(os.str());
    }
    // NaN fails the first comparison; the cap keeps the duration_cast to
    // steady_clock ticks below int64 overflow (1e9 s is ~31 years).
    if (!(options.deadline_seconds >= 0.0) || options.deadline_seconds > 1e9)
        throw std::invalid_argument("invalid Submit_options: deadline_seconds = " +
                                    std::to_string(options.deadline_seconds) +
                                    " (must be in [0, 1e9]; 0 means no deadline)");

    const auto now = Job::Clock::now();
    // The coalesce key carries the resolved device fingerprint: identical
    // graphs targeting different accelerators are different work and must
    // neither coalesce nor share memo entries.
    const std::string key = service_.request_key(model_hash, backend, request);
    bool has_deadline = false;
    Job::Clock::time_point deadline{};
    if (options.deadline_seconds > 0.0) {
        has_deadline = true;
        deadline = now + std::chrono::duration_cast<Job::Clock::duration>(
                             std::chrono::duration<double>(options.deadline_seconds));
    }

    // Fast path: attach to an in-flight duplicate before building
    // anything — a coalesced submit costs a hash probe, not a graph copy.
    {
        const Lock_guard lock(mutex_);
        if (shutting_down_)
            throw std::runtime_error("Optimization_server::submit during shutdown");
        telemetry_.on_submit(backend);
        if (std::shared_ptr<Job> primary =
                try_attach_locked(key, options.priority, has_deadline, deadline)) {
            telemetry_.on_coalesce();
            return Job_handle(std::move(primary), /*coalesced=*/true);
        }
    }

    // Build the job — including the full-graph copy — outside the server
    // mutex, so admission's critical section is map/queue work only and
    // submits never serialize on graph copies.
    std::shared_ptr<Job> job = std::make_shared<Job>();
    job->backend = backend;
    job->graph = graph;
    job->request = request;
    job->coalesce_key = key;
    job->submitted = now;
    // Capture the submitting thread's trace context: the worker thread
    // re-installs it in execute() so shard-side spans join the job's tree.
    const Trace_context trace = current_trace();
    job->trace_id = trace.trace_id;
    job->parent_span = trace.span_id;
    job->priority = options.priority;
    job->has_deadline = has_deadline;
    job->deadline = deadline;
    job->every_waiter_has_deadline = has_deadline;
    job->latest_deadline = deadline;

    std::shared_ptr<Job> shed;
    std::vector<std::shared_ptr<Job>> purged;
    bool coalesced = false;
    bool admitted = false;
    {
        const Lock_guard lock(mutex_);
        if (shutting_down_)
            throw std::runtime_error("Optimization_server::submit during shutdown");

        // An identical submit may have been admitted while the copy ran;
        // attach to it rather than racing it into the queue.
        if (std::shared_ptr<Job> primary =
                try_attach_locked(key, options.priority, has_deadline, deadline)) {
            job = std::move(primary); // the speculative job is discarded
            coalesced = true;
            telemetry_.on_coalesce();
        }

        if (!coalesced) {
            // Jobs that resolved while queued (handle-cancelled) must not
            // consume capacity or be shed as if they were live work.
            purged = queue_.purge_terminal();
            for (const std::shared_ptr<Job>& corpse : purged) {
                const auto it = inflight_.find(corpse->coalesce_key);
                if (it != inflight_.end() && it->second == corpse) inflight_.erase(it);
            }

            job->id = next_id_++;
            job->sequence = next_sequence_++;

            Job_queue::Admission admission = queue_.push(job);
            admitted = admission.admitted;
            shed = std::move(admission.shed);
            if (admitted) {
                inflight_[key] = job;
                if (shed != nullptr) {
                    const auto it = inflight_.find(shed->coalesce_key);
                    if (it != inflight_.end() && it->second == shed) inflight_.erase(it);
                }
                telemetry_.on_occupancy(queue_.size(), running_);
            } else {
                telemetry_.on_reject(/*shed=*/false);
            }
        }
    }

    // Purged corpses never reach a worker; record their outcomes here.
    for (const std::shared_ptr<Job>& corpse : purged) record_queued_resolution(corpse);
    if (shed != nullptr) {
        // The evictee may have resolved (handle cancellation) between the
        // purge above and the eviction; record what actually happened.
        if (finalise_rejected(shed, "shed from a full queue (capacity " +
                                        std::to_string(config_.queue.capacity) +
                                        ") by a better-ranked arrival"))
            telemetry_.on_reject(/*shed=*/true);
        else
            record_queued_resolution(shed);
    }
    if (!coalesced && !admitted)
        finalise_rejected(job, "queue full (capacity " + std::to_string(config_.queue.capacity) +
                                   ", policy " + to_string(config_.queue.policy) + ")");
    if (!coalesced && admitted) dispatch();
    return Job_handle(std::move(job), coalesced);
}

std::vector<std::shared_ptr<Job>> Optimization_server::claim_replacements_locked(std::size_t freeing)
{
    std::vector<std::shared_ptr<Job>> claimed;
    while (!paused_ && !shutting_down_ && (running_ - freeing) + claimed.size() < workers_ &&
           !queue_.empty())
        claimed.push_back(queue_.pop_best());
    running_ = running_ - freeing + claimed.size();
    telemetry_.on_occupancy(queue_.size(), running_);
    if (running_ == 0 && queue_.empty()) idle_.notify_all();
    return claimed;
}

void Optimization_server::dispatch()
{
    std::vector<std::shared_ptr<Job>> claimed;
    {
        const Lock_guard lock(mutex_);
        claimed = claim_replacements_locked(0);
    }
    // Posted outside the lock: with a zero-worker pool, post() degrades to
    // inline execution, and execute() re-enters mutex_.
    for (std::shared_ptr<Job>& job : claimed)
        pool_->post([this, job = std::move(job)] { execute(job); });
}

void Optimization_server::execute(const std::shared_ptr<Job>& job)
{
    bool run_search = false;
    bool clamp_to_deadline = false;
    double deadline_remaining_seconds = 0.0;
    {
        const Lock_guard job_lock(job->mutex);
        if (job->state == Job_state::queued) {
            job->state = Job_state::running;
            job->started = Job::Clock::now();
            run_search = true;
            // The clamp engages only when *every* attached submission asked
            // for deadline semantics, and honours the loosest of their
            // deadlines — a no-deadline waiter is owed the full search.
            // budget_clamped is recorded only when the clamp actually
            // tightens the budget (unlimited, or longer than the time
            // left): a generous deadline stays a no-op and keeps the job
            // attachable to everyone.
            if (job->every_waiter_has_deadline) {
                deadline_remaining_seconds =
                    std::chrono::duration<double>(job->latest_deadline - job->started).count();
                const double budget = job->request.time_budget_seconds;
                if (budget == 0.0 || deadline_remaining_seconds < budget) {
                    clamp_to_deadline = true;
                    job->budget_clamped = true; // deadline-free attachments now refused
                }
            }
        }
        // Otherwise the job resolved while queued (handle cancellation);
        // this worker only does the bookkeeping below.
    }

    bool from_cache = false;
    if (run_search) {
        // Chain cancellation in front of the submitter's own callback: the
        // heartbeat the backends already poll stops the search as soon as
        // every attached handle has withdrawn interest. The same wrapper
        // fans each snapshot out to every waiter: it is recorded on the job
        // (Job_handle::progress) and forwarded to the observers coalesced
        // duplicates registered (Job_handle::on_progress) — only the
        // primary's own callback keeps its cancellation vote.
        Optimize_request request = job->request;
        const Progress_callback user_callback = job->request.on_progress;
        const std::shared_ptr<Job> tracked = job;
        request.on_progress = [tracked, user_callback](const Optimize_progress& progress) {
            std::vector<Progress_observer> observers;
            {
                const Lock_guard job_lock(tracked->mutex);
                tracked->last_progress = progress;
                observers = tracked->observers;
            }
            // Invoked outside the job mutex: an observer may poll() or read
            // progress() through its handle without deadlocking. Observers
            // are fan-out only — one waiter's faulty observer must not
            // fail (or cancel) the search every other waiter shares.
            for (const Progress_observer& observer : observers) {
                try {
                    observer(progress);
                } catch (...) {
                    // Swallowed by contract; the job's outcome belongs to
                    // the search, not to a spectator.
                }
            }
            if (tracked->cancel_requested.load(std::memory_order_relaxed)) return false;
            return user_callback ? user_callback(progress) : true;
        };

        // Queue-aware budget: EDF ordering alone cannot keep a deadline —
        // a job dequeued with little time left would still run its full
        // budget. Clamp the wall-clock budget to the time remaining before
        // the (possibly coalesce-tightened) deadline; a job dequeued past
        // its deadline expires at its first heartbeat and resolves
        // cancelled with its best-so-far (input) graph. Completed clamped
        // runs are identical to unclamped ones (the budget never fired),
        // and cut-short runs are cancelled — never cached — so the memo
        // key's original budget stays honest.
        if (clamp_to_deadline) {
            const double remaining = std::max(deadline_remaining_seconds, 1e-9);
            request.time_budget_seconds = request.time_budget_seconds > 0.0
                                              ? std::min(request.time_budget_seconds, remaining)
                                              : remaining;
        }

        Optimize_result result;
        std::exception_ptr error;
        {
            // Join the job's trace on this worker thread: optimizer-level
            // spans (candidate-engine phases, rollout steps) nest under
            // "shard/execute", which itself parents under the daemon/router
            // span recorded at submit. The scope closes before the terminal
            // transition below, so once a waiter observes the outcome the
            // span is already in the buffer.
            Trace_scope trace_scope(job->trace_id, job->parent_span);
            Span_scope span("shard/execute");
            if (span.active()) {
                span.annotate("job_id", std::to_string(job->id));
                span.annotate("backend", job->backend);
            }
            try {
                // Deterministic fault injection: one event per executed job.
                // `fail` surfaces exactly like a backend throw — Job_state::failed,
                // never cached — so the breaker and retry paths above exercise
                // the same machinery a real sick shard would.
                if (config_.fault_plan != nullptr) {
                    double delay_seconds = 0.0;
                    const Fault_action action =
                        config_.fault_plan->next(config_.fault_site, &delay_seconds);
                    if (action == Fault_action::delay && delay_seconds > 0.0)
                        std::this_thread::sleep_for(std::chrono::duration<double>(delay_seconds));
                    if (action == Fault_action::fail)
                        throw std::runtime_error("injected fault: shard '" + config_.fault_site +
                                                 "' failed this job");
                }
                result =
                    service_.optimize_keyed(job->coalesce_key, job->backend, job->graph, request);
            } catch (...) {
                error = std::current_exception();
            }
        }

        Job_state terminal_state;
        {
            const Lock_guard job_lock(job->mutex);
            job->finished = Job::Clock::now();
            if (error != nullptr) {
                job->error = error;
                job->state = Job_state::failed;
            } else {
                from_cache = result.from_cache;
                job->result = std::move(result);
                job->state = job->result.cancelled ? Job_state::cancelled : Job_state::done;
            }
            terminal_state = job->state;
            // Observers never fire after the terminal transition; release them
            // so an observer that captured its own Job_handle cannot keep the
            // job alive in a shared_ptr cycle.
            job->observers.clear();
            // Record telemetry before waking waiters: a caller reading stats()
            // right after wait() returns must see this job counted.
            telemetry_.on_finish(job->backend, job->state,
                                 seconds_between(job->submitted, job->finished),
                                 seconds_between(job->started, job->finished), from_cache);
            job->changed.notify_all();
        }
        // The completion hook sees only jobs that actually ran here, after
        // waiters can already observe the outcome. Outside the job mutex —
        // the hook (breaker bookkeeping, user callbacks) must not deadlock
        // against handle operations.
        if (config_.on_terminal) {
            try {
                config_.on_terminal(job->backend, terminal_state);
            } catch (...) {
                // A spectator must not take down the worker.
            }
        }
    } else {
        // Resolved while queued (handle cancellation); waiters woke back
        // then — this worker only records the outcome.
        record_queued_resolution(job);
    }

    // Periodic snapshotting, while this worker still counts as running —
    // once the slot below is released, an idle-waiting destructor may free
    // the server, so the store must not be touched after that.
    if (config_.state_store != nullptr && config_.snapshot_every > 0) {
        bool snapshot_due = false;
        {
            const Lock_guard lock(mutex_);
            if (++finished_since_snapshot_ >= config_.snapshot_every) {
                finished_since_snapshot_ = 0;
                snapshot_due = true;
            }
        }
        if (snapshot_due) config_.state_store->save_memo(service_);
    }

    std::vector<std::shared_ptr<Job>> claimed;
    {
        const Lock_guard lock(mutex_);
        const auto it = inflight_.find(job->coalesce_key);
        if (it != inflight_.end() && it->second == job) inflight_.erase(it);
        XRL_ASSERT(running_ > 0);
        claimed = claim_replacements_locked(1);
    }
    for (std::shared_ptr<Job>& next : claimed)
        pool_->post([this, next = std::move(next)] { execute(next); });
}

void Optimization_server::pause()
{
    const Lock_guard lock(mutex_);
    paused_ = true;
}

void Optimization_server::resume()
{
    {
        const Lock_guard lock(mutex_);
        paused_ = false;
    }
    dispatch();
}

void Optimization_server::drain()
{
    {
        Unique_lock lock(mutex_);
        idle_.wait(lock, [this]() XRL_REQUIRES(mutex_) { return running_ == 0 && queue_.empty(); });
    }
    if (config_.state_store != nullptr) config_.state_store->save_memo(service_);
}

Server_stats Optimization_server::stats() const
{
    std::size_t depth = 0;
    std::size_t active = 0;
    std::size_t inflight = 0;
    {
        const Lock_guard lock(mutex_);
        depth = queue_.size();
        active = running_;
        inflight = inflight_.size();
    }
    return telemetry_.snapshot(depth, active, inflight);
}

std::size_t Optimization_server::queue_depth() const
{
    const Lock_guard lock(mutex_);
    return queue_.size();
}

std::size_t Optimization_server::running() const
{
    const Lock_guard lock(mutex_);
    return running_;
}

} // namespace xrl
