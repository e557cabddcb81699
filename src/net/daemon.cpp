#include "net/daemon.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace xrl {

namespace {

/// The fleet store alias: hand Daemon_config::state_store to the router
/// config when the latter did not bring its own — and likewise the fault
/// plan, so one plan covers the shards and the wire.
Router_config resolved_router_config(Daemon_config& config)
{
    if (config.state_store != nullptr && config.router.state_store == nullptr)
        config.router.state_store = config.state_store;
    if (config.fault_plan != nullptr && config.router.fault_plan == nullptr)
        config.router.fault_plan = config.fault_plan;
    return config.router;
}

} // namespace

Daemon::Daemon(Daemon_config config)
    : config_(std::move(config)),
      router_(resolved_router_config(config_)),
      listener_(config_.host, config_.port),
      port_(listener_.port()),
      pool_(&Thread_pool::shared())
{
    accept_thread_ = std::thread([this] { accept_loop(); });
}

Daemon::~Daemon()
{
    stop();
}

void Daemon::stop()
{
    {
        const Lock_guard lock(mutex_);
        stopping_ = true;
    }
    // Idempotent by construction: every step below tolerates re-running
    // (the destructor re-stops after an explicit stop()).
    // Wake the accept thread (shutdown, not close: the fd number stays
    // ours until the listener is destroyed, so no new socket can alias it
    // while accept() is still waking up).
    listener_.close();
    if (accept_thread_.joinable()) accept_thread_.join();

    // Let in-flight session turns observe stopping_ and retire. Turns are
    // short by design (one readiness poll / one frame), except drain —
    // which finishes because the fleet keeps executing below us.
    {
        Unique_lock lock(mutex_);
        sessions_done_.wait(lock, [this]() XRL_REQUIRES(mutex_) { return active_sessions_ == 0; });
    }

    // The SIGTERM contract: finish what was admitted, then put warm state
    // on disk so a restarted daemon starts warm.
    router_.drain();
    router_.save_state();
}

Daemon_wire_stats Daemon::stats() const
{
    Daemon_wire_stats out;
    out.connections_accepted = connections_accepted_.value();
    out.connections_rejected = connections_rejected_.value();
    out.frames_received = frames_received_.value();
    out.protocol_errors = protocol_errors_.value();
    out.jobs_submitted = jobs_submitted_.value();
    out.jobs_deduplicated = jobs_deduplicated_.value();
    const Lock_guard lock(mutex_);
    out.connections_active = active_sessions_;
    out.jobs_retained = jobs_.size();
    return out;
}

// ---------------------------------------------------------------------------
// Accept path
// ---------------------------------------------------------------------------

void Daemon::accept_loop()
{
    for (;;) {
        std::optional<Connection> connection;
        try {
            connection = listener_.accept(config_.timeouts);
        } catch (const Net_error&) {
            continue; // One failed handshake must not stop the daemon.
        }
        if (!connection.has_value()) return; // Listener closed: stopping.
        start_session(std::move(*connection));
    }
}

void Daemon::start_session(Connection connection)
{
    std::shared_ptr<Session> session;
    {
        const Lock_guard lock(mutex_);
        if (stopping_) return; // Dropped: the peer sees a clean close.
        if (active_sessions_ >= config_.max_connections) {
            connections_rejected_.increment();
        } else {
            connections_accepted_.increment();
            connections_active_gauge_.set(static_cast<double>(++active_sessions_));
            session = std::make_shared<Session>();
            session->connection = std::move(connection);
            if (config_.fault_plan != nullptr)
                session->connection.set_fault_plan(config_.fault_plan, "daemon/send");
            session->id = next_session_id_++;
        }
    }
    if (session == nullptr) {
        // Over capacity: a typed refusal, then close. Best-effort — the
        // peer may already be gone.
        try {
            write_frame(connection, protocol_version, Pdu_type::error,
                        encode(Error_pdu{Protocol_error_code::busy,
                                      "connection limit reached (" +
                                          std::to_string(config_.max_connections) + ")",
                                      retryable(Protocol_error_code::busy)}));
        } catch (const Net_error&) {
        }
        return;
    }
    pool_->post([this, session] { session_turn(session); });
}

void Daemon::finish_session(const std::shared_ptr<Session>& session)
{
    session->connection.close();
    const Lock_guard lock(mutex_);
    XRL_ASSERT(active_sessions_ > 0);
    connections_active_gauge_.set(static_cast<double>(--active_sessions_));
    sessions_done_.notify_all();
}

// ---------------------------------------------------------------------------
// Session turns
// ---------------------------------------------------------------------------

void Daemon::session_turn(const std::shared_ptr<Session>& session)
{
    bool stopping = false;
    {
        const Lock_guard lock(mutex_);
        stopping = stopping_;
    }
    if (stopping) {
        finish_session(session);
        return;
    }

    // Cooperative turn: a short readiness poll, at most one frame, then
    // yield the worker back to the pool. Idle connections cost one poll
    // per turn, never a parked thread.
    bool ready = false;
    try {
        ready = session->connection.readable(idle_poll_seconds);
    } catch (const Net_error&) {
        finish_session(session);
        return;
    }
    if (!ready) {
        pool_->post([this, session] { session_turn(session); });
        return;
    }

    std::optional<Frame> frame;
    try {
        frame = read_frame(session->connection);
    } catch (const Protocol_error& error) {
        // Framing damage: the stream can no longer be trusted. Name the
        // failure, then close.
        protocol_errors_.increment();
        send_error(*session, error.code(), error.what());
        finish_session(session);
        return;
    } catch (const Net_error&) {
        finish_session(session);
        return;
    }
    if (!frame.has_value()) { // Clean hangup at a frame boundary.
        finish_session(session);
        return;
    }

    frames_received_.increment();

    bool keep = false;
    try {
        keep = handle_frame(session, *frame);
    } catch (const Net_error&) {
        keep = false; // Reply send failed: the peer is gone.
    }
    if (!keep) {
        finish_session(session);
        return;
    }
    pool_->post([this, session] { session_turn(session); });
}

bool Daemon::handle_frame(const std::shared_ptr<Session>& session, const Frame& frame)
{
    if (!session->negotiated) return handle_hello(session, frame);

    if (frame.version != session->version) {
        protocol_errors_.increment();
        send_error(*session, Protocol_error_code::unsupported_version,
                   "frame version " + std::to_string(frame.version) +
                       " on a connection that negotiated version " +
                       std::to_string(session->version));
        return true; // Framing is intact; the client may recover.
    }

    Reply reply;
    try {
        reply = dispatch(frame);
    } catch (const Protocol_error& error) {
        protocol_errors_.increment();
        send_error(*session, error.code(), error.what());
        return true; // Payload-level failure; the stream itself is fine.
    }
    write_frame(session->connection, session->version, reply.type, reply.payload);
    return true;
}

bool Daemon::handle_hello(const std::shared_ptr<Session>& session, const Frame& frame)
{
    // The handshake is strict: anything but a well-formed hello framed as
    // version 1 closes the connection — there is no negotiated state to
    // recover into.
    const auto fail = [&](Protocol_error_code code, const std::string& message) {
        protocol_errors_.increment();
        send_error(*session, code, message);
        return false;
    };

    if (frame.type != Pdu_type::hello)
        return fail(Protocol_error_code::bad_payload,
                    std::string("expected hello as the first frame, got ") + to_string(frame.type));
    if (frame.version != 1)
        return fail(Protocol_error_code::unsupported_version,
                    "hello frames must be framed as version 1, got " +
                        std::to_string(frame.version));

    Hello hello;
    try {
        hello = decode<Hello>(frame.payload);
    } catch (const Protocol_error& error) {
        return fail(error.code(), error.what());
    }
    if (hello.proposed_version < 1)
        return fail(Protocol_error_code::unsupported_version, "client proposed version 0");

    session->version = std::min<std::uint8_t>(hello.proposed_version, protocol_version);
    session->negotiated = true;

    Hello_ok ok;
    ok.negotiated_version = session->version;
    ok.server_protocol_version = protocol_version;
    ok.server_name = config_.server_name;
    ok.shard_count = static_cast<std::uint32_t>(router_.shard_count());
    ok.backends = router_.shard(0).service().backends();
    write_frame(session->connection, session->version, Pdu_type::hello_ok, encode(ok));
    return true;
}

// ---------------------------------------------------------------------------
// PDU handlers
// ---------------------------------------------------------------------------

Daemon::Reply Daemon::dispatch(const Frame& frame)
{
    switch (frame.type) {
    case Pdu_type::submit: return handle_submit(frame.payload);
    case Pdu_type::batch_submit: return handle_batch(frame.payload);
    case Pdu_type::poll: return handle_poll(frame.payload);
    case Pdu_type::cancel: return handle_cancel(frame.payload);
    case Pdu_type::stats: return handle_stats();
    case Pdu_type::drain: return handle_drain();
    case Pdu_type::metrics: return handle_metrics();
    case Pdu_type::trace: return handle_trace(frame.payload);
    case Pdu_type::hello:
        throw Protocol_error(Protocol_error_code::bad_payload,
                             "hello after the handshake completed");
    default:
        // Daemon-to-client PDUs (submit_ok, poll_ok, ...) arriving at the
        // daemon: known bytes, wrong direction.
        throw Protocol_error(Protocol_error_code::bad_payload,
                             std::string("unexpected PDU at the daemon: ") +
                                 to_string(frame.type));
    }
}

Job_handle Daemon::routed_submit(const std::string& backend, const Graph& graph,
                                 const Optimize_request& request, const Submit_options& options)
{
    {
        const Lock_guard lock(mutex_);
        if (stopping_)
            throw Protocol_error(Protocol_error_code::shutting_down, "daemon is stopping");
    }
    try {
        return router_.submit(backend, graph, request, options);
    } catch (const std::invalid_argument& error) {
        throw Protocol_error(Protocol_error_code::invalid_request, error.what());
    } catch (const std::runtime_error& error) {
        // The shard refused for operational reasons (shutdown mid-submit).
        throw Protocol_error(Protocol_error_code::shutting_down, error.what());
    }
}

Daemon::Reply Daemon::handle_submit(std::string_view payload)
{
    const Submit submit = decode<Submit>(payload);
    if (std::optional<Reply> replay = find_keyed_reply(submit.request_key); replay.has_value())
        return std::move(*replay);
    // Install the client-stamped trace context for the whole admission:
    // the router span and the shard's job capture both nest under it.
    const Trace_scope trace_scope(submit.trace_id, submit.parent_span);
    Span_scope span("daemon/submit");
    if (span.active()) span.annotate("backend", submit.backend);
    const Submit_options options{static_cast<int>(submit.priority), submit.deadline_seconds};
    std::vector<Job_handle> handles;
    handles.push_back(routed_submit(submit.backend, submit.graph, submit.request, options));
    return register_envelope(std::move(handles), submit.request_key, Pdu_type::submit_ok);
}

Daemon::Reply Daemon::handle_batch(std::string_view payload)
{
    const Batch_submit batch = decode<Batch_submit>(payload);
    if (std::optional<Reply> replay = find_keyed_reply(batch.request_key); replay.has_value())
        return std::move(*replay);
    if (batch.entries.empty())
        throw Protocol_error(Protocol_error_code::invalid_request,
                             "batch_submit carries no entries");
    // One trace for the whole envelope: every entry's job shares it.
    const Trace_scope trace_scope(batch.trace_id, batch.parent_span);
    Span_scope span("daemon/batch_submit");
    if (span.active()) span.annotate("entries", std::to_string(batch.entries.size()));

    // The deployment contract: one envelope for the whole model set.
    // Entries without their own wall budget split the batch budget evenly;
    // deadline and priority apply to every entry.
    const double shared_budget =
        batch.budget_seconds > 0.0
            ? batch.budget_seconds / static_cast<double>(batch.entries.size())
            : 0.0;
    const Submit_options options{static_cast<int>(batch.priority), batch.deadline_seconds};

    std::vector<Job_handle> handles;
    handles.reserve(batch.entries.size());
    try {
        for (const Batch_submit::Entry& entry : batch.entries) {
            Optimize_request request = entry.request;
            if (request.time_budget_seconds <= 0.0 && shared_budget > 0.0)
                request.time_budget_seconds = shared_budget;
            handles.push_back(routed_submit(entry.backend, entry.graph, request, options));
        }
    } catch (...) {
        // All-or-nothing admission: withdraw the partial batch so a
        // rejected deployment does not leave half its models searching.
        for (Job_handle& handle : handles) handle.cancel();
        throw;
    }
    return register_envelope(std::move(handles), batch.request_key, Pdu_type::batch_ok);
}

Daemon::Reply Daemon::handle_poll(std::string_view payload)
{
    const Poll poll = decode<Poll>(payload);
    Job_handle handle;
    {
        const Lock_guard lock(mutex_);
        const auto it = jobs_.find(poll.job_id);
        if (it == jobs_.end())
            throw Protocol_error(Protocol_error_code::unknown_job,
                                 "unknown job id " + std::to_string(poll.job_id));
        handle = it->second.handle;
    }

    // Bounded server-side wait: a worker may sit here briefly, never for
    // the client's whole patience — long polls are the client's loop.
    const double wait = std::min(std::max(poll.wait_seconds, 0.0), poll_wait_cap_seconds);
    if (wait > 0.0 && !handle.finished()) handle.wait_for(wait);

    Poll_ok ok;
    ok.job_id = poll.job_id;
    ok.state = handle.poll();
    ok.progress = handle.progress();
    if (ok.state == Job_state::done || ok.state == Job_state::cancelled) {
        ok.result = handle.wait();
    } else if (ok.state == Job_state::rejected || ok.state == Job_state::failed) {
        try {
            handle.wait();
        } catch (const std::exception& error) {
            ok.message = error.what();
        }
    }
    return {Pdu_type::poll_ok, encode(ok)};
}

Daemon::Reply Daemon::handle_cancel(std::string_view payload)
{
    const Cancel cancel = decode<Cancel>(payload);
    Job_handle handle;
    {
        const Lock_guard lock(mutex_);
        const auto it = jobs_.find(cancel.job_id);
        if (it == jobs_.end())
            throw Protocol_error(Protocol_error_code::unknown_job,
                                 "unknown job id " + std::to_string(cancel.job_id));
        handle = it->second.handle;
    }
    // The wire submission owns exactly one interest; cancelling through a
    // copy withdraws it once (Job_handle's ticket semantics).
    handle.cancel();
    return {Pdu_type::cancel_ok, encode(Cancel_ok{cancel.job_id, handle.poll()})};
}

Daemon::Reply Daemon::handle_stats()
{
    Stats_ok ok;
    ok.router = router_.stats();
    ok.daemon = stats();
    return {Pdu_type::stats_ok, encode(ok)};
}

Daemon::Reply Daemon::handle_drain()
{
    // One administrative drain at a time: losers get a typed `busy`
    // rather than a second parked worker.
    const Try_lock admin(admin_mutex_);
    if (!admin.owns_lock())
        throw Protocol_error(Protocol_error_code::busy, "a drain is already in progress");
    router_.drain();
    router_.save_state();
    return {Pdu_type::drain_ok, {}};
}

Daemon::Reply Daemon::handle_metrics()
{
    // Scrape-time refresh: router_.stats() re-publishes the slow gauges
    // (uptime, shard count, per-shard breaker state); every counter is
    // already current.
    router_.stats();
    return {Pdu_type::metrics_ok, encode(Metrics_ok{Metrics_registry::global().expose()})};
}

Daemon::Reply Daemon::handle_trace(std::string_view payload)
{
    const Trace_request request = decode<Trace_request>(payload);
    std::uint64_t trace_id = request.trace_id;
    if (request.job_id != 0) {
        const Lock_guard lock(mutex_);
        const auto it = jobs_.find(request.job_id);
        if (it == jobs_.end())
            throw Protocol_error(Protocol_error_code::unknown_job,
                                 "unknown job id " + std::to_string(request.job_id));
        trace_id = it->second.trace_id;
    }
    Trace_ok ok;
    ok.trace_id = trace_id;
    // trace_id 0 (no job filter either) dumps the whole buffer — the
    // operator's "what has this daemon been doing" view.
    ok.spans = Trace_buffer::global().spans_for(trace_id);
    return {Pdu_type::trace_ok, encode(ok)};
}

// ---------------------------------------------------------------------------
// Job table
// ---------------------------------------------------------------------------

std::optional<Daemon::Reply> Daemon::find_keyed_reply(std::uint64_t request_key)
{
    if (request_key == 0) return std::nullopt;
    const Lock_guard lock(mutex_);
    const auto it = keyed_replies_.find(request_key);
    if (it == keyed_replies_.end()) return std::nullopt;
    // Replay the stored bytes verbatim: the retry observes exactly the
    // reply its lost original carried (same wire job id, same flags).
    jobs_deduplicated_.increment();
    return it->second.reply;
}

Daemon::Reply Daemon::register_envelope(std::vector<Job_handle> handles,
                                        std::uint64_t request_key, Pdu_type reply_type)
{
    const Lock_guard lock(mutex_);
    // A concurrent twin carrying the same key registered first and owns
    // it; this envelope's reply is then not stored.
    if (keyed_replies_.contains(request_key)) request_key = 0;
    const std::uint64_t first_id = next_job_id_;
    Batch_ok ok;
    ok.jobs.reserve(handles.size());
    for (Job_handle& handle : handles) {
        const std::uint64_t id = next_job_id_++;
        ok.jobs.push_back({id, handle.coalesced()});
        jobs_.emplace(id, Job_entry{std::move(handle), request_key, current_trace().trace_id});
        jobs_submitted_.increment();
    }
    Reply reply{reply_type,
                reply_type == Pdu_type::submit_ok ? encode(ok.jobs.front()) : encode(ok)};
    if (request_key != 0) keyed_replies_.emplace(request_key, Keyed_reply{reply, first_id});
    evict_terminal_jobs_locked(first_id);
    jobs_retained_gauge_.set(static_cast<double>(jobs_.size()));
    return reply;
}

void Daemon::evict_terminal_jobs_locked(std::uint64_t first_kept)
{
    // Oldest first. A live job is skipped: it stays pollable however long
    // it runs, and a later registration evicts it once terminal.
    for (auto it = jobs_.begin();
         jobs_.size() > retain_terminal_jobs && it != jobs_.end() && it->first < first_kept;) {
        if (!it->second.handle.finished()) {
            ++it;
            continue;
        }
        // The key goes with the first evicted job its reply names, so a
        // replay never names an unknown id. An older envelope's leftover
        // job must not erase a key a newer envelope has since taken.
        if (const auto key = keyed_replies_.find(it->second.request_key);
            key != keyed_replies_.end() && key->second.first_job_id <= it->first)
            keyed_replies_.erase(key);
        it = jobs_.erase(it);
    }
}

void Daemon::send_error(Session& session, Protocol_error_code code, const std::string& message)
{
    const std::uint8_t version = session.negotiated ? session.version : protocol_version;
    try {
        write_frame(session.connection, version, Pdu_type::error,
                    encode(Error_pdu{code, message, retryable(code)}));
    } catch (const Net_error&) {
        // Best-effort: the peer that sent us garbage may already be gone.
    }
}

} // namespace xrl
