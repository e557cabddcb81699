// Daemon: the network front of an Optimization_router fleet — the process
// behind the `xrlflowd` binary (tools/xrlflowd.cpp).
//
// Through PR 5 the entire serving stack was in-process; this is the piece
// that lets a deployment's clients reach it. The daemon binds a loopback
// or fleet address, accepts up to `max_connections` concurrent clients,
// and speaks the framed wire protocol (net/protocol.h): every submit /
// batch_submit frame is mapped onto a Job_handle from the owned router,
// polls stream the job's latest progress snapshot and — once terminal —
// its bit-exact serialised result, and stats frames carry the router's
// fleet-wide telemetry (queue depth, in-flight, peaks) plus the daemon's
// own connection counters.
//
// Concurrency model: one dedicated accept thread; connection sessions run
// as cooperative turns on the process-wide Thread_pool (the same pool the
// candidate engines and server workers use). A turn never parks a pool
// worker for long — idle connections are checked with a short readiness
// poll and re-posted, and a poll frame's server-side wait is capped by
// `Daemon::poll_wait_cap_seconds` — so N idle connections cannot starve the
// searches they are waiting on. The exception is `drain`, which blocks its
// worker until the fleet is idle; an admin mutex admits one drain at a
// time (concurrent drains get a typed `busy` error), so at most one worker
// is ever parked on administration.
//
// Fault tolerance (the record_file contract, applied to the wire): a
// malformed frame — bad magic, flipped checksum bytes, oversized or
// truncated length prefix, unknown type, future version, undecodable
// payload — is answered with a typed `error` PDU and never crashes the
// daemon; when the damage desynchronises the stream (framing errors), the
// connection is closed after the error is sent, and every other client is
// unaffected.
//
// Shutdown: stop() — which the xrlflowd binary invokes on SIGTERM — stops
// accepting, lets in-flight session turns finish, drains the router, and
// (with a state store configured) snapshots warm state to disk, so a
// SIGTERM'd daemon restarts warm.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "serve/router.h"
#include "serve/state_store.h"
#include "support/metrics.h"
#include "support/sync.h"
#include "support/thread_pool.h"

namespace xrl {

struct Daemon_config {
    /// The fleet this daemon fronts. `router.state_store` (or the shared
    /// `state_store` below) gives every shard warm-start persistence.
    Router_config router;

    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral; read back via Daemon::port().

    /// Accepted concurrent connections; one over the limit is answered
    /// with a typed `busy` error and closed.
    std::size_t max_connections = 64;

    /// Per-connection transport deadlines.
    Net_timeouts timeouts;

    /// Deterministic fault injection: handed to the router (unless it
    /// brought its own plan, sites "shard/<id>") and to every accepted
    /// connection's send path (site "daemon/send" — one event per sent
    /// frame, so tests can drop or corrupt a specific reply). Tests only.
    std::shared_ptr<Fault_plan> fault_plan;

    /// Convenience alias for `router.state_store`: the warm-start store
    /// shared by the fleet, snapshotted on drain and stop()/SIGTERM.
    std::shared_ptr<State_store> state_store;

    /// Advertised in hello_ok.
    std::string server_name = "xrlflowd";
};

class Daemon {
public:
    /// Upper bound on a poll frame's server-side wait for a terminal
    /// state. Small by design: a waiting poll occupies a pool worker, so
    /// clients long-poll in a loop rather than parking the fleet's
    /// threads.
    static constexpr double poll_wait_cap_seconds = 0.05;

    /// Readiness-poll slice for idle connections between turns.
    static constexpr double idle_poll_seconds = 0.02;

    /// The wire job table's one bound. A registration that takes the table
    /// past it evicts the oldest terminal jobs, delivered or not (a later
    /// poll answers unknown_job), each with the idempotency key whose
    /// reply names it. Live jobs are never evicted; the shard queues bound
    /// them.
    static constexpr std::size_t retain_terminal_jobs = 1024;

    /// Binds and starts accepting immediately. Throws Net_error when the
    /// bind fails and std::invalid_argument for a bad router config.
    explicit Daemon(Daemon_config config);

    /// stop(), then tears the fleet down (each shard snapshots).
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// The bound port (resolves an ephemeral request).
    std::uint16_t port() const { return port_; }
    const std::string& host() const { return config_.host; }

    /// Stop accepting, finish in-flight session turns, drain the fleet,
    /// and snapshot warm state. Idempotent; also the SIGTERM path — the
    /// xrlflowd binary translates the signal into this call.
    void stop();

    /// The fleet behind the wire (tests submit directly for parity checks).
    Optimization_router& router() { return router_; }

    /// The wire counters are views over the registry's
    /// `xrlflow_daemon_*_total` series, counted from this daemon's
    /// construction; connections_active and jobs_retained are live.
    Daemon_wire_stats stats() const;

private:
    /// One connected client: its socket, negotiated protocol version, and
    /// whether the hello handshake completed.
    struct Session {
        Connection connection;
        std::uint8_t version = protocol_version;
        bool negotiated = false;
        std::uint64_t id = 0;
    };

    void accept_loop();
    void start_session(Connection connection);
    void session_turn(const std::shared_ptr<Session>& session);
    void finish_session(const std::shared_ptr<Session>& session);

    /// Handle one decoded frame; returns false when the connection must
    /// close (hello violation or reply-send failure). Payload-level
    /// failures are answered with a typed error PDU and keep the
    /// connection — the framing is still trustworthy.
    bool handle_frame(const std::shared_ptr<Session>& session, const Frame& frame);

    bool handle_hello(const std::shared_ptr<Session>& session, const Frame& frame);

    /// Route one post-handshake PDU to its handler. Throws Protocol_error
    /// (typed) for everything the protocol can reject.
    struct Reply {
        Pdu_type type = Pdu_type::error;
        std::string payload;
    };
    Reply dispatch(const Frame& frame);

    /// Route one submission to the fleet, translating the router's
    /// exceptions into typed Protocol_errors.
    Job_handle routed_submit(const std::string& backend, const Graph& graph,
                             const Optimize_request& request, const Submit_options& options);

    Reply handle_submit(std::string_view payload);
    Reply handle_batch(std::string_view payload);
    Reply handle_poll(std::string_view payload);
    Reply handle_cancel(std::string_view payload);
    Reply handle_stats();
    Reply handle_drain();
    Reply handle_metrics();
    Reply handle_trace(std::string_view payload);

    /// Send an error PDU, best-effort (a dead peer is already gone).
    void send_error(Session& session, Protocol_error_code code, const std::string& message);

    /// Register an admitted envelope's jobs under fresh wire ids, encode
    /// its reply (`submit_ok` for one job, else `batch_ok`), remember the
    /// reply under `request_key` (0 = none) and evict beyond the bound.
    Reply register_envelope(std::vector<Job_handle> handles, std::uint64_t request_key,
                            Pdu_type reply_type);

    /// The stored reply for this idempotency key, if the daemon already
    /// answered it (counts a deduplication).
    std::optional<Reply> find_keyed_reply(std::uint64_t request_key);

    /// Erase the oldest terminal jobs, and the keys whose replies name
    /// them, while the table exceeds retain_terminal_jobs. Ids from
    /// `first_kept` on (the envelope being registered) are never erased.
    void evict_terminal_jobs_locked(std::uint64_t first_kept) XRL_REQUIRES(mutex_);

    Daemon_config config_;
    Optimization_router router_;
    Listener listener_;
    std::uint16_t port_ = 0;
    Thread_pool* pool_;
    std::thread accept_thread_;

    mutable Mutex mutex_{"daemon", Lock_rank::daemon};
    Cond_var sessions_done_;
    bool stopping_ XRL_GUARDED_BY(mutex_) = false;
    std::size_t active_sessions_ XRL_GUARDED_BY(mutex_) = 0;
    std::uint64_t next_session_id_ XRL_GUARDED_BY(mutex_) = 1;
    std::uint64_t next_job_id_ XRL_GUARDED_BY(mutex_) = 1;
    /// Wire job id -> the handle the protocol polls/cancels through. Ids
    /// rise with submission, so begin() is the oldest: the one retention
    /// order.
    struct Job_entry {
        Job_handle handle;
        std::uint64_t request_key = 0; ///< The envelope's key, if its reply is stored.
        std::uint64_t trace_id = 0;    ///< Client-stamped; `trace` by job id resolves here.
    };
    std::map<std::uint64_t, Job_entry> jobs_ XRL_GUARDED_BY(mutex_);
    /// Idempotency key -> the reply originally sent for it. No bound of
    /// its own: a key lives until the first job its reply names is evicted.
    struct Keyed_reply {
        Reply reply;
        std::uint64_t first_job_id = 0; ///< Tells the owning envelope from an older one.
    };
    std::unordered_map<std::uint64_t, Keyed_reply> keyed_replies_ XRL_GUARDED_BY(mutex_);

    // Daemon_wire_stats' counters, bumped as each event happens, and the
    // gauges mirroring active_sessions_ and jobs_.size().
    Counter_view connections_accepted_{"xrlflow_daemon_connections_accepted_total",
                                       "Wire connections accepted"};
    Counter_view connections_rejected_{"xrlflow_daemon_connections_rejected_total",
                                       "Wire connections refused over max_connections"};
    Counter_view frames_received_{"xrlflow_daemon_frames_received_total",
                                  "Frames decoded off the wire"};
    Counter_view protocol_errors_{"xrlflow_daemon_protocol_errors_total",
                                  "Malformed frames answered with a typed error"};
    Counter_view jobs_submitted_{"xrlflow_daemon_jobs_submitted_total", "Wire jobs admitted"};
    Counter_view jobs_deduplicated_{"xrlflow_daemon_jobs_deduplicated_total",
                                    "Submits replayed from the keyed-reply cache"};
    Gauge& connections_active_gauge_ = Metrics_registry::global().gauge(
        "xrlflow_daemon_connections_active", "Currently connected wire clients");
    Gauge& jobs_retained_gauge_ = Metrics_registry::global().gauge(
        "xrlflow_daemon_jobs_retained", "Live entries in the wire job table");

    /// One drain at a time; losers get `busy`. A mutual-exclusion token
    /// (guards no fields) taken with Try_lock from session turns; ranked
    /// below everything because drain holds it across router_.drain() and
    /// save_state().
    Mutex admin_mutex_{"daemon_admin", Lock_rank::daemon_admin};
};

} // namespace xrl
