// Client: the in-process face of a remote xrlflowd daemon.
//
// Mirrors the Optimization_service surface — optimize() blocks for a
// result, submit()/poll()/wait()/cancel() expose the job lifecycle — but
// every call travels the framed wire protocol (net/protocol.h) over one
// blocking connection. Results come back through the same bit-exact codecs
// the warm-start layer uses, so a remote optimize() returns bytes
// identical to the in-process call it mirrors (test_net proves this).
//
// Error surface: transport failures throw Net_error; malformed frames and
// local decode failures throw Protocol_error (remote() == false); typed
// `error` PDUs from the daemon throw Protocol_error with remote() == true
// and the daemon's code — so callers can distinguish "my connection died"
// from "the daemon refused".
//
// One Client is one connection and is not thread-safe: the protocol is
// strictly request/reply on a single stream. Concurrent callers each open
// their own Client (connections are cheap; the daemon multiplexes).
//
// Retries: with a Retry_policy allowing more than one attempt, transport
// failures and *retryable* protocol errors (see retryable() in
// net/protocol.h) are retried with capped exponential backoff and
// deterministic seeded jitter, reconnecting and re-handshaking first when
// the connection died. Every submit carries a client-generated idempotency
// key, so a retried submit whose original reply was lost coalesces onto
// the already-accepted job instead of searching twice (the daemon replays
// the original reply byte-identically). The default policy is a single
// attempt — exactly the pre-retry behaviour.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "support/fault_plan.h"
#include "support/rng.h"

namespace xrl {

/// Retry tuning for one Client. `max_attempts` counts the first try: 1
/// disables retrying entirely. Backoff before attempt k+1 is
/// min(initial * multiplier^(k-1), max), scaled by a deterministic jitter
/// drawn from `jitter_seed` — two clients with different seeds never
/// thundering-herd in lockstep, and a test with a fixed seed replays the
/// exact same schedule.
struct Retry_policy {
    std::uint32_t max_attempts = 1;
    double initial_backoff_seconds = 0.05;
    double max_backoff_seconds = 2.0;
    double backoff_multiplier = 2.0;
    /// Each sleep is scaled by a factor in [1 - jitter, 1 + jitter].
    double jitter = 0.2;
    std::uint64_t jitter_seed = 1;
    /// Overall wall-clock budget across all attempts of one call; once
    /// exceeded the current failure is rethrown instead of retried.
    /// 0 = no deadline.
    double deadline_seconds = 0.0;
};

struct Client_config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    Net_timeouts timeouts;

    /// Server-side wait requested per poll round inside wait(); the daemon
    /// caps it anyway (Daemon::poll_wait_cap_seconds), so this is the client's
    /// long-poll cadence.
    double poll_wait_seconds = 0.05;

    /// Advertised in the hello handshake.
    std::string client_name = "xrlflow-client";

    /// Retry/backoff behaviour; the default (one attempt) never retries.
    Retry_policy retry;

    /// Seed for the idempotency-key stream stamped on submits. 0 (the
    /// default) draws a random stream per Client — two clients never
    /// collide; a nonzero seed makes the keys reproducible for tests.
    std::uint64_t request_key_seed = 0;

    /// Deterministic fault injection on this client's send path: one event
    /// consumed at site "client/send" per sent frame (see
    /// Connection::set_fault_plan). Survives reconnects. Tests only.
    std::shared_ptr<Fault_plan> fault_plan;
};

class Client {
public:
    /// Connects and completes the hello handshake (version negotiation).
    /// Throws Net_error when the daemon is unreachable and Protocol_error
    /// when the handshake fails.
    explicit Client(Client_config config);

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;
    Client(Client&&) = default;
    Client& operator=(Client&&) = default;

    // -- handshake results ------------------------------------------------
    std::uint8_t negotiated_version() const { return version_; }
    /// The daemon's highest supported protocol version (may exceed the
    /// negotiated one when the daemon is newer than this client).
    std::uint8_t server_protocol_version() const { return server_protocol_version_; }
    const std::string& server_name() const { return server_name_; }
    std::uint32_t shard_count() const { return shard_count_; }
    const std::vector<std::string>& backends() const { return backends_; }

    // -- the Optimization_service mirror ----------------------------------

    /// Submit and block until terminal: the remote twin of
    /// Optimization_service::optimize. Returns the result for done and
    /// cancelled (best-so-far, exactly like the in-process call); throws
    /// std::runtime_error carrying the daemon's message for rejected and
    /// failed jobs. `observer`, when set, receives each new progress
    /// snapshot streamed back through the poll loop.
    Optimize_result optimize(const std::string& backend, const Graph& graph,
                             const Optimize_request& request = {},
                             const Submit_options& options = {},
                             const Progress_observer& observer = {});

    // -- job lifecycle -----------------------------------------------------

    /// Async submit; returns the wire job id (+ whether the daemon
    /// coalesced it onto an in-flight duplicate).
    Submit_ok submit(const std::string& backend, const Graph& graph,
                     const Optimize_request& request = {}, const Submit_options& options = {});

    /// A deployment's model set under one budget/deadline envelope.
    Batch_ok batch_submit(const Batch_submit& batch);

    /// One poll round: state, latest progress, result when terminal.
    /// `wait_seconds` asks the daemon to wait briefly before answering
    /// (capped server-side).
    Poll_ok poll(std::uint64_t job_id, double wait_seconds = 0.0);

    /// Long-poll until terminal; same result/throw contract as optimize().
    Optimize_result wait(std::uint64_t job_id, const Progress_observer& observer = {});

    /// Withdraw this submission's interest (the daemon's interest-counting
    /// matches Job_handle::cancel).
    Cancel_ok cancel(std::uint64_t job_id);

    /// Fleet-wide router telemetry + the daemon's wire counters.
    Stats_ok stats();

    /// The daemon's full metric registry in Prometheus text exposition.
    Metrics_ok metrics();

    /// Spans recorded on the daemon: by wire job id (job_id != 0), by
    /// trace id (trace_id != 0), or the whole buffer (both 0).
    Trace_ok trace(std::uint64_t job_id = 0, std::uint64_t trace_id = 0);

    /// The trace id stamped on the most recent submit/batch_submit (0
    /// before the first). Pair with trace() to fetch that job's spans.
    std::uint64_t last_trace_id() const { return last_trace_id_; }

    /// Block until the fleet is idle and its warm state is snapshotted.
    void drain();

    void close() { connection_.close(); }

private:
    /// One request/reply exchange; throws Protocol_error for error PDUs
    /// (remote) and protocol violations (local), Net_error for transport.
    std::string call(Pdu_type request, std::string_view payload, Pdu_type expected_reply);

    /// call() under the retry policy: reconnect + re-handshake when the
    /// connection died, capped exponential backoff with deterministic
    /// jitter between attempts, overall deadline enforced. Only transport
    /// failures and retryable protocol errors are retried.
    std::string call_with_retry(Pdu_type request, std::string_view payload,
                                Pdu_type expected_reply);

    /// Connect and complete the hello handshake if the connection is down;
    /// no-op on a live connection.
    void ensure_connected();

    /// Whether attempt `attempt` may be followed by another under the
    /// policy's attempt and deadline budgets.
    bool retry_again(std::uint32_t attempt, std::chrono::steady_clock::time_point start) const;

    /// Sleep the jittered backoff, then advance `backoff` one step
    /// (capped).
    void backoff_sleep(double& backoff);

    /// Next nonzero idempotency key from this client's stream.
    std::uint64_t next_request_key();

    std::string endpoint() const { return config_.host + ":" + std::to_string(config_.port); }

    Client_config config_;
    Connection connection_;
    std::uint8_t version_ = protocol_version;
    std::uint8_t server_protocol_version_ = protocol_version;
    std::string server_name_;
    std::uint32_t shard_count_ = 0;
    std::vector<std::string> backends_;
    Rng backoff_rng_;
    std::uint64_t key_state_ = 0;
    std::uint64_t last_trace_id_ = 0;
};

} // namespace xrl
