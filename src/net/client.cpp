#include "net/client.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "support/trace.h"

namespace xrl {

Client::Client(Client_config config)
    : config_(std::move(config)), backoff_rng_(config_.retry.jitter_seed)
{
    if (config_.request_key_seed != 0) {
        key_state_ = config_.request_key_seed;
    } else {
        // A per-process random stream: two clients retrying the same logical
        // submit must not share a key (each submit is its own job).
        std::random_device device;
        key_state_ = (static_cast<std::uint64_t>(device()) << 32) ^ device();
    }

    // The initial connect honours the retry policy too — a daemon that is
    // restarting is exactly what the backoff exists for.
    const auto start = std::chrono::steady_clock::now();
    double backoff = config_.retry.initial_backoff_seconds;
    for (std::uint32_t attempt = 1;; ++attempt) {
        try {
            ensure_connected();
            return;
        } catch (const Net_error&) {
            connection_.close();
            if (!retry_again(attempt, start)) throw;
        } catch (const Protocol_error& error) {
            connection_.close();
            if (!error.retryable() || !retry_again(attempt, start)) throw;
        }
        backoff_sleep(backoff);
    }
}

void Client::ensure_connected()
{
    if (connection_.valid()) return;
    connection_ = Connection::connect(config_.host, config_.port, config_.timeouts);
    if (config_.fault_plan != nullptr)
        connection_.set_fault_plan(config_.fault_plan, "client/send");

    // Handshake: always framed as version 1 (the shared floor), proposing
    // the highest version this build speaks.
    Hello hello;
    hello.proposed_version = protocol_version;
    hello.client_name = config_.client_name;
    write_frame(connection_, 1, Pdu_type::hello, encode(hello));

    std::optional<Frame> reply = read_frame(connection_);
    if (!reply.has_value())
        throw Protocol_error(Protocol_error_code::io,
                             "daemon at " + endpoint() +
                                 " closed the connection cleanly during the hello handshake");
    if (reply->type == Pdu_type::error) {
        const Error_pdu error = decode<Error_pdu>(reply->payload);
        throw Protocol_error(error.code, error.message, /*remote=*/true, error.retryable);
    }
    if (reply->type != Pdu_type::hello_ok)
        throw Protocol_error(Protocol_error_code::bad_payload,
                             std::string("expected hello_ok, got ") + to_string(reply->type));

    const Hello_ok ok = decode<Hello_ok>(reply->payload);
    if (ok.negotiated_version < 1 || ok.negotiated_version > protocol_version)
        throw Protocol_error(Protocol_error_code::unsupported_version,
                             "daemon negotiated version " +
                                 std::to_string(ok.negotiated_version) +
                                 ", which this client does not speak");
    version_ = ok.negotiated_version;
    server_protocol_version_ = ok.server_protocol_version;
    server_name_ = ok.server_name;
    shard_count_ = ok.shard_count;
    backends_ = ok.backends;
}

bool Client::retry_again(std::uint32_t attempt,
                         std::chrono::steady_clock::time_point start) const
{
    if (attempt >= config_.retry.max_attempts) return false;
    if (config_.retry.deadline_seconds > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (elapsed >= config_.retry.deadline_seconds) return false;
    }
    return true;
}

void Client::backoff_sleep(double& backoff)
{
    const Retry_policy& retry = config_.retry;
    const double jittered =
        backoff * (1.0 + retry.jitter * (backoff_rng_.uniform() * 2.0 - 1.0));
    if (jittered > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(jittered));
    backoff = std::min(backoff * retry.backoff_multiplier, retry.max_backoff_seconds);
}

std::uint64_t Client::next_request_key()
{
    std::uint64_t key = 0;
    do {
        key = splitmix64(key_state_);
    } while (key == 0); // 0 means "no key" on the wire
    return key;
}

std::string Client::call(Pdu_type request, std::string_view payload, Pdu_type expected_reply)
{
    write_frame(connection_, version_, request, payload);
    std::optional<Frame> reply;
    try {
        reply = read_frame(connection_);
    } catch (const Net_error& error) {
        if (error.kind() == Net_error_kind::timeout)
            // Distinct from a connect timeout: we *are* connected, the
            // daemon just never answered within the read deadline (its
            // reply may be lost, or the request still executing).
            throw Net_error(Net_error_kind::timeout,
                            std::string("read timed out awaiting ") + to_string(expected_reply) +
                                " from " + endpoint() +
                                " — connected, but no reply within the read timeout");
        throw;
    }
    if (!reply.has_value())
        throw Protocol_error(Protocol_error_code::io,
                             "daemon at " + endpoint() +
                                 " closed the connection cleanly while awaiting " +
                                 to_string(expected_reply));
    if (reply->version != version_)
        throw Protocol_error(Protocol_error_code::unsupported_version,
                             "reply framed as version " + std::to_string(reply->version) +
                                 " on a connection that negotiated " + std::to_string(version_));
    if (reply->type == Pdu_type::error) {
        const Error_pdu error = decode<Error_pdu>(reply->payload);
        throw Protocol_error(error.code, error.message, /*remote=*/true, error.retryable);
    }
    if (reply->type != expected_reply)
        throw Protocol_error(Protocol_error_code::bad_payload,
                             std::string("expected ") + to_string(expected_reply) + ", got " +
                                 to_string(reply->type));
    return std::move(reply->payload);
}

std::string Client::call_with_retry(Pdu_type request, std::string_view payload,
                                    Pdu_type expected_reply)
{
    const auto start = std::chrono::steady_clock::now();
    double backoff = config_.retry.initial_backoff_seconds;
    for (std::uint32_t attempt = 1;; ++attempt) {
        try {
            ensure_connected();
            return call(request, payload, expected_reply);
        } catch (const Net_error&) {
            // The transport failed somewhere under the request: the stream
            // position is unknowable, so the retry starts from a fresh
            // connection either way.
            connection_.close();
            if (!retry_again(attempt, start)) throw;
        } catch (const Protocol_error& error) {
            if (error.remote() && error.retryable()) {
                // Typed refusal (busy / shutting_down): the stream is still
                // in sync — retry on the same connection.
                if (!retry_again(attempt, start)) throw;
            } else if (!error.remote()) {
                // Local framing damage: the stream can no longer be
                // trusted whether or not we retry.
                connection_.close();
                if (!error.retryable() || !retry_again(attempt, start)) throw;
            } else {
                throw; // permanent remote rejection
            }
        }
        backoff_sleep(backoff);
    }
}

Submit_ok Client::submit(const std::string& backend, const Graph& graph,
                         const Optimize_request& request, const Submit_options& options)
{
    Submit submit;
    submit.backend = backend;
    submit.request = request;
    submit.graph = graph;
    submit.priority = options.priority;
    submit.deadline_seconds = options.deadline_seconds;
    // One key for every attempt of this logical submit: a retry after a
    // lost reply replays the original accept instead of starting a second
    // search.
    submit.request_key = next_request_key();

    // One trace for every attempt too: joined to the caller's trace when
    // one is active, otherwise a fresh id — the daemon parents its spans
    // under whatever span is current here.
    const Trace_context ambient = current_trace();
    const std::uint64_t trace_id = ambient.trace_id != 0 ? ambient.trace_id : new_trace_id();
    const Trace_scope trace_scope(trace_id, ambient.span_id);
    Span_scope span("client/submit");
    if (span.active()) span.annotate("backend", backend);
    submit.trace_id = trace_id;
    submit.parent_span = current_trace().span_id;
    last_trace_id_ = trace_id;

    const std::string payload = encode(submit);
    return decode<Submit_ok>(call_with_retry(Pdu_type::submit, payload, Pdu_type::submit_ok));
}

Batch_ok Client::batch_submit(const Batch_submit& batch)
{
    Batch_submit keyed = batch;
    if (keyed.request_key == 0) keyed.request_key = next_request_key();

    const Trace_context ambient = current_trace();
    if (keyed.trace_id == 0) {
        keyed.trace_id = ambient.trace_id != 0 ? ambient.trace_id : new_trace_id();
        keyed.parent_span = ambient.span_id;
    }
    const Trace_scope trace_scope(keyed.trace_id, keyed.parent_span);
    Span_scope span("client/batch_submit");
    if (span.active()) span.annotate("entries", std::to_string(keyed.entries.size()));
    keyed.parent_span = current_trace().span_id;
    last_trace_id_ = keyed.trace_id;

    const std::string payload = encode(keyed);
    return decode<Batch_ok>(call_with_retry(Pdu_type::batch_submit, payload, Pdu_type::batch_ok));
}

Poll_ok Client::poll(std::uint64_t job_id, double wait_seconds)
{
    Poll poll;
    poll.job_id = job_id;
    poll.wait_seconds = wait_seconds;
    return decode<Poll_ok>(
        call_with_retry(Pdu_type::poll, encode(poll), Pdu_type::poll_ok));
}

Optimize_result Client::wait(std::uint64_t job_id, const Progress_observer& observer)
{
    // The long poll is the client's loop: each round asks the daemon to
    // wait briefly (capped server-side), so a slow search costs neither a
    // parked daemon worker nor a client spin.
    int last_step = -1;
    for (;;) {
        Poll_ok round = poll(job_id, config_.poll_wait_seconds);
        if (observer && round.progress.has_value() && round.progress->step != last_step) {
            last_step = round.progress->step;
            observer(*round.progress);
        }
        switch (round.state) {
        case Job_state::done:
        case Job_state::cancelled:
            if (!round.result.has_value())
                throw Protocol_error(Protocol_error_code::bad_payload,
                                     "terminal poll_ok without a result");
            return std::move(*round.result);
        case Job_state::rejected:
        case Job_state::failed:
            // Mirror Job_handle::wait: both surface as runtime_error with
            // the daemon's message (reject reason / backend error text).
            throw std::runtime_error(round.message.empty()
                                         ? std::string("remote job ") + std::to_string(job_id) +
                                               " " + to_string(round.state)
                                         : round.message);
        case Job_state::queued:
        case Job_state::running:
            break;
        }
    }
}

Optimize_result Client::optimize(const std::string& backend, const Graph& graph,
                                 const Optimize_request& request, const Submit_options& options,
                                 const Progress_observer& observer)
{
    const Submit_ok submitted = submit(backend, graph, request, options);
    return wait(submitted.job_id, observer);
}

Cancel_ok Client::cancel(std::uint64_t job_id)
{
    Cancel cancel;
    cancel.job_id = job_id;
    return decode<Cancel_ok>(
        call_with_retry(Pdu_type::cancel, encode(cancel), Pdu_type::cancel_ok));
}

Stats_ok Client::stats()
{
    return decode<Stats_ok>(call_with_retry(Pdu_type::stats, {}, Pdu_type::stats_ok));
}

Metrics_ok Client::metrics()
{
    return decode<Metrics_ok>(call_with_retry(Pdu_type::metrics, {}, Pdu_type::metrics_ok));
}

Trace_ok Client::trace(std::uint64_t job_id, std::uint64_t trace_id)
{
    const Trace_request request{job_id, trace_id};
    return decode<Trace_ok>(
        call_with_retry(Pdu_type::trace, encode(request), Pdu_type::trace_ok));
}

void Client::drain()
{
    call_with_retry(Pdu_type::drain, {}, Pdu_type::drain_ok);
}

} // namespace xrl
