#include "net/protocol.h"

#include <bit>

#include "core/result_serial.h"
#include "ir/graph_io.h"
#include "support/fnv.h"
#include "support/reflect.h"

namespace xrl {

// The wire is little-endian; Byte_writer/Byte_reader compose in host
// order, so a big-endian build would need swapping shims here. Every
// deployment target today is little-endian — fail the build loudly rather
// than corrupt frames silently if that ever changes.
static_assert(std::endian::native == std::endian::little,
              "the xrlflow wire protocol is little-endian; add byte swapping to "
              "net/protocol.cpp before building for a big-endian target");

// Drift guards: each serialised struct's field count, pinned next to the
// one field list (`fields(Io&, T&)` below) that encodes and decodes it.
// Adding a field means adding it to that list, then to this count and to
// PROTOCOL.md (and deciding on a version bump if the layout changed).
template <class T, std::size_t count>
constexpr bool field_list_covers()
{
    static_assert(aggregate_field_count<T> == count,
                  "a serialised struct changed: update its field list fields(Io&, T&) in "
                  "net/protocol.cpp, PROTOCOL.md, and its count here");
    return true;
}
// Optimize_request's progress callback is the one field that does not travel.
static_assert(field_list_covers<Optimize_request, 6>());
static_assert(field_list_covers<Device_profile, 7>());
static_assert(field_list_covers<Optimize_progress, 4>());
static_assert(field_list_covers<Backend_stats, 5>());
static_assert(field_list_covers<Server_stats, 18>());
static_assert(field_list_covers<Router_stats, 11>());
static_assert(field_list_covers<Daemon_wire_stats, 8>());
static_assert(field_list_covers<Shard_health_snapshot, 8>());
static_assert(field_list_covers<Trace_span, 8>());
static_assert(field_list_covers<Hello, 2>());
static_assert(field_list_covers<Hello_ok, 5>());
static_assert(field_list_covers<Submit, 8>());
static_assert(field_list_covers<Submit_ok, 2>());
static_assert(field_list_covers<Batch_submit, 7>());
static_assert(field_list_covers<Batch_submit::Entry, 3>());
static_assert(field_list_covers<Batch_ok, 1>());
static_assert(field_list_covers<Poll, 2>());
static_assert(field_list_covers<Poll_ok, 5>());
static_assert(field_list_covers<Cancel, 1>());
static_assert(field_list_covers<Cancel_ok, 2>());
static_assert(field_list_covers<Stats_ok, 2>());
static_assert(field_list_covers<Metrics_ok, 1>());
static_assert(field_list_covers<Trace_request, 2>());
static_assert(field_list_covers<Trace_ok, 2>());
static_assert(field_list_covers<Error_pdu, 3>());

const char* to_string(Pdu_type type)
{
    switch (type) {
    case Pdu_type::hello: return "hello";
    case Pdu_type::hello_ok: return "hello_ok";
    case Pdu_type::submit: return "submit";
    case Pdu_type::submit_ok: return "submit_ok";
    case Pdu_type::batch_submit: return "batch_submit";
    case Pdu_type::batch_ok: return "batch_ok";
    case Pdu_type::poll: return "poll";
    case Pdu_type::poll_ok: return "poll_ok";
    case Pdu_type::cancel: return "cancel";
    case Pdu_type::cancel_ok: return "cancel_ok";
    case Pdu_type::stats: return "stats";
    case Pdu_type::stats_ok: return "stats_ok";
    case Pdu_type::drain: return "drain";
    case Pdu_type::drain_ok: return "drain_ok";
    case Pdu_type::error: return "error";
    case Pdu_type::metrics: return "metrics";
    case Pdu_type::metrics_ok: return "metrics_ok";
    case Pdu_type::trace: return "trace";
    case Pdu_type::trace_ok: return "trace_ok";
    }
    return "?";
}

const char* to_string(Protocol_error_code code)
{
    switch (code) {
    case Protocol_error_code::bad_magic: return "bad_magic";
    case Protocol_error_code::bad_checksum: return "bad_checksum";
    case Protocol_error_code::truncated: return "truncated";
    case Protocol_error_code::frame_too_large: return "frame_too_large";
    case Protocol_error_code::unsupported_version: return "unsupported_version";
    case Protocol_error_code::unknown_type: return "unknown_type";
    case Protocol_error_code::bad_payload: return "bad_payload";
    case Protocol_error_code::invalid_request: return "invalid_request";
    case Protocol_error_code::unknown_job: return "unknown_job";
    case Protocol_error_code::busy: return "busy";
    case Protocol_error_code::shutting_down: return "shutting_down";
    case Protocol_error_code::io: return "io";
    }
    return "?";
}

bool retryable(Protocol_error_code code)
{
    switch (code) {
    // Transient: framing damage heals on a fresh connection, load states
    // drain, transport hiccups pass.
    case Protocol_error_code::bad_magic:
    case Protocol_error_code::bad_checksum:
    case Protocol_error_code::truncated:
    case Protocol_error_code::busy:
    case Protocol_error_code::shutting_down:
    case Protocol_error_code::io:
        return true;
    // Permanent: the same bytes earn the same rejection.
    case Protocol_error_code::frame_too_large:
    case Protocol_error_code::unsupported_version:
    case Protocol_error_code::unknown_type:
    case Protocol_error_code::bad_payload:
    case Protocol_error_code::invalid_request:
    case Protocol_error_code::unknown_job:
        return false;
    }
    return false;
}

namespace {

bool known_pdu_type(std::uint8_t raw)
{
    return raw >= static_cast<std::uint8_t>(Pdu_type::hello) &&
           raw <= static_cast<std::uint8_t>(Pdu_type::trace_ok);
}

} // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string encode_frame(std::uint8_t version, Pdu_type type, std::string_view payload)
{
    Byte_writer out;
    out.u32(protocol_magic);
    out.u8(version);
    out.u8(static_cast<std::uint8_t>(type));
    out.u32(static_cast<std::uint32_t>(payload.size()));
    std::string bytes = out.take();
    bytes.append(payload.data(), payload.size());
    Byte_writer trailer;
    trailer.u64(fnv1a_bytes(fnv1a_offset, bytes));
    bytes += trailer.take();
    return bytes;
}

Frame decode_frame(std::string_view bytes, std::size_t max_payload)
{
    if (bytes.size() < protocol_header_size + protocol_checksum_size)
        throw Protocol_error(Protocol_error_code::truncated,
                             "frame shorter than header + checksum (" +
                                 std::to_string(bytes.size()) + " bytes)");
    Byte_reader header(bytes.substr(0, protocol_header_size));
    if (header.u32() != protocol_magic)
        throw Protocol_error(Protocol_error_code::bad_magic,
                             "frame does not start with the XRLF magic");
    Frame frame;
    frame.version = header.u8();
    const std::uint8_t raw_type = header.u8();
    const std::uint32_t payload_size = header.u32();
    if (payload_size > max_payload)
        throw Protocol_error(Protocol_error_code::frame_too_large,
                             "frame payload of " + std::to_string(payload_size) +
                                 " bytes exceeds the cap of " + std::to_string(max_payload));
    if (bytes.size() != protocol_header_size + payload_size + protocol_checksum_size)
        throw Protocol_error(Protocol_error_code::truncated,
                             "frame length prefix says " + std::to_string(payload_size) +
                                 " payload bytes but " +
                                 std::to_string(bytes.size() - protocol_header_size -
                                                protocol_checksum_size) +
                                 " are present");
    const std::size_t body_end = protocol_header_size + payload_size;
    Byte_reader trailer(bytes.substr(body_end, protocol_checksum_size));
    if (trailer.u64() != fnv1a_bytes(fnv1a_offset, bytes.substr(0, body_end)))
        throw Protocol_error(Protocol_error_code::bad_checksum,
                             "frame checksum mismatch (flipped bytes in transit?)");
    // Checked *after* the checksum: a frame that hashes clean but names an
    // unknown type really is from a future speaker, not damage.
    if (!known_pdu_type(raw_type))
        throw Protocol_error(Protocol_error_code::unknown_type,
                             "unknown PDU type " + std::to_string(raw_type));
    frame.type = static_cast<Pdu_type>(raw_type);
    frame.payload.assign(bytes.data() + protocol_header_size, payload_size);
    return frame;
}

void write_frame(Connection& connection, std::uint8_t version, Pdu_type type,
                 std::string_view payload)
{
    connection.send_all(encode_frame(version, type, payload));
}

std::optional<Frame> read_frame(Connection& connection, std::size_t max_payload)
{
    // First byte separately: EOF here is a clean between-frames hangup,
    // EOF anywhere later is truncation.
    char first = 0;
    if (connection.recv_some(&first, 1) == 0) return std::nullopt;
    std::string bytes(1, first);
    try {
        bytes += connection.recv_exact(protocol_header_size - 1);
    } catch (const Net_error& error) {
        if (error.kind() == Net_error_kind::closed)
            throw Protocol_error(Protocol_error_code::truncated,
                                 std::string("stream ended inside a frame header: ") +
                                     error.what());
        throw;
    }

    // Validate the header before trusting the length prefix with an
    // allocation or a long read.
    Byte_reader header(bytes);
    if (header.u32() != protocol_magic)
        throw Protocol_error(Protocol_error_code::bad_magic,
                             "frame does not start with the XRLF magic");
    (void)header.u8(); // version — checked by decode_frame / the session layer
    (void)header.u8(); // type — ditto
    const std::uint32_t payload_size = header.u32();
    if (payload_size > max_payload)
        throw Protocol_error(Protocol_error_code::frame_too_large,
                             "frame payload of " + std::to_string(payload_size) +
                                 " bytes exceeds the cap of " + std::to_string(max_payload));
    try {
        bytes += connection.recv_exact(payload_size + protocol_checksum_size);
    } catch (const Net_error& error) {
        if (error.kind() == Net_error_kind::closed)
            throw Protocol_error(Protocol_error_code::truncated,
                                 std::string("stream ended inside a frame body: ") +
                                     error.what());
        throw;
    }
    return decode_frame(bytes, max_payload);
}

// ---------------------------------------------------------------------------
// Field lists: one per record, run by both encode and decode
// ---------------------------------------------------------------------------
//
// List minimums come from min_wire_size (the encoding of a default item),
// so a corrupt count is rejected before it reserves anything.

template <class Io, Record_of<Device_profile> T>
void fields(Io& io, T& profile)
{
    io.str(profile.name);
    io.f64(profile.flops_per_ms);
    io.f64(profile.bytes_per_ms);
    io.f64(profile.kernel_launch_ms);
    io.f64(profile.scheduler_overhead_ms);
    io.f64(profile.measurement_noise);
    io.f64(profile.utilisation_knee_flops);
}

/// Shared by submit and batch_submit. request.on_progress is deliberately
/// absent: callables cannot travel; remote progress is served through the
/// poll PDU instead.
template <class Io, Record_of<Optimize_request> T>
void fields(Io& io, T& request)
{
    io.f64(request.time_budget_seconds);
    io.i32(request.iteration_budget);
    io.u64(request.seed);
    io.flag(request.deterministic);
    io.str(request.device.name);
    io.optional(request.device.profile);
}

template <class Io, Record_of<Optimize_progress> T>
void fields(Io& io, T& progress)
{
    io.str(progress.backend);
    io.i32(progress.step);
    io.f64(progress.best_ms);
    io.f64(progress.elapsed_seconds);
}

template <class Io, Record_of<Backend_stats> T>
void fields(Io& io, T& stats)
{
    io.u64(stats.submitted);
    io.u64(stats.completed);
    io.u64(stats.cancelled);
    io.u64(stats.failed);
    io.f64(stats.busy_seconds);
}

template <class Io, Record_of<Server_stats> T>
void fields(Io& io, T& stats)
{
    io.u64(stats.submitted);
    io.u64(stats.coalesced);
    io.u64(stats.rejected);
    io.u64(stats.shed);
    io.u64(stats.completed);
    io.u64(stats.cancelled);
    io.u64(stats.failed);
    io.u64(stats.cache_hits);
    io.u64(stats.queue_depth);
    io.u64(stats.running);
    io.u64(stats.inflight);
    io.u64(stats.peak_queue_depth);
    io.u64(stats.peak_running);
    io.f64(stats.p50_latency_ms);
    io.f64(stats.p95_latency_ms);
    io.f64(stats.uptime_seconds);
    io.u64(stats.snapshot_seq);
    io.map(stats.backends);
}

template <class Io, Record_of<Shard_health_snapshot> T>
void fields(Io& io, T& health)
{
    io.u64(health.stable_id);
    io.enumerated(health.state, Breaker_state::closed, Breaker_state::half_open, "breaker state");
    io.flag(health.draining);
    io.u32(health.consecutive_failures);
    io.u64(health.successes);
    io.u64(health.failures);
    io.u64(health.trips);
    io.u64(health.probes);
}

template <class Io, Record_of<Router_stats> T>
void fields(Io& io, T& stats)
{
    io.u64(stats.submitted);
    io.u64(stats.affinity_routed);
    io.u64(stats.hash_routed);
    io.u64(stats.probe_routed);
    io.u64(stats.breaker_rerouted);
    io.f64(stats.uptime_seconds);
    io.u64(stats.snapshot_seq);
    fields(io, stats.total);
    io.list(stats.shards);
    io.list(stats.routed_to);
    io.list(stats.health);
}

template <class Io, Record_of<Daemon_wire_stats> T>
void fields(Io& io, T& stats)
{
    io.u64(stats.connections_accepted);
    io.u64(stats.connections_active);
    io.u64(stats.connections_rejected);
    io.u64(stats.frames_received);
    io.u64(stats.protocol_errors);
    io.u64(stats.jobs_submitted);
    io.u64(stats.jobs_retained);
    io.u64(stats.jobs_deduplicated);
}

template <class Io, Record_of<Trace_span> T>
void fields(Io& io, T& span)
{
    io.u64(span.trace_id);
    io.u64(span.span_id);
    io.u64(span.parent_span);
    io.str(span.name);
    io.u64(span.thread_id);
    io.u64(span.start_us);
    io.u64(span.duration_us);
    io.list(span.annotations);
}

// -- PDUs -------------------------------------------------------------------

template <class Io, Record_of<Hello> T>
void fields(Io& io, T& hello)
{
    io.u8(hello.proposed_version);
    io.str(hello.client_name);
}

template <class Io, Record_of<Hello_ok> T>
void fields(Io& io, T& ok)
{
    io.u8(ok.negotiated_version);
    io.u8(ok.server_protocol_version);
    io.str(ok.server_name);
    io.u32(ok.shard_count);
    io.list(ok.backends);
}

template <class Io, Record_of<Submit> T>
void fields(Io& io, T& submit)
{
    io.str(submit.backend);
    fields(io, submit.request);
    io.i32(submit.priority);
    io.f64(submit.deadline_seconds);
    io.u64(submit.request_key);
    io.u64(submit.trace_id);
    io.u64(submit.parent_span);
    fields(io, submit.graph);
}

template <class Io, Record_of<Submit_ok> T>
void fields(Io& io, T& ok)
{
    io.u64(ok.job_id);
    io.flag(ok.coalesced);
}

template <class Io, Record_of<Batch_submit::Entry> T>
void fields(Io& io, T& entry)
{
    io.str(entry.backend);
    fields(io, entry.request);
    fields(io, entry.graph);
}

template <class Io, Record_of<Batch_submit> T>
void fields(Io& io, T& batch)
{
    io.list(batch.entries);
    io.f64(batch.budget_seconds);
    io.f64(batch.deadline_seconds);
    io.i32(batch.priority);
    io.u64(batch.request_key);
    io.u64(batch.trace_id);
    io.u64(batch.parent_span);
}

template <class Io, Record_of<Batch_ok> T>
void fields(Io& io, T& ok)
{
    io.list(ok.jobs);
}

template <class Io, Record_of<Poll> T>
void fields(Io& io, T& poll)
{
    io.u64(poll.job_id);
    io.f64(poll.wait_seconds);
}

template <class Io, Record_of<Poll_ok> T>
void fields(Io& io, T& ok)
{
    io.u64(ok.job_id);
    io.enumerated(ok.state, Job_state::queued, Job_state::failed, "job state");
    io.str(ok.message);
    io.optional(ok.progress);
    io.optional(ok.result);
}

template <class Io, Record_of<Cancel> T>
void fields(Io& io, T& cancel)
{
    io.u64(cancel.job_id);
}

template <class Io, Record_of<Cancel_ok> T>
void fields(Io& io, T& ok)
{
    io.u64(ok.job_id);
    io.enumerated(ok.state, Job_state::queued, Job_state::failed, "job state");
}

template <class Io, Record_of<Stats_ok> T>
void fields(Io& io, T& stats)
{
    fields(io, stats.router);
    fields(io, stats.daemon);
}

template <class Io, Record_of<Metrics_ok> T>
void fields(Io& io, T& metrics)
{
    io.str(metrics.exposition);
}

template <class Io, Record_of<Trace_request> T>
void fields(Io& io, T& request)
{
    io.u64(request.job_id);
    io.u64(request.trace_id);
}

template <class Io, Record_of<Trace_ok> T>
void fields(Io& io, T& trace)
{
    io.u64(trace.trace_id);
    io.list(trace.spans);
}

template <class Io, Record_of<Error_pdu> T>
void fields(Io& io, T& error)
{
    io.enumerated(error.code, Protocol_error_code::bad_magic, Protocol_error_code::io,
                  "protocol error code");
    io.str(error.message);
    io.flag(error.retryable);
}

// ---------------------------------------------------------------------------
// encode / decode
// ---------------------------------------------------------------------------

template <Payload Pdu>
std::string encode(const Pdu& pdu)
{
    Byte_writer out;
    fields(out, pdu);
    return out.take();
}

/// Byte_reader's failures (plain std::runtime_error) and the trailing-byte
/// check become typed bad_payload errors naming the PDU, so a damaged
/// payload is a diagnosable rejection, never a crash or a raw internal
/// error leaking to the wire. Trailing bytes mean the payload was composed
/// by a different (newer) codec than the type byte claims — rejected
/// rather than half-read.
template <Payload Pdu>
Pdu decode(std::string_view payload)
{
    try {
        Byte_reader in(payload, protocol_max_graph_slots);
        Pdu pdu;
        fields(in, pdu);
        if (!in.at_end())
            throw std::runtime_error(std::to_string(in.remaining()) +
                                     " trailing bytes after payload");
        return pdu;
    } catch (const std::exception& error) {
        throw Protocol_error(Protocol_error_code::bad_payload,
                             std::string(to_string(Pdu::pdu_type)) + ": " + error.what());
    }
}

template std::string encode(const Hello&);
template std::string encode(const Hello_ok&);
template std::string encode(const Submit&);
template std::string encode(const Submit_ok&);
template std::string encode(const Batch_submit&);
template std::string encode(const Batch_ok&);
template std::string encode(const Poll&);
template std::string encode(const Poll_ok&);
template std::string encode(const Cancel&);
template std::string encode(const Cancel_ok&);
template std::string encode(const Stats_ok&);
template std::string encode(const Metrics_ok&);
template std::string encode(const Trace_request&);
template std::string encode(const Trace_ok&);
template std::string encode(const Error_pdu&);

template Hello decode<Hello>(std::string_view);
template Hello_ok decode<Hello_ok>(std::string_view);
template Submit decode<Submit>(std::string_view);
template Submit_ok decode<Submit_ok>(std::string_view);
template Batch_submit decode<Batch_submit>(std::string_view);
template Batch_ok decode<Batch_ok>(std::string_view);
template Poll decode<Poll>(std::string_view);
template Poll_ok decode<Poll_ok>(std::string_view);
template Cancel decode<Cancel>(std::string_view);
template Cancel_ok decode<Cancel_ok>(std::string_view);
template Stats_ok decode<Stats_ok>(std::string_view);
template Metrics_ok decode<Metrics_ok>(std::string_view);
template Trace_request decode<Trace_request>(std::string_view);
template Trace_ok decode<Trace_ok>(std::string_view);
template Error_pdu decode<Error_pdu>(std::string_view);

} // namespace xrl
