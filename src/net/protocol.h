// The xrlflow wire protocol: versioned, length-prefixed, checksummed
// frames carrying request/response PDUs between clients and the xrlflowd
// daemon (net/daemon.h).
//
// Frame layout (all integers little-endian, floats as IEEE-754 bit
// patterns — the same byte composition record files use):
//
//   offset size  field
//   0      4     magic  0x464C5258 ("XRLF")
//   4      1     protocol version of this frame
//   5      1     PDU type (Pdu_type)
//   6      4     payload size N
//   10     N     payload (the PDU's field list in protocol.cpp)
//   10+N   8     FNV-1a checksum over bytes [0, 10+N)
//
// Version negotiation: the first frame on a connection is `hello`, always
// framed as version 1 (the floor every speaker shares), proposing the
// client's highest supported version; the daemon answers `hello_ok` with
// the negotiated version — min(client's, ours) — and every subsequent
// frame in either direction must carry it. A proposal below the daemon's
// floor, or a later frame with any other version byte, earns a typed
// `error` PDU.
//
// Fault tolerance follows the record_file contract: a malformed frame —
// bad magic, bad checksum, oversized or truncated length, unknown type,
// undecodable payload, future version — is *never* a crash on either
// side. The daemon answers with an `error` PDU naming a Protocol_error_code
// and closes the connection when the stream can no longer be trusted
// (framing damage); the client library throws Protocol_error. Payload
// field lists embed the bit-exact layouts the warm-start layer already
// trusts: graphs via serialise_graph_binary (ir/graph_io.h), results via
// core/result_serial.h — so a remote result is byte-identical to the
// in-process one.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/optimizer_api.h"
#include "net/connection.h"
#include "serve/job.h"
#include "serve/router.h"
#include "support/record_file.h"
#include "support/trace.h"

namespace xrl {

inline constexpr std::uint32_t protocol_magic = 0x464C5258; // "XRLF"

/// Highest protocol version this build speaks; hello frames are always
/// framed as version 1 so any future speaker can still negotiate down.
inline constexpr std::uint8_t protocol_version = 1;

/// Frames larger than this are rejected before any allocation — an
/// oversized length prefix is indistinguishable from corruption.
inline constexpr std::size_t protocol_max_payload = 64u << 20;

/// Graph slots (alive nodes and tombstones) one payload may make the
/// decoder allocate, summed over every graph it carries: submit's graph,
/// each batch entry's, poll_ok's result graph. A tombstone is one wire
/// byte but a whole Node in memory, so the payload cap alone does not
/// bound a decode; past this budget decoding fails with bad_payload
/// before allocating. Paper-scale searches peak near 1.1k slots.
inline constexpr std::uint64_t protocol_max_graph_slots = 1u << 18;

inline constexpr std::size_t protocol_header_size = 10; // magic + version + type + length
inline constexpr std::size_t protocol_checksum_size = 8;

// ---------------------------------------------------------------------------
// PDU types and error taxonomy
// ---------------------------------------------------------------------------

enum class Pdu_type : std::uint8_t {
    hello = 1,        ///< client → daemon: version proposal + client name.
    hello_ok = 2,     ///< daemon → client: negotiated version + fleet info.
    submit = 3,       ///< one (backend, request, graph) + scheduling options.
    submit_ok = 4,    ///< wire job id + coalesced flag.
    batch_submit = 5, ///< a deployment's model set under one budget/deadline.
    batch_ok = 6,     ///< wire job ids, in entry order.
    poll = 7,         ///< job id + bounded server-side wait.
    poll_ok = 8,      ///< state, progress snapshot, result when terminal.
    cancel = 9,       ///< withdraw interest in a job.
    cancel_ok = 10,   ///< state after the cancel took effect.
    stats = 11,       ///< no payload.
    stats_ok = 12,    ///< router + daemon counters.
    drain = 13,       ///< block until the fleet is idle and snapshotted.
    drain_ok = 14,    ///< drain finished.
    error = 15,       ///< typed failure; may be terminal for the connection.
    metrics = 16,     ///< no payload; scrape the daemon's metrics plane.
    metrics_ok = 17,  ///< Prometheus text exposition of the whole process.
    trace = 18,       ///< fetch buffered spans for a job / trace id.
    trace_ok = 19,    ///< the matching spans, oldest first.
};

const char* to_string(Pdu_type type);

/// The underlying type is the code's wire width in the `error` PDU.
enum class Protocol_error_code : std::uint32_t {
    bad_magic = 1,           ///< Frame does not start with "XRLF".
    bad_checksum = 2,        ///< Frame bytes do not hash to the trailer.
    truncated = 3,           ///< Stream ended inside a frame.
    frame_too_large = 4,     ///< Length prefix exceeds the payload cap.
    unsupported_version = 5, ///< Future version proposed or stamped on a frame.
    unknown_type = 6,        ///< PDU type byte not in Pdu_type.
    bad_payload = 7,         ///< Frame intact, payload undecodable.
    invalid_request = 8,     ///< Decoded fine, rejected by validate_request etc.
    unknown_job = 9,         ///< poll/cancel for an id the daemon does not hold.
    busy = 10,               ///< Admin operation already in progress.
    shutting_down = 11,      ///< Daemon is stopping; no new work.
    io = 12,                 ///< Transport failure surfaced through the protocol layer.
};

const char* to_string(Protocol_error_code code);

/// Whether a failure with this code is worth retrying (possibly against a
/// reconnected daemon): transient transport/framing damage and load states
/// are; malformed or unserviceable *requests* are not — resending the same
/// bytes earns the same answer. The table is part of the protocol contract
/// (documented in PROTOCOL.md) so both sides and every client agree.
bool retryable(Protocol_error_code code);

/// The typed failure both sides speak. Thrown by the client library for
/// local decode failures and for `error` PDUs received from the daemon
/// (`remote() == true`); the daemon never throws it across a connection —
/// it answers with an `error` PDU instead. `retryable()` defaults to the
/// protocol table for the code; a remote error carries the daemon's
/// explicit verdict instead (same table today, but the daemon's word
/// wins if they ever diverge).
class Protocol_error : public std::runtime_error {
public:
    Protocol_error(Protocol_error_code code, const std::string& message, bool remote = false)
        : std::runtime_error(message), code_(code), remote_(remote),
          retryable_(xrl::retryable(code))
    {
    }

    Protocol_error(Protocol_error_code code, const std::string& message, bool remote,
                   bool retryable_override)
        : std::runtime_error(message), code_(code), remote_(remote),
          retryable_(retryable_override)
    {
    }

    Protocol_error_code code() const { return code_; }
    bool remote() const { return remote_; }
    bool retryable() const { return retryable_; }

private:
    Protocol_error_code code_;
    bool remote_;
    bool retryable_;
};

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

struct Frame {
    std::uint8_t version = protocol_version;
    Pdu_type type = Pdu_type::error;
    std::string payload;
};

/// Compose one frame (header + payload + checksum) as raw bytes.
std::string encode_frame(std::uint8_t version, Pdu_type type, std::string_view payload);

/// Decode a whole frame from a flat buffer (tests and fuzzing drive this
/// directly; the streaming path below shares its checks). Throws
/// Protocol_error with the precise code.
Frame decode_frame(std::string_view bytes, std::size_t max_payload = protocol_max_payload);

void write_frame(Connection& connection, std::uint8_t version, Pdu_type type,
                 std::string_view payload);

/// Read the next frame off the stream. nullopt on a clean end-of-stream at
/// a frame boundary (the peer finished and hung up); Protocol_error
/// {truncated} when the stream dies inside a frame, {bad_magic /
/// bad_checksum / frame_too_large / unknown_type} for damage. Transport
/// timeouts and resets surface as Net_error.
std::optional<Frame> read_frame(Connection& connection,
                                std::size_t max_payload = protocol_max_payload);

// ---------------------------------------------------------------------------
// PDU payloads
// ---------------------------------------------------------------------------

struct Hello {
    static constexpr Pdu_type pdu_type = Pdu_type::hello;

    std::uint8_t proposed_version = protocol_version;
    std::string client_name;
};

struct Hello_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::hello_ok;

    std::uint8_t negotiated_version = protocol_version;
    /// The daemon's *highest* supported version, distinct from the
    /// negotiated one — lets a client (and `xrlflowctl stats`) report when
    /// the daemon could speak newer than the session does.
    std::uint8_t server_protocol_version = protocol_version;
    std::string server_name;
    std::uint32_t shard_count = 0;
    std::vector<std::string> backends; ///< Registered backend names, sorted.
};

/// One optimisation submission. The request's progress callback cannot
/// travel (documented in PROTOCOL.md); progress comes back through poll.
struct Submit {
    static constexpr Pdu_type pdu_type = Pdu_type::submit;

    std::string backend;
    Optimize_request request;
    Graph graph;
    std::int32_t priority = 0;
    double deadline_seconds = 0.0;
    /// Client-chosen idempotency key; 0 = none. A resubmit carrying the
    /// key of a submit the daemon already answered gets the *original*
    /// reply replayed byte-identically instead of scheduling a second
    /// search — how a retry after a lost reply stays at-most-once. See
    /// PROTOCOL.md "Retry semantics".
    std::uint64_t request_key = 0;
    /// Client-stamped trace identity (support/trace.h); 0 = untraced. The
    /// daemon joins this trace for its own spans and carries it through
    /// router → shard → optimizer, so `xrlflowctl trace` reconstructs the
    /// job end to end. `parent_span` is the client-side span the daemon's
    /// spans nest under.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
};

struct Submit_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::submit_ok;

    std::uint64_t job_id = 0;
    bool coalesced = false;
};

/// A deployment's whole model set under one scheduling envelope: every
/// entry shares the batch deadline and priority, and entries that carry no
/// wall-clock budget of their own split `budget_seconds` evenly — one
/// request, one budget, N models, exactly as a deployment rollout wants.
struct Batch_submit {
    static constexpr Pdu_type pdu_type = Pdu_type::batch_submit;

    struct Entry {
        std::string backend;
        Optimize_request request;
        Graph graph;
    };
    std::vector<Entry> entries;
    double budget_seconds = 0.0;   ///< Shared wall budget; 0 = per-entry budgets only.
    double deadline_seconds = 0.0; ///< Applied to every entry; 0 = none.
    std::int32_t priority = 0;
    /// Idempotency key for the whole batch (one key, one reply); 0 = none.
    /// Same replay contract as Submit::request_key.
    std::uint64_t request_key = 0;
    /// Trace identity shared by every entry; same contract as on Submit.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
};

struct Batch_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::batch_ok;

    std::vector<Submit_ok> jobs; ///< In entry order.
};

struct Poll {
    static constexpr Pdu_type pdu_type = Pdu_type::poll;

    std::uint64_t job_id = 0;
    /// Server-side wait for a terminal state before answering, capped by
    /// the daemon (Daemon::poll_wait_cap_seconds) so a slow search
    /// cannot pin a daemon worker; clients long-poll in a loop.
    double wait_seconds = 0.0;
};

struct Poll_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::poll_ok;

    std::uint64_t job_id = 0;
    Job_state state = Job_state::queued;
    /// Reject reason (rejected) or backend error text (failed); "" else.
    std::string message;
    std::optional<Optimize_progress> progress; ///< Latest heartbeat snapshot.
    std::optional<Optimize_result> result;     ///< Present in done / cancelled.
};

struct Cancel {
    static constexpr Pdu_type pdu_type = Pdu_type::cancel;

    std::uint64_t job_id = 0;
};

struct Cancel_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::cancel_ok;

    std::uint64_t job_id = 0;
    Job_state state = Job_state::queued; ///< State observed after the cancel.
};

/// Daemon-level counters riding next to the router's in stats_ok.
struct Daemon_wire_stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_active = 0;
    std::uint64_t connections_rejected = 0; ///< Over max_connections.
    std::uint64_t frames_received = 0;
    std::uint64_t protocol_errors = 0; ///< Malformed frames answered with `error`.
    std::uint64_t jobs_submitted = 0;  ///< Wire jobs (batch entries count singly).
    std::uint64_t jobs_retained = 0;   ///< Live entries in the daemon's job table.
    /// Submits answered from the keyed-reply cache (a retry whose original
    /// was already accepted) rather than scheduled again.
    std::uint64_t jobs_deduplicated = 0;
};

struct Stats_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::stats_ok;

    Router_stats router;
    Daemon_wire_stats daemon;
};

/// metrics has no payload; the reply is the whole process's Prometheus
/// text exposition (Metrics_registry::global().expose() after the daemon
/// refreshes its scrape-time gauges).
struct Metrics_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::metrics_ok;

    std::string exposition;
};

/// Span fetch: by daemon job id (the daemon maps it to the job's trace),
/// by raw trace id, or everything buffered when both are 0. Exactly one of
/// job_id / trace_id should be nonzero otherwise.
struct Trace_request {
    static constexpr Pdu_type pdu_type = Pdu_type::trace;

    std::uint64_t job_id = 0;
    std::uint64_t trace_id = 0;
};

struct Trace_ok {
    static constexpr Pdu_type pdu_type = Pdu_type::trace_ok;

    std::uint64_t trace_id = 0; ///< Resolved trace (0 for an all-spans dump).
    std::vector<Trace_span> spans;
};

struct Error_pdu {
    static constexpr Pdu_type pdu_type = Pdu_type::error;

    Protocol_error_code code = Protocol_error_code::bad_payload;
    std::string message;
    /// The daemon's verdict on whether resending can help; defaults to
    /// the protocol table when composed via the daemon's error path.
    bool retryable = false;
};

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------
//
// Each payload struct above (and each sub-record it nests) has one field
// list, `fields(Io&, T&)` in protocol.cpp, that both encode and decode run
// (support/record_file.h), so a layout is stated exactly once. decode
// throws Protocol_error{bad_payload} on malformed input — a short read, a
// corrupt count, an out-of-range enum, a future version tag, trailing
// bytes, or graphs over protocol_max_graph_slots — and never reads out of
// bounds. Field-count static_asserts in protocol.cpp keep every list in
// lockstep with its struct.

/// A payload struct: one that names its Pdu_type.
template <class T>
concept Payload = std::same_as<decltype(T::pdu_type), const Pdu_type>;

template <Payload Pdu>
std::string encode(const Pdu& pdu);

template <Payload Pdu>
Pdu decode(std::string_view payload);

} // namespace xrl
