// The network serving plane: frame codec round trips and fault injection
// (truncated frames, flipped checksum bytes, oversized length prefixes,
// future versions — the record-file contract applied to the wire), and the
// xrlflowd daemon + client library end-to-end over loopback: submit /
// batch / poll / cancel / stats / drain, with remote results proven
// bit-identical to direct Optimization_service calls. Runs in CI's
// ThreadSanitizer job alongside test_server.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/optimization_service.h"
#include "core/result_serial.h"
#include "ir/builder.h"
#include "net/client.h"
#include "net/connection.h"
#include "net/daemon.h"
#include "net/protocol.h"
#include "serve/state_store.h"
#include "support/metrics.h"

namespace xrl {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

struct Scoped_dir {
    fs::path path;

    Scoped_dir()
    {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        path = fs::temp_directory_path() / (std::string("xrlflow_net_") + info->name());
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~Scoped_dir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

/// The quickstart graph (paper Figure 1): y = relu(x.w + b).
Graph quickstart_graph()
{
    Graph_builder b;
    const Edge x = b.input({4, 32}, "x");
    const Edge w = b.weight({32, 16}, "w");
    const Edge bias = b.weight({16}, "b");
    return b.finish({b.relu(b.add(b.matmul(x, w), bias))});
}

/// Structurally distinct variants (different widths => different hashes).
Graph variant_graph(int n)
{
    Graph_builder b;
    const Edge x = b.input({4, 24 + n}, "x");
    const Edge w = b.weight({24 + n, 12});
    return b.finish({b.relu(b.matmul(x, w))});
}

/// Smoke-scale budgets, matching the daemon binary's --smoke.
Service_config smoke_service()
{
    Service_config config;
    config.backend_options["taso.budget"] = 15;
    config.backend_options["pet.budget"] = 8;
    config.backend_options["tensat.max_iterations"] = 2;
    config.backend_options["xrlflow.episodes"] = 1;
    config.backend_options["xrlflow.max_steps"] = 4;
    config.backend_options["xrlflow.hidden_dim"] = 8;
    config.backend_options["xrlflow.max_candidates"] = 15;
    return config;
}

Daemon_config smoke_daemon(std::size_t shards = 1, bool start_paused = false)
{
    Daemon_config config;
    config.router.shards.resize(shards);
    for (Shard_config& shard : config.router.shards) {
        shard.server.service = smoke_service();
        shard.server.start_paused = start_paused;
    }
    // Short transport deadlines so a deadlocked test fails in seconds,
    // not minutes.
    config.timeouts.connect_seconds = 5.0;
    config.timeouts.read_seconds = 10.0;
    config.timeouts.write_seconds = 10.0;
    return config;
}

Client_config client_for(const Daemon& daemon)
{
    Client_config config;
    config.host = daemon.host();
    config.port = daemon.port();
    config.timeouts.connect_seconds = 5.0;
    config.timeouts.read_seconds = 10.0;
    config.timeouts.write_seconds = 10.0;
    return config;
}

/// Bit-exact comparison form: only the wall-clock measurements (and the
/// cache marker) may differ between a remote and a local run of the same
/// deterministic search.
std::string comparable_bytes(Optimize_result result)
{
    result.wall_seconds = 0.0;
    result.from_cache = false;
    result.metadata.erase("training_seconds");
    return result_to_bytes(result);
}

Protocol_error_code code_of(const std::function<void()>& fn)
{
    try {
        fn();
    } catch (const Protocol_error& error) {
        return error.code();
    }
    ADD_FAILURE() << "expected Protocol_error";
    return Protocol_error_code::io;
}

// ---------------------------------------------------------------------------
// Frame codec: round trips
// ---------------------------------------------------------------------------

TEST(NetProtocol, FrameRoundTrip)
{
    const std::string payload = "some payload bytes \x00\x01\x02";
    const std::string bytes = encode_frame(protocol_version, Pdu_type::submit, payload);
    const Frame frame = decode_frame(bytes);
    EXPECT_EQ(frame.version, protocol_version);
    EXPECT_EQ(frame.type, Pdu_type::submit);
    EXPECT_EQ(frame.payload, payload);
}

TEST(NetProtocol, SubmitRoundTripCarriesEverything)
{
    Submit submit;
    submit.backend = "taso";
    submit.request.time_budget_seconds = 1.5;
    submit.request.iteration_budget = 42;
    submit.request.seed = 123;
    submit.request.deterministic = false;
    submit.request.device = Target_device("gpu0");
    submit.graph = quickstart_graph();
    submit.priority = -3;
    submit.deadline_seconds = 9.5;

    const Submit decoded = decode<Submit>(encode(submit));
    EXPECT_EQ(decoded.backend, "taso");
    EXPECT_EQ(decoded.request.time_budget_seconds, 1.5);
    EXPECT_EQ(decoded.request.iteration_budget, 42);
    EXPECT_EQ(decoded.request.seed, 123U);
    EXPECT_FALSE(decoded.request.deterministic);
    EXPECT_EQ(decoded.request.device.name, "gpu0");
    EXPECT_EQ(decoded.graph.canonical_hash(), submit.graph.canonical_hash());
    EXPECT_EQ(decoded.priority, -3);
    EXPECT_EQ(decoded.deadline_seconds, 9.5);
}

TEST(NetProtocol, InlineDeviceProfileTravels)
{
    Device_profile profile;
    profile.name = "sim-a100";
    profile.flops_per_ms = 2.0e9;
    profile.bytes_per_ms = 1.0e9;
    Submit submit;
    submit.backend = "pet";
    submit.request.device = Target_device(profile);
    submit.graph = quickstart_graph();

    const Submit decoded = decode<Submit>(encode(submit));
    ASSERT_TRUE(decoded.request.device.profile.has_value());
    EXPECT_EQ(decoded.request.device.profile->fingerprint(), profile.fingerprint());
}

TEST(NetProtocol, PollOkRoundTripWithProgressAndResult)
{
    Poll_ok ok;
    ok.job_id = 7;
    ok.state = Job_state::done;
    ok.progress = Optimize_progress{"taso", 12, 3.25, 0.5};
    Optimize_result result;
    result.best_graph = quickstart_graph();
    result.backend = "taso";
    result.device = "sim";
    result.initial_ms = 2.0;
    result.final_ms = 1.0;
    result.steps = 12;
    result.rule_counts["fuse"] = 3;
    result.metadata["alpha"] = 1.05;
    ok.result = result;

    const Poll_ok decoded = decode<Poll_ok>(encode(ok));
    EXPECT_EQ(decoded.job_id, 7U);
    EXPECT_EQ(decoded.state, Job_state::done);
    ASSERT_TRUE(decoded.progress.has_value());
    EXPECT_EQ(decoded.progress->step, 12);
    ASSERT_TRUE(decoded.result.has_value());
    EXPECT_EQ(result_to_bytes(*decoded.result), result_to_bytes(result));
}

TEST(NetProtocol, BatchRoundTripPreservesOrder)
{
    Batch_submit batch;
    batch.budget_seconds = 6.0;
    batch.deadline_seconds = 30.0;
    batch.priority = 2;
    for (int n = 0; n < 3; ++n) {
        Batch_submit::Entry entry;
        entry.backend = n % 2 == 0 ? "taso" : "pet";
        entry.graph = variant_graph(n);
        batch.entries.push_back(std::move(entry));
    }
    const Batch_submit decoded = decode<Batch_submit>(encode(batch));
    ASSERT_EQ(decoded.entries.size(), 3U);
    EXPECT_EQ(decoded.budget_seconds, 6.0);
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(decoded.entries[static_cast<std::size_t>(n)].graph.canonical_hash(),
                  variant_graph(n).canonical_hash());
}

TEST(NetProtocol, StatsOkRoundTrip)
{
    Stats_ok stats;
    stats.router.submitted = 9;
    stats.router.total.completed = 7;
    stats.router.total.inflight = 2;
    stats.router.total.peak_queue_depth = 5;
    stats.router.total.backends["taso"].completed = 4;
    stats.router.shards.resize(2);
    stats.router.shards[1].queue_depth = 3;
    stats.router.routed_to = {4, 5};
    stats.daemon.connections_accepted = 11;
    stats.daemon.jobs_submitted = 9;

    const Stats_ok decoded = decode<Stats_ok>(encode(stats));
    EXPECT_EQ(decoded.router.submitted, 9U);
    EXPECT_EQ(decoded.router.total.completed, 7U);
    EXPECT_EQ(decoded.router.total.inflight, 2U);
    EXPECT_EQ(decoded.router.total.peak_queue_depth, 5U);
    EXPECT_EQ(decoded.router.total.backends.at("taso").completed, 4U);
    ASSERT_EQ(decoded.router.shards.size(), 2U);
    EXPECT_EQ(decoded.router.shards[1].queue_depth, 3U);
    EXPECT_EQ(decoded.router.routed_to, (std::vector<std::uint64_t>{4, 5}));
    EXPECT_EQ(decoded.daemon.connections_accepted, 11U);
}

// ---------------------------------------------------------------------------
// Frame codec: fault injection
// ---------------------------------------------------------------------------

TEST(NetProtocol, TruncatedFrameIsTyped)
{
    std::string bytes = encode_frame(1, Pdu_type::poll, encode(Poll{5, 0.0}));
    bytes.resize(bytes.size() - 3);
    EXPECT_EQ(code_of([&] { (void)decode_frame(bytes); }), Protocol_error_code::truncated);
    // So short not even the header survives.
    EXPECT_EQ(code_of([&] { (void)decode_frame(bytes.substr(0, 4)); }),
              Protocol_error_code::truncated);
}

TEST(NetProtocol, FlippedBytesAreTyped)
{
    const std::string intact = encode_frame(1, Pdu_type::poll, encode(Poll{5, 0.0}));

    std::string bad_magic = intact;
    bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5a);
    EXPECT_EQ(code_of([&] { (void)decode_frame(bad_magic); }), Protocol_error_code::bad_magic);

    // A flipped payload byte no longer hashes to the trailer.
    std::string bad_payload = intact;
    bad_payload[protocol_header_size] =
        static_cast<char>(bad_payload[protocol_header_size] ^ 0x5a);
    EXPECT_EQ(code_of([&] { (void)decode_frame(bad_payload); }),
              Protocol_error_code::bad_checksum);

    // A flipped checksum byte too.
    std::string bad_trailer = intact;
    bad_trailer.back() = static_cast<char>(bad_trailer.back() ^ 0x5a);
    EXPECT_EQ(code_of([&] { (void)decode_frame(bad_trailer); }),
              Protocol_error_code::bad_checksum);
}

TEST(NetProtocol, OversizedLengthPrefixIsTypedBeforeAllocation)
{
    // Hand-build a header whose length prefix claims 1 GiB.
    Byte_writer out;
    out.u32(protocol_magic);
    out.u8(1);
    out.u8(static_cast<std::uint8_t>(Pdu_type::poll));
    out.u32(1u << 30);
    std::string bytes = out.take();
    bytes.append(protocol_checksum_size, '\0');
    EXPECT_EQ(code_of([&] { (void)decode_frame(bytes); }), Protocol_error_code::frame_too_large);
}

TEST(NetProtocol, UnknownTypeIsTypedOnlyWhenChecksumClean)
{
    // A clean-hashing frame with a type byte from the future: distinguish
    // "future speaker" from damage.
    const std::string bytes = encode_frame(1, static_cast<Pdu_type>(99), "payload");
    EXPECT_EQ(code_of([&] { (void)decode_frame(bytes); }), Protocol_error_code::unknown_type);
}

TEST(NetProtocol, UndecodablePayloadIsTyped)
{
    EXPECT_EQ(code_of([] { (void)decode<Submit>("garbage"); }), Protocol_error_code::bad_payload);
    EXPECT_EQ(code_of([] { (void)decode<Poll_ok>(""); }), Protocol_error_code::bad_payload);
    // Trailing bytes mean a codec mismatch, not a prefix to accept.
    std::string padded = encode(Poll{5, 0.0});
    padded += "x";
    EXPECT_EQ(code_of([&] { (void)decode<Poll>(padded); }), Protocol_error_code::bad_payload);
}

// ---------------------------------------------------------------------------
// Loopback: submit / poll parity with the in-process service
// ---------------------------------------------------------------------------

TEST(NetLoopback, RemoteOptimizeIsBitIdenticalToLocalService)
{
    Daemon daemon(smoke_daemon());
    Client client(client_for(daemon));
    EXPECT_EQ(client.negotiated_version(), protocol_version);
    EXPECT_EQ(client.server_name(), "xrlflowd");
    EXPECT_FALSE(client.backends().empty());

    const Graph graph = quickstart_graph();
    for (const std::string backend : {"taso", "pet"}) {
        const Optimize_result remote = client.optimize(backend, graph);
        Optimization_service reference(smoke_service());
        const Optimize_result local = reference.optimize(backend, graph);
        EXPECT_EQ(comparable_bytes(remote), comparable_bytes(local))
            << backend << ": remote result differs from the in-process service";
    }
}

TEST(NetLoopback, BatchSubmitSharesTheBudgetAndAnswersInOrder)
{
    Daemon daemon(smoke_daemon(2));
    Client client(client_for(daemon));

    Batch_submit batch;
    batch.budget_seconds = 30.0; // split three ways; smoke searches finish early
    batch.priority = 1;
    for (int n = 0; n < 3; ++n) {
        Batch_submit::Entry entry;
        entry.backend = "taso";
        entry.graph = variant_graph(n);
        batch.entries.push_back(std::move(entry));
    }
    const Batch_ok submitted = client.batch_submit(batch);
    ASSERT_EQ(submitted.jobs.size(), 3U);

    Optimization_service reference(smoke_service());
    for (int n = 0; n < 3; ++n) {
        const Optimize_result remote = client.wait(submitted.jobs[static_cast<std::size_t>(n)].job_id);
        Optimize_request request;
        request.time_budget_seconds = 10.0; // 30 / 3: the daemon's even split
        const Optimize_result local = reference.optimize("taso", variant_graph(n), request);
        EXPECT_EQ(comparable_bytes(remote), comparable_bytes(local)) << "entry " << n;
    }

    const Stats_ok stats = client.stats();
    EXPECT_EQ(stats.daemon.jobs_submitted, 3U);
    EXPECT_EQ(stats.router.submitted, 3U);
}

TEST(NetLoopback, EmptyBatchIsRejectedTyped)
{
    Daemon daemon(smoke_daemon());
    Client client(client_for(daemon));
    try {
        (void)client.batch_submit({});
        FAIL() << "expected Protocol_error";
    } catch (const Protocol_error& error) {
        EXPECT_EQ(error.code(), Protocol_error_code::invalid_request);
        EXPECT_TRUE(error.remote());
    }
}

TEST(NetLoopback, PollStreamsStateAndCancelWithdrawsInterest)
{
    // A paused shard keeps jobs queued, so the lifecycle is deterministic.
    Daemon daemon(smoke_daemon(1, /*start_paused=*/true));
    Client client(client_for(daemon));

    const Submit_ok first = client.submit("taso", quickstart_graph());
    const Submit_ok duplicate = client.submit("taso", quickstart_graph());
    EXPECT_FALSE(first.coalesced);
    EXPECT_TRUE(duplicate.coalesced); // identical request attached in-flight
    EXPECT_NE(first.job_id, duplicate.job_id);

    EXPECT_EQ(client.poll(first.job_id).state, Job_state::queued);

    const Submit_ok doomed = client.submit("taso", variant_graph(1));
    const Cancel_ok cancelled = client.cancel(doomed.job_id);
    EXPECT_EQ(cancelled.state, Job_state::cancelled); // queued cancel is immediate
    const Poll_ok after = client.poll(doomed.job_id);
    EXPECT_EQ(after.state, Job_state::cancelled);
    ASSERT_TRUE(after.result.has_value()); // best-so-far: the input graph
    EXPECT_EQ(after.result->best_graph.canonical_hash(),
              variant_graph(1).canonical_hash());

    daemon.router().shard(0).resume();
    const Optimize_result result = client.wait(first.job_id);
    EXPECT_GT(result.final_ms, 0.0);
    // The coalesced duplicate resolves to the very same result.
    EXPECT_EQ(result_to_bytes(client.wait(duplicate.job_id)), result_to_bytes(result));
}

TEST(NetLoopback, TypedErrorsForUnknownJobAndInvalidRequest)
{
    Daemon daemon(smoke_daemon());
    Client client(client_for(daemon));

    EXPECT_EQ(code_of([&] { (void)client.poll(9999); }), Protocol_error_code::unknown_job);
    EXPECT_EQ(code_of([&] { (void)client.cancel(9999); }), Protocol_error_code::unknown_job);
    EXPECT_EQ(code_of([&] { (void)client.submit("no-such-backend", quickstart_graph()); }),
              Protocol_error_code::invalid_request);

    Optimize_request negative;
    negative.time_budget_seconds = -1.0;
    EXPECT_EQ(code_of([&] { (void)client.submit("taso", quickstart_graph(), negative); }),
              Protocol_error_code::invalid_request);

    // The daemon survived all of it.
    EXPECT_GT(client.optimize("taso", quickstart_graph()).final_ms, 0.0);
}

TEST(NetLoopback, StatsCarryQueueDepthInflightAndWireCounters)
{
    Daemon daemon(smoke_daemon(1, /*start_paused=*/true));
    Client client(client_for(daemon));

    for (int n = 0; n < 3; ++n) (void)client.submit("taso", variant_graph(n));

    Stats_ok stats = client.stats();
    EXPECT_EQ(stats.router.total.queue_depth, 3U);
    EXPECT_EQ(stats.router.total.inflight, 3U);
    EXPECT_GE(stats.router.total.peak_queue_depth, 3U);
    EXPECT_EQ(stats.daemon.jobs_submitted, 3U);
    EXPECT_EQ(stats.daemon.jobs_retained, 3U);
    EXPECT_EQ(stats.daemon.connections_active, 1U);
    EXPECT_GE(stats.daemon.frames_received, 4U); // 3 submits + this stats
    EXPECT_EQ(stats.daemon.protocol_errors, 0U);

    daemon.router().shard(0).resume();
    client.drain();
    stats = client.stats();
    EXPECT_EQ(stats.router.total.queue_depth, 0U);
    EXPECT_EQ(stats.router.total.running, 0U);
    EXPECT_EQ(stats.router.total.inflight, 0U);
    EXPECT_GE(stats.router.total.peak_running, 1U);
    EXPECT_EQ(stats.router.total.completed, 3U);
}

TEST(NetLoopback, ConcurrentClientsEachGetTheirOwnResults)
{
    Daemon daemon(smoke_daemon(2));
    constexpr int clients = 4;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            try {
                Client client(client_for(daemon));
                const Optimize_result result = client.optimize("taso", variant_graph(c));
                if (result.best_graph.canonical_hash() == 0) ++failures;
            } catch (...) {
                ++failures;
            }
        });
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(daemon.stats().connections_accepted, static_cast<std::uint64_t>(clients));
    EXPECT_EQ(daemon.router().stats().submitted, static_cast<std::uint64_t>(clients));
}

TEST(NetLoopback, ConnectionLimitGetsTypedBusy)
{
    Daemon_config config = smoke_daemon();
    config.max_connections = 1;
    Daemon daemon(config);

    Client first(client_for(daemon));
    try {
        Client second(client_for(daemon));
        FAIL() << "expected Protocol_error{busy}";
    } catch (const Protocol_error& error) {
        EXPECT_EQ(error.code(), Protocol_error_code::busy);
        EXPECT_TRUE(error.remote());
    }
    // The admitted client still works.
    EXPECT_GT(first.optimize("taso", quickstart_graph()).final_ms, 0.0);
}

TEST(NetLoopback, StopSnapshotsWarmStateForTheNextDaemon)
{
    Scoped_dir dir;
    const Graph graph = quickstart_graph();
    Optimize_result first_result;
    {
        Daemon_config config = smoke_daemon();
        config.state_store = std::make_shared<State_store>(State_store_config{dir.str()});
        Daemon daemon(config);
        Client client(client_for(daemon));
        first_result = client.optimize("taso", graph);
        client.close();
        daemon.stop(); // the SIGTERM path: drain + snapshot
    }
    // A restarted daemon over the same store answers from its warm memo.
    Daemon_config config = smoke_daemon();
    config.state_store = std::make_shared<State_store>(State_store_config{dir.str()});
    Daemon daemon(config);
    Client client(client_for(daemon));
    const Optimize_result warm = client.optimize("taso", graph);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(comparable_bytes(warm), comparable_bytes(first_result));
}

// ---------------------------------------------------------------------------
// Loopback: fault injection against the daemon
// ---------------------------------------------------------------------------

/// Raw-socket attacker: sends `bytes`, returns the daemon's reply error
/// code (reading one frame), then proves the daemon still serves others.
Protocol_error_code daemon_error_for(const Daemon& daemon, const std::string& bytes)
{
    Connection raw = Connection::connect(daemon.host(), daemon.port(), {5.0, 10.0, 10.0});
    raw.send_all(bytes);
    const std::optional<Frame> reply = read_frame(raw);
    if (!reply.has_value()) {
        ADD_FAILURE() << "daemon closed without a typed error";
        return Protocol_error_code::io;
    }
    EXPECT_EQ(reply->type, Pdu_type::error);
    return decode<Error_pdu>(reply->payload).code;
}

TEST(NetFaultInjection, DaemonAnswersTypedErrorsAndNeverDies)
{
    Daemon daemon(smoke_daemon());

    // Garbage that is not even a header.
    EXPECT_EQ(daemon_error_for(daemon, std::string(32, 'Z')), Protocol_error_code::bad_magic);

    // A well-formed hello frame with one flipped payload byte.
    std::string flipped = encode_frame(1, Pdu_type::hello, encode(Hello{1, "evil"}));
    flipped[protocol_header_size] = static_cast<char>(flipped[protocol_header_size] ^ 0x5a);
    EXPECT_EQ(daemon_error_for(daemon, flipped), Protocol_error_code::bad_checksum);

    // An oversized length prefix: rejected from the header alone.
    Byte_writer oversized;
    oversized.u32(protocol_magic);
    oversized.u8(1);
    oversized.u8(static_cast<std::uint8_t>(Pdu_type::hello));
    oversized.u32(1u << 30);
    EXPECT_EQ(daemon_error_for(daemon, oversized.take()), Protocol_error_code::frame_too_large);

    // A truncated frame: the header promises more bytes than ever arrive.
    {
        Connection raw = Connection::connect(daemon.host(), daemon.port(), {5.0, 10.0, 10.0});
        const std::string intact = encode_frame(1, Pdu_type::hello, encode(Hello{1, "half"}));
        raw.send_all(intact.substr(0, intact.size() - 5));
        raw.shutdown_send();
        const std::optional<Frame> reply = read_frame(raw);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type, Pdu_type::error);
        EXPECT_EQ(decode<Error_pdu>(reply->payload).code, Protocol_error_code::truncated);
    }

    // A hello from the future (frame stamped with version 9).
    EXPECT_EQ(daemon_error_for(daemon,
                               encode_frame(9, Pdu_type::hello, encode(Hello{9, "future"}))),
              Protocol_error_code::unsupported_version);

    // An unknown PDU type that hashes clean.
    EXPECT_EQ(daemon_error_for(daemon, encode_frame(1, static_cast<Pdu_type>(99), "x")),
              Protocol_error_code::unknown_type);

    // A submit before hello: the handshake is mandatory.
    EXPECT_EQ(daemon_error_for(daemon, encode_frame(1, Pdu_type::submit, "")),
              Protocol_error_code::bad_payload);

    // After all that abuse, the daemon still serves a well-behaved client.
    EXPECT_EQ(daemon.stats().protocol_errors, 7U);
    Client client(client_for(daemon));
    EXPECT_GT(client.optimize("taso", quickstart_graph()).final_ms, 0.0);
}

/// Value of an unlabelled counter in the process-wide registry.
double registry_value(const std::string& name)
{
    for (const Metrics_registry::Family_snapshot& family : Metrics_registry::global().snapshot())
        if (family.name == name && !family.series.empty()) return family.series.front().value;
    return 0.0;
}

TEST(NetFaultInjection, OneMalformedFrameMovesStatsAndRegistryByOne)
{
    Daemon daemon(smoke_daemon());
    const std::uint64_t stats_before = daemon.stats().protocol_errors;
    const double registry_before = registry_value("xrlflow_daemon_protocol_errors_total");

    EXPECT_EQ(daemon_error_for(daemon, std::string(32, 'Z')), Protocol_error_code::bad_magic);

    EXPECT_EQ(daemon.stats().protocol_errors - stats_before, 1U);
    EXPECT_EQ(registry_value("xrlflow_daemon_protocol_errors_total") - registry_before, 1.0);
}

TEST(NetFaultInjection, PostHandshakeVersionDriftIsTypedAndRecoverable)
{
    Daemon daemon(smoke_daemon());
    Client_config config = client_for(daemon);
    Connection raw = Connection::connect(config.host, config.port, config.timeouts);
    write_frame(raw, 1, Pdu_type::hello, encode(Hello{1, "drifter"}));
    std::optional<Frame> reply = read_frame(raw);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, Pdu_type::hello_ok);

    // A frame stamped with a version other than the negotiated one.
    write_frame(raw, 3, Pdu_type::stats, "");
    reply = read_frame(raw);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, Pdu_type::error);
    EXPECT_EQ(decode<Error_pdu>(reply->payload).code, Protocol_error_code::unsupported_version);

    // The framing was intact, so the connection survives and recovers.
    write_frame(raw, 1, Pdu_type::stats, "");
    reply = read_frame(raw);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, Pdu_type::stats_ok);
}

// ---------------------------------------------------------------------------
// Fault injection against the client
// ---------------------------------------------------------------------------

/// A misbehaving server: accepts one connection, answers the hello
/// correctly, then answers the next frame with `reply_bytes` and closes.
struct Evil_server {
    Listener listener{"127.0.0.1", 0};
    std::thread thread;

    explicit Evil_server(std::string reply_bytes)
    {
        thread = std::thread([this, reply_bytes = std::move(reply_bytes)] {
            std::optional<Connection> peer = listener.accept({5.0, 10.0, 10.0});
            if (!peer.has_value()) return;
            try {
                (void)read_frame(*peer); // the client's hello
                Hello_ok ok;
                ok.negotiated_version = 1;
                ok.server_name = "evil";
                write_frame(*peer, 1, Pdu_type::hello_ok, encode(ok));
                (void)read_frame(*peer); // the client's request
                peer->send_all(reply_bytes);
                peer->shutdown_send();
                // Hold the socket until the client has read the bytes.
                char drain = 0;
                while (peer->recv_some(&drain, 1) != 0) {}
            } catch (...) {
            }
        });
    }
    ~Evil_server()
    {
        listener.close();
        if (thread.joinable()) thread.join();
    }
};

Client_config evil_client_config(std::uint16_t port)
{
    Client_config config;
    config.port = port;
    config.timeouts = {5.0, 10.0, 10.0};
    return config;
}

TEST(NetFaultInjection, ClientRejectsDamagedRepliesTyped)
{
    const std::string intact = encode_frame(1, Pdu_type::stats_ok, "");

    {
        std::string flipped = intact;
        flipped.back() = static_cast<char>(flipped.back() ^ 0x5a);
        Evil_server server(flipped);
        Client client(evil_client_config(server.listener.port()));
        EXPECT_EQ(code_of([&] { (void)client.stats(); }), Protocol_error_code::bad_checksum);
    }
    {
        Evil_server server(intact.substr(0, intact.size() - 4));
        Client client(evil_client_config(server.listener.port()));
        EXPECT_EQ(code_of([&] { (void)client.stats(); }), Protocol_error_code::truncated);
    }
    {
        Evil_server server(encode_frame(1, static_cast<Pdu_type>(200), ""));
        Client client(evil_client_config(server.listener.port()));
        EXPECT_EQ(code_of([&] { (void)client.stats(); }), Protocol_error_code::unknown_type);
    }
    {
        // A reply from the future: right frame, wrong version byte.
        Evil_server server(encode_frame(7, Pdu_type::stats_ok, ""));
        Client client(evil_client_config(server.listener.port()));
        EXPECT_EQ(code_of([&] { (void)client.stats(); }),
                  Protocol_error_code::unsupported_version);
    }
    {
        // A clean close instead of a reply.
        Evil_server server("");
        Client client(evil_client_config(server.listener.port()));
        EXPECT_EQ(code_of([&] { (void)client.stats(); }), Protocol_error_code::io);
    }
}

TEST(NetFaultInjection, ClientRefusesUnreachableDaemon)
{
    // Grab an ephemeral port and close it: nothing listens there.
    std::uint16_t dead_port = 0;
    {
        Listener probe("127.0.0.1", 0);
        dead_port = probe.port();
    }
    Client_config config;
    config.port = dead_port;
    config.timeouts.connect_seconds = 2.0;
    EXPECT_THROW((void)Client(config), Net_error);
}

} // namespace
} // namespace xrl
