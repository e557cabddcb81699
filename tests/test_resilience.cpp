// The fleet resilience layer end to end: deterministic fault plans, the
// per-shard circuit breaker, live membership changes (add / remove /
// replace) under concurrent traffic with zero lost or duplicated jobs,
// rendezvous key stability across membership changes, client retry with
// idempotent resubmission after a lost reply, and the retryable-error
// taxonomy both sides of the wire agree on. Runs in CI's ThreadSanitizer
// job alongside test_net.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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
#include "serve/router.h"
#include "serve/shard_health.h"
#include "support/fault_plan.h"

namespace xrl {
namespace {

// ---------------------------------------------------------------------------
// Helpers (test_net idioms)
// ---------------------------------------------------------------------------

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

Server_config smoke_server()
{
    Server_config config;
    config.service = smoke_service();
    return config;
}

/// N identical affinity-free shards: all routing is pure rendezvous.
Router_config uniform_fleet(std::size_t shards)
{
    Router_config config;
    config.shards.resize(shards);
    for (Shard_config& shard : config.shards) shard.server = smoke_server();
    return config;
}

Daemon_config smoke_daemon(std::size_t shards = 1)
{
    Daemon_config config;
    config.router.shards.resize(shards);
    for (Shard_config& shard : config.router.shards) shard.server.service = smoke_service();
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
/// cache marker) may differ between two runs of the same deterministic
/// search.
std::string comparable_bytes(Optimize_result result)
{
    result.wall_seconds = 0.0;
    result.from_cache = false;
    result.metadata.erase("training_seconds");
    return result_to_bytes(result);
}

/// An injectable breaker clock the test advances by hand.
struct Fake_clock {
    std::shared_ptr<std::atomic<std::int64_t>> ms =
        std::make_shared<std::atomic<std::int64_t>>(0);

    std::function<std::chrono::steady_clock::time_point()> fn() const
    {
        auto shared = ms;
        return [shared] {
            return std::chrono::steady_clock::time_point(std::chrono::milliseconds(shared->load()));
        };
    }

    void advance_seconds(std::int64_t seconds) { ms->fetch_add(seconds * 1000); }
};

/// The breaker hears a terminal state from the completion hook just after
/// waiters wake; spin briefly until the router's snapshot reflects it.
Breaker_state settled_state(Optimization_router& router, std::size_t index,
                            Breaker_state wanted)
{
    for (int spin = 0; spin < 1000; ++spin) {
        const Breaker_state state = router.stats().health[index].state;
        if (state == wanted) return state;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return router.stats().health[index].state;
}

// ---------------------------------------------------------------------------
// Fault plans: deterministic by construction
// ---------------------------------------------------------------------------

TEST(FaultPlan, RulesMatchByAbsoluteEventIndex)
{
    Fault_plan plan;
    plan.add("shard/0", {.begin = 2, .count = 2, .action = Fault_action::fail});

    std::vector<Fault_action> seen;
    for (int i = 0; i < 6; ++i) seen.push_back(plan.next("shard/0"));
    const std::vector<Fault_action> expected{Fault_action::none, Fault_action::none,
                                             Fault_action::fail, Fault_action::fail,
                                             Fault_action::none, Fault_action::none};
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(plan.events("shard/0"), 6U);
    EXPECT_EQ(plan.injected("shard/0"), 2U);
    EXPECT_EQ(plan.events("daemon/send"), 0U); // sites are independent
}

TEST(FaultPlan, FirstMatchWinsAndHealedSitesKeepCounting)
{
    Fault_plan plan;
    plan.add("daemon/send",
             {.begin = 0, .count = 1, .action = Fault_action::delay, .delay_seconds = 0.25});
    plan.add("daemon/send", {.begin = 0, .count = 2, .action = Fault_action::drop});

    double delay = 0.0;
    EXPECT_EQ(plan.next("daemon/send", &delay), Fault_action::delay); // first rule wins event 0
    EXPECT_EQ(delay, 0.25);
    EXPECT_EQ(plan.next("daemon/send"), Fault_action::drop); // second rule still covers event 1

    plan.clear("daemon/send");
    EXPECT_EQ(plan.next("daemon/send"), Fault_action::none); // healed: event 2 passes

    // Rule indices stay absolute across the heal: event 3 is next.
    plan.add("daemon/send", {.begin = 3, .count = 1, .action = Fault_action::corrupt});
    EXPECT_EQ(plan.next("daemon/send"), Fault_action::corrupt);
    EXPECT_EQ(plan.injected("daemon/send"), 3U);
}

// ---------------------------------------------------------------------------
// Shard_health: the circuit breaker state machine
// ---------------------------------------------------------------------------

TEST(ShardHealth, OnlyConsecutiveFailuresTrip)
{
    Fake_clock clock;
    Shard_health health({.failure_threshold = 3, .open_seconds = 5.0, .clock = clock.fn()});

    health.record_failure();
    health.record_failure();
    health.record_success(); // a flaky-but-working shard stays in rotation
    EXPECT_EQ(health.state(), Breaker_state::closed);
    EXPECT_EQ(health.snapshot().consecutive_failures, 0U);

    health.record_failure();
    health.record_failure();
    EXPECT_EQ(health.state(), Breaker_state::closed);
    health.record_failure();
    EXPECT_EQ(health.state(), Breaker_state::open);
    EXPECT_EQ(health.snapshot().trips, 1U);
    EXPECT_FALSE(health.try_admit_probe()); // open shards take no traffic
}

TEST(ShardHealth, OpenWindowAdmitsProbesAndConsecutiveSuccessesClose)
{
    Fake_clock clock;
    Shard_health health(
        {.failure_threshold = 1, .open_seconds = 5.0, .half_open_probes = 2, .clock = clock.fn()});
    health.record_failure();
    EXPECT_EQ(health.state(), Breaker_state::open);

    clock.advance_seconds(6);
    EXPECT_TRUE(health.try_admit_probe()); // observation advances open -> half_open
    EXPECT_TRUE(health.try_admit_probe());
    EXPECT_FALSE(health.try_admit_probe()); // probe budget spent
    EXPECT_EQ(health.state(), Breaker_state::half_open);

    health.record_success();
    EXPECT_EQ(health.state(), Breaker_state::half_open); // one of two
    health.record_success();
    EXPECT_EQ(health.state(), Breaker_state::closed);
    EXPECT_EQ(health.snapshot().probes, 2U);
}

TEST(ShardHealth, FailedProbeReopensAndRestartsTheWindow)
{
    Fake_clock clock;
    Shard_health health(
        {.failure_threshold = 1, .open_seconds = 5.0, .half_open_probes = 2, .clock = clock.fn()});
    health.record_failure();
    clock.advance_seconds(6);
    ASSERT_TRUE(health.try_admit_probe());

    health.record_failure(); // the probe failed: trust is not re-earned
    EXPECT_EQ(health.state(), Breaker_state::open);
    EXPECT_EQ(health.snapshot().trips, 2U);

    clock.advance_seconds(4); // the window restarted from the re-trip
    EXPECT_EQ(health.state(), Breaker_state::open);
    clock.advance_seconds(2);
    EXPECT_EQ(health.state(), Breaker_state::half_open);
}

TEST(ShardHealth, LateOutcomesFromPreTripJobsDoNotDisturbAnOpenWindow)
{
    Fake_clock clock;
    Shard_health health({.failure_threshold = 1, .open_seconds = 5.0, .clock = clock.fn()});
    health.record_failure();
    ASSERT_EQ(health.state(), Breaker_state::open);

    clock.advance_seconds(3);
    health.record_failure(); // a straggler from before the trip
    health.record_success(); // likewise; only half-open probes close a breaker
    EXPECT_EQ(health.state(), Breaker_state::open);

    clock.advance_seconds(2); // 5 s from the *original* trip: schedule undisturbed
    EXPECT_EQ(health.state(), Breaker_state::half_open);
}

// ---------------------------------------------------------------------------
// The retryable-error contract
// ---------------------------------------------------------------------------

TEST(Retryable, TableMatchesTheDocumentedContract)
{
    using Code = Protocol_error_code;
    for (const Code code : {Code::bad_magic, Code::bad_checksum, Code::truncated, Code::busy,
                            Code::shutting_down, Code::io})
        EXPECT_TRUE(retryable(code)) << to_string(code);
    for (const Code code : {Code::frame_too_large, Code::unsupported_version, Code::unknown_type,
                            Code::bad_payload, Code::invalid_request, Code::unknown_job})
        EXPECT_FALSE(retryable(code)) << to_string(code);

    // Protocol_error defaults its verdict from the table; a remote error
    // may carry the daemon's explicit override.
    EXPECT_TRUE(Protocol_error(Code::io, "x").retryable());
    EXPECT_FALSE(Protocol_error(Code::invalid_request, "x").retryable());
    EXPECT_TRUE(Protocol_error(Code::invalid_request, "x", true, true).retryable());
}

TEST(WireCodec, ResilienceFieldsRoundTrip)
{
    Submit submit;
    submit.backend = "taso";
    submit.graph = quickstart_graph();
    submit.request_key = 0x1122334455667788ULL;
    EXPECT_EQ(decode<Submit>(encode(submit)).request_key, submit.request_key);

    Batch_submit batch;
    batch.entries.resize(1);
    batch.entries[0].backend = "taso";
    batch.entries[0].graph = quickstart_graph();
    batch.request_key = 99;
    EXPECT_EQ(decode<Batch_submit>(encode(batch)).request_key, 99U);

    Hello_ok hello;
    hello.negotiated_version = 1;
    hello.server_protocol_version = 7; // a daemon newer than this client
    hello.server_name = "xrlflowd";
    EXPECT_EQ(decode<Hello_ok>(encode(hello)).server_protocol_version, 7);

    Error_pdu error;
    error.code = Protocol_error_code::busy;
    error.message = "try later";
    error.retryable = true;
    const Error_pdu error_back = decode<Error_pdu>(encode(error));
    EXPECT_EQ(error_back.code, Protocol_error_code::busy);
    EXPECT_EQ(error_back.message, "try later");
    EXPECT_TRUE(error_back.retryable);

    Stats_ok stats;
    stats.router.submitted = 5;
    stats.router.probe_routed = 2;
    stats.router.breaker_rerouted = 3;
    stats.router.routed_to = {4, 1};
    Shard_health_snapshot sick;
    sick.stable_id = 9;
    sick.state = Breaker_state::half_open;
    sick.draining = true;
    sick.consecutive_failures = 4;
    sick.successes = 10;
    sick.failures = 6;
    sick.trips = 2;
    sick.probes = 3;
    stats.router.health = {Shard_health_snapshot{}, sick};
    stats.daemon.jobs_deduplicated = 11;

    const Stats_ok back = decode<Stats_ok>(encode(stats));
    EXPECT_EQ(back.router.probe_routed, 2U);
    EXPECT_EQ(back.router.breaker_rerouted, 3U);
    EXPECT_EQ(back.daemon.jobs_deduplicated, 11U);
    ASSERT_EQ(back.router.health.size(), 2U);
    EXPECT_EQ(back.router.health[0].state, Breaker_state::closed);
    EXPECT_EQ(back.router.health[1].stable_id, 9U);
    EXPECT_EQ(back.router.health[1].state, Breaker_state::half_open);
    EXPECT_TRUE(back.router.health[1].draining);
    EXPECT_EQ(back.router.health[1].consecutive_failures, 4U);
    EXPECT_EQ(back.router.health[1].successes, 10U);
    EXPECT_EQ(back.router.health[1].failures, 6U);
    EXPECT_EQ(back.router.health[1].trips, 2U);
    EXPECT_EQ(back.router.health[1].probes, 3U);
}

// ---------------------------------------------------------------------------
// Live membership: rendezvous key stability
// ---------------------------------------------------------------------------

TEST(RouterMembership, RemoveRespreadsOnlyTheRemovedShardsKeys)
{
    Optimization_router router(uniform_fleet(3));

    constexpr int keys = 24;
    std::vector<std::size_t> before;
    for (int n = 0; n < keys; ++n) before.push_back(router.route("taso", variant_graph(n)));
    // The spread must actually cover the fleet for the test to mean much.
    for (std::size_t shard = 0; shard < 3; ++shard)
        EXPECT_NE(std::count(before.begin(), before.end(), shard), 0) << shard;

    router.remove_shard(1);
    ASSERT_EQ(router.shard_count(), 2U);
    for (int n = 0; n < keys; ++n) {
        const std::size_t now = router.route("taso", variant_graph(n));
        if (before[n] == 0)
            EXPECT_EQ(now, 0U) << "key " << n << " moved off a surviving shard";
        else if (before[n] == 2)
            EXPECT_EQ(now, 1U) << "key " << n << " moved off a surviving shard";
        else
            EXPECT_LT(now, 2U); // the removed shard's keys re-spread anywhere
    }
}

TEST(RouterMembership, AddStealsOnlyTheKeysTheNewShardWins)
{
    Optimization_router router(uniform_fleet(2));

    constexpr int keys = 24;
    std::vector<std::size_t> before;
    for (int n = 0; n < keys; ++n) before.push_back(router.route("taso", variant_graph(n)));

    Shard_config grown;
    grown.server = smoke_server();
    const std::size_t index = router.add_shard(std::move(grown));
    EXPECT_EQ(index, 2U);
    ASSERT_EQ(router.shard_count(), 3U);

    int stolen = 0;
    for (int n = 0; n < keys; ++n) {
        const std::size_t now = router.route("taso", variant_graph(n));
        if (now == index)
            ++stolen;
        else
            EXPECT_EQ(now, before[n]) << "key " << n << " moved between incumbent shards";
    }
    EXPECT_GT(stolen, 0); // the new shard takes a share of the keyspace
    EXPECT_LT(stolen, keys);
}

// ---------------------------------------------------------------------------
// Live membership under concurrent traffic (no job lost, none duplicated)
// ---------------------------------------------------------------------------

TEST(RouterMembership, RemoveShardUnderTrafficLosesNoJobs)
{
    Optimization_router router(uniform_fleet(3));
    Optimization_service direct(smoke_service());

    constexpr int jobs_per_thread = 6;
    constexpr int total = 2 * jobs_per_thread;
    std::vector<std::string> results(total);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 2; ++t) {
        submitters.emplace_back([&router, &results, t] {
            for (int i = 0; i < jobs_per_thread; ++i) {
                const int n = t * jobs_per_thread + i;
                results[n] = comparable_bytes(router.submit("taso", variant_graph(n)).wait());
            }
        });
    }
    // Shrink the fleet mid-stream: the shard's backlog drains to
    // completion, its keys re-spread over the survivors.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    router.remove_shard(2);
    for (std::thread& thread : submitters) thread.join();
    router.drain();

    EXPECT_EQ(router.shard_count(), 2U);
    for (int n = 0; n < total; ++n)
        EXPECT_EQ(results[n], comparable_bytes(direct.optimize("taso", variant_graph(n))))
            << "job " << n << " diverged from the static-fleet result";
    const Router_stats stats = router.stats();
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(total)); // nothing double-submitted
    EXPECT_EQ(stats.total.failed, 0U);
    EXPECT_THROW(router.remove_shard(5), std::logic_error); // bounds are enforced
}

TEST(RouterMembership, RefusesToRemoveTheLastShard)
{
    Optimization_router router(uniform_fleet(1));
    EXPECT_THROW(router.remove_shard(0), std::invalid_argument);
    EXPECT_EQ(router.shard_count(), 1U);
    EXPECT_FALSE(router.submit("taso", quickstart_graph()).wait().cancelled);
}

TEST(RouterMembership, DrainShardFlushesAndReturnsToRotation)
{
    Optimization_router router(uniform_fleet(2));
    Optimization_service direct(smoke_service());

    std::atomic<bool> stop{false};
    std::atomic<int> pumped{0};
    std::thread pump([&] {
        for (int n = 0; !stop.load(); ++n) {
            router.submit("taso", variant_graph(n % 8)).wait();
            pumped.fetch_add(1);
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    router.drain_shard(0); // a maintenance flush under live traffic
    stop.store(true);
    pump.join();
    router.drain();

    EXPECT_EQ(router.shard_count(), 2U);
    EXPECT_FALSE(router.stats().health[0].draining); // back in rotation
    // The flushed shard still serves its keys afterwards, bit-identically.
    const Optimize_result after = router.submit("taso", quickstart_graph()).wait();
    EXPECT_EQ(comparable_bytes(after), comparable_bytes(direct.optimize("taso", quickstart_graph())));
    EXPECT_EQ(router.stats().total.failed, 0U);
    EXPECT_GE(pumped.load(), 1);
}

TEST(RouterMembership, ReplaceShardDrainsSwapsAndResetsHealth)
{
    auto plan = std::make_shared<Fault_plan>();
    Router_config config = uniform_fleet(2);
    config.fault_plan = plan;
    config.health.failure_threshold = 2;
    config.health.open_seconds = 3600.0; // stays open unless replaced
    Optimization_router router(config);

    // Keys the rendezvous sends to shard 0 (deterministic, so findable).
    std::vector<int> on_zero;
    for (int n = 0; n < 64 && on_zero.size() < 3; ++n)
        if (router.route("taso", variant_graph(n)) == 0) on_zero.push_back(n);
    ASSERT_EQ(on_zero.size(), 3U);

    // Kill shard 0: its jobs fail until the breaker trips.
    plan->add("shard/0", {.action = Fault_action::fail});
    EXPECT_THROW(router.submit("taso", variant_graph(on_zero[0])).wait(), std::runtime_error);
    EXPECT_THROW(router.submit("taso", variant_graph(on_zero[1])).wait(), std::runtime_error);
    ASSERT_EQ(settled_state(router, 0, Breaker_state::open), Breaker_state::open);
    EXPECT_GE(router.stats().health[0].trips, 1U);

    // With the breaker open, shard 0's keys re-spread and still succeed.
    EXPECT_FALSE(router.submit("taso", variant_graph(on_zero[2])).wait().cancelled);
    EXPECT_GE(router.stats().breaker_rerouted, 1U);

    // Replace the sick shard: heal the site, swap in a fresh server.
    plan->clear("shard/0");
    router.replace_shard(0);

    const Router_stats after = router.stats();
    ASSERT_EQ(after.health.size(), 2U);
    EXPECT_EQ(after.health[0].state, Breaker_state::closed); // clean breaker
    EXPECT_EQ(after.health[0].trips, 0U);
    EXPECT_EQ(after.health[0].stable_id, 0U); // same routing identity: no keys moved
    EXPECT_EQ(router.route("taso", variant_graph(on_zero[0])), 0U);
    EXPECT_FALSE(router.submit("taso", variant_graph(on_zero[0])).wait().cancelled);
    router.drain();
}

TEST(RouterStats, SnapshotSeqIsMonotonicAcrossMembershipChanges)
{
    Optimization_router router(uniform_fleet(3));
    std::uint64_t last = 0;
    const auto expect_advanced = [&](const char* when) {
        const Router_stats stats = router.stats();
        EXPECT_GT(stats.total.snapshot_seq, last) << when;
        last = stats.total.snapshot_seq;
    };
    // Each fleet snapshot also advances every shard's own sequence; a
    // replacement restarts its shard's and a removal drops one. The
    // fleet's sequence must climb through both.
    for (int n = 0; n < 5; ++n) expect_advanced("steady");
    router.replace_shard(0);
    expect_advanced("after replace_shard");
    for (int n = 0; n < 5; ++n) expect_advanced("steady");
    router.remove_shard(1);
    expect_advanced("after remove_shard");
}

// ---------------------------------------------------------------------------
// The acceptance scenario: one shard of four force-failed mid-stream
// ---------------------------------------------------------------------------

TEST(FleetResilience, KilledShardIsAbsorbedWithBitIdenticalResultsAndHeals)
{
    auto plan = std::make_shared<Fault_plan>();
    Fake_clock clock;
    Router_config config = uniform_fleet(4);
    config.fault_plan = plan;
    config.health.failure_threshold = 2;
    config.health.open_seconds = 60.0;
    config.health.half_open_probes = 2;
    config.health.clock = clock.fn();
    Optimization_router router(config);
    Optimization_service direct(smoke_service());

    constexpr int models = 12;
    int steady_on_killed = 0;
    for (int n = 0; n < models; ++n)
        if (router.route("taso", variant_graph(n)) == 0) ++steady_on_killed;
    ASSERT_GE(steady_on_killed, 1) << "no model rendezvous-routes to shard 0; widen the set";

    // Shard 0 dies: every job it executes fails from here on.
    plan->add("shard/0", {.action = Fault_action::fail});

    int observed_failures = 0;
    for (int n = 0; n < models; ++n) {
        std::string bytes;
        for (int attempt = 0; attempt < 25 && bytes.empty(); ++attempt) {
            try {
                bytes = comparable_bytes(router.submit("taso", variant_graph(n)).wait());
            } catch (const std::runtime_error&) {
                ++observed_failures; // resubmit — the retrying client's move
            }
        }
        ASSERT_FALSE(bytes.empty()) << "job " << n << " was lost to the dead shard";
        // Surviving shards produce bit-identical results to a healthy run.
        EXPECT_EQ(bytes, comparable_bytes(direct.optimize("taso", variant_graph(n)))) << n;
    }
    EXPECT_GE(observed_failures, 2); // at least the trip's worth hit the dead shard

    ASSERT_EQ(settled_state(router, 0, Breaker_state::open), Breaker_state::open);
    Router_stats mid = router.stats();
    EXPECT_GE(mid.health[0].trips, 1U);
    EXPECT_GE(mid.breaker_rerouted, 1U); // the dead shard's slice re-spread
    EXPECT_EQ(mid.submitted, static_cast<std::uint64_t>(models + observed_failures));
    EXPECT_EQ(mid.total.failed, static_cast<std::uint64_t>(observed_failures));

    // Heal the shard and jump past the open window: the next submits are
    // admitted as half-open probes, and their successes close the breaker.
    plan->clear("shard/0");
    clock.advance_seconds(120);
    EXPECT_FALSE(router.submit("taso", variant_graph(models)).wait().cancelled);
    EXPECT_FALSE(router.submit("taso", variant_graph(models + 1)).wait().cancelled);
    EXPECT_EQ(settled_state(router, 0, Breaker_state::closed), Breaker_state::closed);

    router.drain();
    const Router_stats healed = router.stats();
    EXPECT_EQ(healed.health[0].state, Breaker_state::closed);
    EXPECT_GE(healed.probe_routed, 2U);
    // No duplicated searches: each job that returned a result (the models
    // and the two probes) completed exactly once across the fleet.
    EXPECT_EQ(healed.total.completed, static_cast<std::uint64_t>(models + 2));
    // The re-admitted shard serves its keys again, still bit-identical.
    EXPECT_FALSE(router.submit("taso", variant_graph(0)).wait().cancelled);
}

// ---------------------------------------------------------------------------
// Client retries: idempotent resubmission over the wire
// ---------------------------------------------------------------------------

TEST(DaemonResilience, LostReplyRetryCoalescesOntoTheOriginalJob)
{
    auto plan = std::make_shared<Fault_plan>();
    Daemon_config config = smoke_daemon();
    config.fault_plan = plan;
    Daemon daemon(config);
    // The daemon's second sent frame — the submit_ok — vanishes in flight
    // (event 0 is the hello_ok).
    plan->add("daemon/send", {.begin = 1, .count = 1, .action = Fault_action::drop});

    Client_config client_config = client_for(daemon);
    client_config.timeouts.read_seconds = 2.0; // the lost reply surfaces as a read timeout
    client_config.retry.max_attempts = 3;
    client_config.retry.initial_backoff_seconds = 0.01;
    client_config.request_key_seed = 42; // reproducible idempotency keys
    Client client(client_config);
    EXPECT_EQ(client.server_protocol_version(), protocol_version);

    const Submit_ok accepted = client.submit("taso", quickstart_graph());
    const Optimize_result remote = client.wait(accepted.job_id);

    // One search, two connections, one replayed reply: at-most-once.
    const Daemon_wire_stats wire = daemon.stats();
    EXPECT_EQ(wire.connections_accepted, 2U);
    EXPECT_EQ(wire.jobs_submitted, 1U);
    EXPECT_EQ(wire.jobs_deduplicated, 1U);
    EXPECT_EQ(daemon.router().stats().submitted, 1U);

    Optimization_service direct(smoke_service());
    EXPECT_EQ(comparable_bytes(remote),
              comparable_bytes(direct.optimize("taso", quickstart_graph())));

    // Distinct submits draw distinct keys: no false replay.
    (void)client.optimize("taso", variant_graph(1));
    EXPECT_EQ(daemon.stats().jobs_deduplicated, 1U);
    EXPECT_EQ(daemon.stats().jobs_submitted, 2U); // wait() re-registered nothing
}

TEST(DaemonResilience, PermanentRejectionsAreNotRetried)
{
    Daemon daemon(smoke_daemon());
    Client_config config = client_for(daemon);
    config.retry.max_attempts = 4;
    config.retry.initial_backoff_seconds = 0.01;
    Client client(config);

    try {
        (void)client.submit("not-a-backend", quickstart_graph());
        FAIL() << "expected Protocol_error";
    } catch (const Protocol_error& error) {
        EXPECT_EQ(error.code(), Protocol_error_code::invalid_request);
        EXPECT_TRUE(error.remote());
        EXPECT_FALSE(error.retryable()); // resending the same bytes cannot help
    }
    const Daemon_wire_stats wire = daemon.stats();
    EXPECT_EQ(wire.connections_accepted, 1U); // no reconnect was attempted
    EXPECT_EQ(wire.jobs_submitted, 0U);

    // A typed rejection keeps the stream in sync: the connection survives.
    EXPECT_GT(client.optimize("taso", quickstart_graph()).final_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Sharpened client error texts: closed vs timed out
// ---------------------------------------------------------------------------

/// A server that completes the handshake, reads one request, and then
/// either closes cleanly or stalls forever — the two failure shapes the
/// client must tell apart.
struct Mini_server {
    Listener listener{"127.0.0.1", 0};
    std::thread thread;

    explicit Mini_server(bool stall)
    {
        thread = std::thread([this, stall] {
            std::optional<Connection> peer = listener.accept({5.0, 30.0, 10.0});
            if (!peer.has_value()) return;
            try {
                (void)read_frame(*peer); // the client's hello
                Hello_ok ok;
                ok.server_name = "mini";
                write_frame(*peer, 1, Pdu_type::hello_ok, encode(ok));
                (void)read_frame(*peer); // the request we will never answer
                if (!stall) peer->shutdown_send();
                // Hold the socket until the client gives up and hangs up.
                char drain = 0;
                while (peer->recv_some(&drain, 1) != 0) {}
            } catch (...) {
            }
        });
    }
    ~Mini_server()
    {
        listener.close();
        if (thread.joinable()) thread.join();
    }
};

Client_config mini_client_config(std::uint16_t port, Net_timeouts timeouts)
{
    Client_config config;
    config.port = port;
    config.timeouts = timeouts;
    return config;
}

TEST(ClientErrors, CleanCloseNamesTheAwaitedReply)
{
    Mini_server server(/*stall=*/false);
    Client client(mini_client_config(server.listener.port(), {5.0, 10.0, 10.0}));
    try {
        (void)client.stats();
        FAIL() << "expected Protocol_error";
    } catch (const Protocol_error& error) {
        EXPECT_EQ(error.code(), Protocol_error_code::io);
        EXPECT_TRUE(error.retryable());
        EXPECT_NE(std::string(error.what())
                      .find("closed the connection cleanly while awaiting stats_ok"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ClientErrors, ReadTimeoutIsDistinctFromConnectFailure)
{
    Mini_server server(/*stall=*/true);
    Client client(mini_client_config(server.listener.port(), {5.0, 0.5, 10.0}));
    try {
        (void)client.stats();
        FAIL() << "expected Net_error";
    } catch (const Net_error& error) {
        EXPECT_EQ(error.kind(), Net_error_kind::timeout);
        const std::string what = error.what();
        EXPECT_NE(what.find("read timed out awaiting stats_ok"), std::string::npos) << what;
        EXPECT_NE(what.find("connected, but no reply within the read timeout"),
                  std::string::npos)
            << what;
    }
}

} // namespace
} // namespace xrl
