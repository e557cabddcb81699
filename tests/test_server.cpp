// Optimization_server: coalescing correctness, queue-policy ordering,
// cancellation (queued and mid-search), bounded-queue admission control,
// telemetry counters, request validation, and bit-identical parity with
// direct Optimization_service::optimize calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/optimization_service.h"
#include "ir/builder.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/telemetry.h"
#include "support/metrics.h"

namespace xrl {
namespace {

/// The quickstart graph (paper Figure 1): y = relu(x.w + b).
Graph quickstart_graph()
{
    Graph_builder b;
    const Edge x = b.input({4, 32}, "x");
    const Edge w = b.weight({32, 16}, "w");
    const Edge bias = b.weight({16}, "b");
    return b.finish({b.relu(b.add(b.matmul(x, w), bias))});
}

/// A richer graph so searches take more than one step (and heartbeats fire).
Graph projection_graph()
{
    Graph_builder b;
    const Edge x = b.input({8, 32}, "x");
    const Edge wq = b.weight({32, 16});
    const Edge wk = b.weight({32, 16});
    const Edge y = b.add(b.relu(b.matmul(x, wq)), b.relu(b.matmul(x, wk)));
    return b.finish({y});
}

/// Structurally distinct variants (different widths => different hashes).
Graph variant_graph(int n)
{
    Graph_builder b;
    const Edge x = b.input({4, 24 + n}, "x");
    const Edge w = b.weight({24 + n, 12});
    return b.finish({b.relu(b.matmul(x, w))});
}

/// Smoke-scale backend budgets shared by every test (plumbing, not quality).
Service_config smoke_service()
{
    Service_config config;
    config.backend_options["taso.budget"] = 15;
    config.backend_options["pet.budget"] = 8;
    config.backend_options["tensat.max_iterations"] = 2;
    config.backend_options["xrlflow.episodes"] = 0;
    config.backend_options["xrlflow.max_steps"] = 6;
    return config;
}

Server_config smoke_server()
{
    Server_config config;
    config.service = smoke_service();
    return config;
}

/// A progress-callback gate: the search blocks at its first heartbeat until
/// release(), so tests can hold a job in the `running` state.
struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;

    Progress_callback callback()
    {
        return [this](const Optimize_progress&) {
            std::unique_lock<std::mutex> lock(mutex);
            if (!entered) {
                entered = true;
                cv.notify_all();
            }
            cv.wait(lock, [this] { return released; });
            return true;
        };
    }

    void await_entered()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return entered; });
    }

    void release()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            released = true;
        }
        cv.notify_all();
    }
};

/// Records the order in which searches *start* (first heartbeat per job).
struct Start_order {
    std::mutex mutex;
    std::vector<std::string> tags;

    Progress_callback tagged(std::string tag)
    {
        auto first = std::make_shared<bool>(true);
        return [this, tag = std::move(tag), first](const Optimize_progress&) {
            const std::lock_guard<std::mutex> lock(mutex);
            if (*first) {
                tags.push_back(tag);
                *first = false;
            }
            return true;
        };
    }
};

// ---------------------------------------------------------------------------
// Parity with direct Optimization_service calls
// ---------------------------------------------------------------------------

TEST(OptimizationServer, ResultsBitIdenticalToDirectServiceCalls)
{
    Optimization_service direct(smoke_service());
    Optimization_server server(smoke_server());
    const Graph g = quickstart_graph();

    for (const std::string& backend : direct.backends()) {
        const Optimize_result reference = direct.optimize(backend, g);
        const Optimize_result served = server.submit(backend, g).wait();
        EXPECT_EQ(served.best_graph.canonical_hash(), reference.best_graph.canonical_hash())
            << backend;
        EXPECT_EQ(served.final_ms, reference.final_ms) << backend;
        EXPECT_EQ(served.initial_ms, reference.initial_ms) << backend;
        EXPECT_EQ(served.steps, reference.steps) << backend;
        EXPECT_EQ(served.backend, backend);
    }
}

// ---------------------------------------------------------------------------
// Coalescing
// ---------------------------------------------------------------------------

TEST(OptimizationServer, IdenticalInFlightSubmitsCoalesceIntoOneSearch)
{
    Optimization_server server(smoke_server());
    const Graph g = projection_graph();

    Gate gate;
    Optimize_request gated;
    gated.on_progress = gate.callback();
    const Job_handle primary = server.submit("taso", g, gated);
    gate.await_entered(); // the search is now running

    // Same memo key (the callback is deliberately not part of it).
    std::vector<Job_handle> duplicates;
    for (int i = 0; i < 3; ++i) duplicates.push_back(server.submit("taso", g));
    EXPECT_FALSE(primary.coalesced());
    for (const Job_handle& handle : duplicates) EXPECT_TRUE(handle.coalesced());

    gate.release();
    const Optimize_result first = primary.wait();
    for (const Job_handle& handle : duplicates) {
        const Optimize_result result = handle.wait();
        EXPECT_EQ(result.best_graph.canonical_hash(), first.best_graph.canonical_hash());
        EXPECT_EQ(result.final_ms, first.final_ms);
    }

    // One search ran for four submissions.
    EXPECT_EQ(server.service().cache_misses(), 1u);
    const Server_stats stats = server.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.coalesced, 3u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_DOUBLE_EQ(stats.coalesce_rate(), 0.75);
}

TEST(OptimizationServer, PostHocDuplicateHitsMemoCacheNotCoalescing)
{
    Optimization_server server(smoke_server());
    const Graph g = quickstart_graph();

    const Optimize_result first = server.submit("taso", g).wait();
    EXPECT_FALSE(first.from_cache);
    server.drain();

    const Job_handle later = server.submit("taso", g);
    const Optimize_result replay = later.wait();
    EXPECT_FALSE(later.coalesced()); // the original already resolved
    EXPECT_TRUE(replay.from_cache);
    EXPECT_EQ(replay.best_graph.canonical_hash(), first.best_graph.canonical_hash());

    const Server_stats stats = server.stats();
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_DOUBLE_EQ(stats.dedup_rate(), 0.5);
}

TEST(OptimizationServer, CoalescedJobStopsOnlyWhenEveryHandleCancels)
{
    Server_config config = smoke_server();
    config.workers = 1;
    Optimization_server server(config);
    const Graph g = projection_graph();

    Gate gate;
    Optimize_request gated;
    gated.on_progress = gate.callback();
    Job_handle primary = server.submit("taso", g, gated);
    gate.await_entered();
    const Job_handle attached = server.submit("taso", g);
    ASSERT_TRUE(attached.coalesced());

    primary.cancel(); // one of two interested parties — must NOT stop the job
    gate.release();
    const Optimize_result result = attached.wait();
    EXPECT_FALSE(result.cancelled);
    EXPECT_EQ(server.stats().completed, 1u);
}

// ---------------------------------------------------------------------------
// Queue policies
// ---------------------------------------------------------------------------

TEST(OptimizationServer, FifoPolicyRunsInArrivalOrder)
{
    Server_config config = smoke_server();
    config.workers = 1;
    Optimization_server server(config);

    Gate gate;
    Optimize_request blocker;
    blocker.on_progress = gate.callback();
    server.submit("taso", projection_graph(), blocker);
    gate.await_entered(); // the single worker is now occupied

    Start_order order;
    Optimize_request first_request;
    first_request.on_progress = order.tagged("first");
    Optimize_request second_request;
    second_request.on_progress = order.tagged("second");
    server.submit("taso", variant_graph(1), first_request);
    server.submit("taso", variant_graph(2), second_request);

    gate.release();
    server.drain();
    EXPECT_EQ(order.tags, (std::vector<std::string>{"first", "second"}));
}

TEST(OptimizationServer, PriorityPolicyRunsHigherPriorityFirst)
{
    Server_config config = smoke_server();
    config.workers = 1;
    config.queue.policy = Queue_policy::priority;
    Optimization_server server(config);

    Gate gate;
    Optimize_request blocker;
    blocker.on_progress = gate.callback();
    server.submit("taso", projection_graph(), blocker);
    gate.await_entered();

    Start_order order;
    Optimize_request low_request;
    low_request.on_progress = order.tagged("low");
    Optimize_request high_request;
    high_request.on_progress = order.tagged("high");
    server.submit("taso", variant_graph(1), low_request, {.priority = 0});
    server.submit("taso", variant_graph(2), high_request, {.priority = 10});

    gate.release();
    server.drain();
    EXPECT_EQ(order.tags, (std::vector<std::string>{"high", "low"}));
}

TEST(OptimizationServer, EarliestDeadlinePolicyRunsTightestDeadlineFirst)
{
    Server_config config = smoke_server();
    config.workers = 1;
    config.queue.policy = Queue_policy::earliest_deadline;
    Optimization_server server(config);

    Gate gate;
    Optimize_request blocker;
    blocker.on_progress = gate.callback();
    server.submit("taso", projection_graph(), blocker);
    gate.await_entered();

    Start_order order;
    Optimize_request relaxed_request;
    relaxed_request.on_progress = order.tagged("relaxed");
    Optimize_request urgent_request;
    urgent_request.on_progress = order.tagged("urgent");
    server.submit("taso", variant_graph(1), relaxed_request, {.deadline_seconds = 60.0});
    server.submit("taso", variant_graph(2), urgent_request, {.deadline_seconds = 1.0});

    gate.release();
    server.drain();
    EXPECT_EQ(order.tags, (std::vector<std::string>{"urgent", "relaxed"}));
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(OptimizationServer, CancellingQueuedJobResolvesImmediatelyWithoutSearching)
{
    Server_config config = smoke_server();
    config.start_paused = true;
    Optimization_server server(config);
    const Graph g = quickstart_graph();

    Job_handle handle = server.submit("taso", g);
    EXPECT_EQ(handle.poll(), Job_state::queued);
    handle.cancel();
    EXPECT_EQ(handle.poll(), Job_state::cancelled);
    const Optimize_result result = handle.wait(); // no blocking: already terminal
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.best_graph.canonical_hash(), g.canonical_hash());

    server.resume();
    server.drain();
    EXPECT_EQ(server.service().cache_misses(), 0u); // no search ever ran
    EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(OptimizationServer, CancellingRunningJobStopsViaHeartbeat)
{
    Server_config config = smoke_server();
    config.service.backend_options["taso.budget"] = 200;
    Optimization_server server(config);
    const Graph g = projection_graph();

    Gate gate;
    Optimize_request gated;
    gated.on_progress = gate.callback();
    Job_handle handle = server.submit("taso", g, gated);
    gate.await_entered();
    EXPECT_EQ(handle.poll(), Job_state::running);

    handle.cancel();
    gate.release();
    const Optimize_result result = handle.wait();
    EXPECT_TRUE(result.cancelled);
    EXPECT_LT(result.steps, 200); // stopped well before the budget
    EXPECT_NO_THROW(result.best_graph.validate());
    EXPECT_EQ(handle.poll(), Job_state::cancelled);
    // Cancelled searches are never cached (same contract as the service).
    EXPECT_EQ(server.service().cache_size(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(OptimizationServer, BoundedQueueRejectsOverflow)
{
    Server_config config = smoke_server();
    config.start_paused = true;
    config.workers = 1;
    config.queue.capacity = 2;
    Optimization_server server(config);

    const Job_handle a = server.submit("taso", variant_graph(1));
    const Job_handle b = server.submit("taso", variant_graph(2));
    const Job_handle c = server.submit("taso", variant_graph(3));
    EXPECT_EQ(a.poll(), Job_state::queued);
    EXPECT_EQ(b.poll(), Job_state::queued);
    EXPECT_EQ(c.poll(), Job_state::rejected);
    EXPECT_THROW(c.wait(), std::runtime_error);

    server.resume();
    server.drain();
    const Server_stats stats = server.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(OptimizationServer, ShedLowestEvictsWorstRankedForBetterArrival)
{
    Server_config config = smoke_server();
    config.start_paused = true;
    config.queue.capacity = 1;
    config.queue.policy = Queue_policy::priority;
    config.queue.overflow = Overflow_policy::shed_lowest;
    Optimization_server server(config);

    const Job_handle low = server.submit("taso", variant_graph(1), {}, {.priority = 0});
    const Job_handle high = server.submit("taso", variant_graph(2), {}, {.priority = 5});
    EXPECT_EQ(low.poll(), Job_state::rejected); // shed to make room
    EXPECT_EQ(high.poll(), Job_state::queued);
    EXPECT_THROW(low.wait(), std::runtime_error);

    // A *worse*-ranked newcomer is rejected instead of shedding the queue.
    const Job_handle worse = server.submit("taso", variant_graph(3), {}, {.priority = 1});
    EXPECT_EQ(worse.poll(), Job_state::rejected);
    EXPECT_EQ(high.poll(), Job_state::queued);

    server.resume();
    server.drain();
    const Server_stats stats = server.stats();
    EXPECT_EQ(stats.rejected, 2u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(OptimizationServer, CancelledQueuedJobsDoNotConsumeQueueCapacity)
{
    Server_config config = smoke_server();
    config.start_paused = true;
    config.workers = 1;
    config.queue.capacity = 2;
    Optimization_server server(config);

    Job_handle a = server.submit("taso", variant_graph(1));
    Job_handle b = server.submit("taso", variant_graph(2));
    a.cancel();
    b.cancel();
    // Both slots are corpses; a live submission must still be admitted.
    const Job_handle c = server.submit("taso", variant_graph(3));
    EXPECT_EQ(c.poll(), Job_state::queued);

    server.resume();
    server.drain();
    const Server_stats stats = server.stats();
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.completed, 1u);
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

TEST(OptimizationServer, TelemetryCountsAddUpAcrossMixedOutcomes)
{
    Server_config config = smoke_server();
    Optimization_server server(config);
    const Graph g = quickstart_graph();

    server.submit("taso", g).wait();      // search
    server.submit("taso", g).wait();      // memo hit
    server.submit("pet", quickstart_graph()).wait();
    Job_handle cancelled = server.submit("tensat", projection_graph());
    cancelled.cancel();
    server.drain();

    const Server_stats stats = server.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.completed + stats.cancelled + stats.coalesced, 4u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
    EXPECT_GT(stats.p95_latency_ms, 0.0);
    EXPECT_GE(stats.backends.at("taso").submitted, 2u);
    EXPECT_GE(stats.backends.at("taso").busy_seconds, 0.0);
    EXPECT_GT(stats.dedup_rate(), 0.0);
}

TEST(OptimizationServer, OccupancyGaugesTrackQueueDepthInflightAndPeaks)
{
    Server_config config = smoke_server();
    config.start_paused = true;
    Optimization_server server(config);

    std::vector<Job_handle> handles;
    for (int n = 0; n < 3; ++n) handles.push_back(server.submit("taso", variant_graph(n)));

    // Paused: everything sits in the queue, coalescable, nothing running.
    Server_stats stats = server.stats();
    EXPECT_EQ(stats.queue_depth, 3u);
    EXPECT_EQ(stats.inflight, 3u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_GE(stats.peak_queue_depth, 3u);

    server.resume();
    for (const Job_handle& handle : handles) handle.wait();
    server.drain();

    // Quiet again — but the high-water marks remember the burst.
    stats = server.stats();
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_GE(stats.peak_queue_depth, 3u);
    EXPECT_GE(stats.peak_running, 1u);
}

// ---------------------------------------------------------------------------
// Validation (surfaced through both entry points)
// ---------------------------------------------------------------------------

TEST(RequestValidation, MalformedRequestsRejectedByServiceAndServer)
{
    Optimization_service service(smoke_service());
    Optimization_server server(smoke_server());
    const Graph g = quickstart_graph();

    Optimize_request negative_time;
    negative_time.time_budget_seconds = -1.0;
    EXPECT_THROW(service.optimize("taso", g, negative_time), std::invalid_argument);
    EXPECT_THROW(server.submit("taso", g, negative_time), std::invalid_argument);

    Optimize_request negative_iterations;
    negative_iterations.iteration_budget = -3;
    EXPECT_THROW(service.optimize("taso", g, negative_iterations), std::invalid_argument);
    EXPECT_THROW(server.submit("taso", g, negative_iterations), std::invalid_argument);

    Optimize_request nan_budget;
    nan_budget.time_budget_seconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(service.optimize("taso", g, nan_budget), std::invalid_argument);
    EXPECT_THROW(server.submit("taso", g, nan_budget), std::invalid_argument);

    EXPECT_THROW(server.submit("nope", g), std::invalid_argument);
    EXPECT_THROW(server.submit("taso", g, {}, {.deadline_seconds = -2.0}), std::invalid_argument);
    EXPECT_THROW(service.optimize_all(g, {}, 0), std::invalid_argument);

    // Nothing above was enqueued or counted as a miss.
    EXPECT_EQ(server.queue_depth(), 0u);
    EXPECT_EQ(service.cache_misses(), 0u);
}

// ---------------------------------------------------------------------------
// Per-device isolation on one server
// ---------------------------------------------------------------------------

TEST(OptimizationServer, SameGraphOnDifferentDevicesNeverCoalescesOrSharesCache)
{
    Optimization_server server(smoke_server());
    const Graph g = projection_graph();

    Gate gate;
    Optimize_request gated;
    gated.on_progress = gate.callback();
    const Job_handle primary = server.submit("taso", g, gated); // default device (gtx1080)
    gate.await_entered();

    // Same graph, same backend, same budgets — but a different target
    // device: different work, must not attach to the in-flight job.
    Optimize_request on_a100;
    on_a100.device = "a100-sim";
    const Job_handle other_device = server.submit("taso", g, on_a100);
    EXPECT_FALSE(other_device.coalesced());

    // The identical-device duplicate still coalesces.
    const Job_handle same_device = server.submit("taso", g);
    EXPECT_TRUE(same_device.coalesced());

    gate.release();
    const Optimize_result gtx = primary.wait();
    const Optimize_result a100 = other_device.wait();
    server.drain();
    EXPECT_EQ(gtx.device, "gtx1080-sim");
    EXPECT_EQ(a100.device, "a100-sim");
    EXPECT_NE(gtx.final_ms, a100.final_ms);

    // Two real searches ran (one per device); and each device replays from
    // its own memo entry afterwards.
    EXPECT_EQ(server.service().cache_misses(), 2u);
    EXPECT_TRUE(server.submit("taso", g).wait().from_cache);
    EXPECT_TRUE(server.submit("taso", g, on_a100).wait().from_cache);
    const Server_stats stats = server.stats();
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(OptimizationServer, UnknownDeviceRejectedBeforeEnqueue)
{
    Optimization_server server(smoke_server());
    Optimize_request request;
    request.device = "h100-sim";
    EXPECT_THROW(server.submit("taso", quickstart_graph(), request), std::invalid_argument);
    EXPECT_EQ(server.queue_depth(), 0u);
    EXPECT_EQ(server.stats().submitted, 0u);
}

// ---------------------------------------------------------------------------
// Streaming progress
// ---------------------------------------------------------------------------

TEST(OptimizationServer, ProgressSnapshotsReachEveryCoalescedWaiter)
{
    Server_config config = smoke_server();
    config.service.backend_options["taso.budget"] = 25;
    Optimization_server server(config);
    const Graph g = projection_graph();

    Gate gate;
    Optimize_request gated;
    gated.on_progress = gate.callback();
    Job_handle primary = server.submit("taso", g, gated);
    gate.await_entered(); // at least one snapshot has been recorded

    // A coalesced duplicate — whose own request carries no callback at all
    // — can watch the shared search.
    Job_handle attached = server.submit("taso", g);
    ASSERT_TRUE(attached.coalesced());
    auto observed = std::make_shared<std::atomic<int>>(0);
    attached.on_progress([observed](const Optimize_progress& progress) {
        EXPECT_EQ(progress.backend, "taso");
        observed->fetch_add(1);
    });

    // The last snapshot is poll-able mid-flight from *any* handle.
    EXPECT_TRUE(primary.progress().has_value());
    EXPECT_TRUE(attached.progress().has_value());

    gate.release();
    const Optimize_result result = attached.wait();
    server.drain();
    EXPECT_FALSE(result.cancelled);
    EXPECT_GT(observed->load(), 0); // the waiter streamed snapshots it never asked the backend for
    EXPECT_GE(attached.progress()->step, 0);

    // After the job resolves, late observers are a no-op (never fire).
    attached.on_progress([observed](const Optimize_progress&) { observed->fetch_add(1000); });
    EXPECT_LT(observed->load(), 1000);
}

// ---------------------------------------------------------------------------
// Queue-aware budgets
// ---------------------------------------------------------------------------

TEST(OptimizationServer, DequeuePastDeadlineClampsBudgetToNothing)
{
    Server_config config = smoke_server();
    config.service.backend_options["taso.budget"] = 100000; // would run ~forever
    config.start_paused = true;
    config.queue.policy = Queue_policy::earliest_deadline;
    Optimization_server server(config);

    Job_handle handle =
        server.submit("taso", projection_graph(), {}, {.deadline_seconds = 0.01});
    std::this_thread::sleep_for(std::chrono::milliseconds(30)); // deadline passes while queued
    server.resume();
    const Optimize_result result = handle.wait();
    server.drain();

    // EDF only ordered the queue before; now the dequeue clamps the wall
    // budget to the time remaining — here none — so the search stops at
    // its first heartbeat instead of running its 100000-iteration budget.
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.steps, 0);
    EXPECT_EQ(result.best_graph.canonical_hash(), projection_graph().canonical_hash());
    EXPECT_EQ(server.service().cache_size(), 0u); // cut-short runs are never cached
}

TEST(OptimizationServer, NoDeadlineWaiterDisarmsTheClampAndGetsTheFullSearch)
{
    Server_config config = smoke_server();
    config.start_paused = true;
    config.queue.policy = Queue_policy::earliest_deadline;
    Optimization_server server(config);
    const Graph g = projection_graph();

    // The primary asked for a deadline that will expire while queued; the
    // coalesced duplicate asked for none. The duplicate is owed a result
    // identical to a direct call, so the dequeue-time clamp must not
    // engage — deadlines can tighten the *ordering*, never another
    // waiter's result.
    Job_handle primary = server.submit("taso", g, {}, {.deadline_seconds = 0.01});
    Job_handle relaxed = server.submit("taso", g);
    ASSERT_TRUE(relaxed.coalesced());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.resume();
    const Optimize_result result = relaxed.wait();
    server.drain();
    EXPECT_FALSE(result.cancelled);

    Optimization_service direct(smoke_service());
    const Optimize_result reference = direct.optimize("taso", g);
    EXPECT_EQ(result.best_graph.canonical_hash(), reference.best_graph.canonical_hash());
    EXPECT_EQ(result.final_ms, reference.final_ms);
    EXPECT_EQ(result.steps, reference.steps);
}

TEST(OptimizationServer, ClampedRunningJobAcceptsDeadlineWaitersButNotDeadlineFreeOnes)
{
    Optimization_server server(smoke_server());
    const Graph g = projection_graph();

    Gate gate;
    Optimize_request gated;
    gated.on_progress = gate.callback();
    // Unlimited wall budget + a deadline => the dequeue clamp tightens the
    // budget, so the running job is marked budget-clamped.
    Job_handle primary = server.submit("taso", g, gated, {.deadline_seconds = 120.0});
    gate.await_entered();

    // A deadline-carrying duplicate opted into SLA semantics: it attaches.
    const Job_handle sla = server.submit("taso", g, {}, {.deadline_seconds = 60.0});
    EXPECT_TRUE(sla.coalesced());
    // A deadline-free duplicate is owed the full search: it runs its own.
    const Job_handle full = server.submit("taso", g);
    EXPECT_FALSE(full.coalesced());

    gate.release();
    server.drain();
    EXPECT_FALSE(primary.wait().cancelled); // 120 s was generous; nothing truncated
    EXPECT_FALSE(full.wait().cancelled);
}

TEST(OptimizationServer, GenerousDeadlineLeavesResultIdenticalToDirectCall)
{
    Optimization_server server(smoke_server());
    const Graph g = quickstart_graph();
    const Optimize_result served =
        server.submit("taso", g, {}, {.deadline_seconds = 120.0}).wait();
    server.drain();
    EXPECT_FALSE(served.cancelled);

    Optimization_service direct(smoke_service());
    const Optimize_result reference = direct.optimize("taso", g);
    EXPECT_EQ(served.best_graph.canonical_hash(), reference.best_graph.canonical_hash());
    EXPECT_EQ(served.final_ms, reference.final_ms);
    EXPECT_EQ(served.steps, reference.steps);
}

// ---------------------------------------------------------------------------
// Optimization_router
// ---------------------------------------------------------------------------

Router_config two_shard_fleet()
{
    Router_config config;
    Shard_config gtx_shard;
    gtx_shard.server = smoke_server();
    gtx_shard.device_affinity = {"gtx1080-sim"};
    Shard_config a100_shard;
    a100_shard.server = smoke_server();
    a100_shard.device_affinity = {"a100-sim"};
    config.shards = {gtx_shard, a100_shard};
    return config;
}

TEST(OptimizationRouter, RoutesByDeviceAffinity)
{
    Optimization_router router(two_shard_fleet());
    const Graph g = quickstart_graph();

    Optimize_request on_gtx; // default device resolves to gtx1080
    Optimize_request on_a100;
    on_a100.device = "a100-sim";
    EXPECT_EQ(router.route("taso", g, on_gtx), 0u);
    EXPECT_EQ(router.route("taso", g, on_a100), 1u);
    // Deterministic: the same request always lands on the same shard.
    EXPECT_EQ(router.route("taso", g, on_a100), router.route("taso", g, on_a100));

    const Optimize_result gtx = router.submit("taso", g, on_gtx).wait();
    const Optimize_result a100 = router.submit("taso", g, on_a100).wait();
    router.drain();
    EXPECT_EQ(gtx.device, "gtx1080-sim");
    EXPECT_EQ(a100.device, "a100-sim");

    const Router_stats stats = router.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.affinity_routed, 2u);
    EXPECT_EQ(stats.hash_routed, 0u);
    EXPECT_EQ(stats.routed_to, (std::vector<std::uint64_t>{1, 1}));
    EXPECT_EQ(stats.total.completed, 2u);
    EXPECT_EQ(stats.shards.size(), 2u);
    EXPECT_EQ(stats.shards[0].completed, 1u);
    EXPECT_EQ(stats.shards[1].completed, 1u);
}

TEST(OptimizationRouter, UnclaimedDeviceFallsBackToDeterministicHash)
{
    // Neither shard claims the a100: both registries still hold it (the
    // standard pair), so hash fallback spreads — deterministically — across
    // the whole fleet.
    Router_config config = two_shard_fleet();
    config.shards[1].device_affinity = {"gtx1080-sim"};
    Optimization_router router(config);

    Optimize_request on_a100;
    on_a100.device = "a100-sim";
    const std::size_t target = router.route("taso", quickstart_graph(), on_a100);
    EXPECT_LT(target, 2u);
    EXPECT_EQ(router.route("taso", quickstart_graph(), on_a100), target);

    const Optimize_result result = router.submit("taso", quickstart_graph(), on_a100).wait();
    router.drain();
    EXPECT_EQ(result.device, "a100-sim");
    const Router_stats stats = router.stats();
    EXPECT_EQ(stats.hash_routed, 1u);
    EXPECT_EQ(stats.affinity_routed, 0u);
}

TEST(OptimizationRouter, HashFallbackOnlyConsidersShardsThatCanServeTheDevice)
{
    // Heterogeneous fleet: shard 1 never registered the a100. With no
    // affinity anywhere, a100 traffic must hash-spread across *capable*
    // shards only — landing it on shard 1 would reject a servable request.
    Router_config config = two_shard_fleet();
    config.shards[0].device_affinity = {};
    config.shards[1].device_affinity = {};
    config.shards[1].server.service.devices = {gtx1080_profile()};
    Optimization_router router(config);

    Optimize_request on_a100;
    on_a100.device = "a100-sim";
    for (int i = 1; i <= 4; ++i)
        EXPECT_EQ(router.route("taso", variant_graph(i), on_a100), 0u) << i;
    const Optimize_result result = router.submit("taso", quickstart_graph(), on_a100).wait();
    router.drain();
    EXPECT_EQ(result.device, "a100-sim");
    EXPECT_EQ(router.stats().hash_routed, 1u);
}

TEST(OptimizationRouter, DefaultDeviceIsPinnedBeforeHeterogeneousShardsResolveIt)
{
    // Shard 1 claims the gtx1080 but *defaults* to the a100: a
    // default-device request routes as shard 0's default (gtx1080) and
    // must be optimised for that device by whichever shard executes it.
    Router_config config = two_shard_fleet();
    config.shards[0].device_affinity = {};
    config.shards[1].device_affinity = {"gtx1080-sim"};
    config.shards[1].server.service.default_device = "a100-sim";
    Optimization_router router(config);

    const Graph g = quickstart_graph();
    EXPECT_EQ(router.route("taso", g), 1u); // affinity sends it to the a100-defaulting shard
    const Optimize_result result = router.submit("taso", g).wait();
    router.drain();
    EXPECT_EQ(result.device, "gtx1080-sim");
}

TEST(OptimizationRouter, RejectsEmptyFleetAndUnservableAffinity)
{
    EXPECT_THROW(Optimization_router(Router_config{}), std::invalid_argument);

    Router_config config = two_shard_fleet();
    config.shards[0].device_affinity = {"h100-sim"}; // not in that shard's registry
    EXPECT_THROW(Optimization_router(std::move(config)), std::invalid_argument);
}

TEST(OptimizationRouter, RoutedResultsBitIdenticalToDirectPerDeviceServiceCalls)
{
    Optimization_router router(two_shard_fleet());
    Optimization_service direct(smoke_service());
    const Graph g = projection_graph();

    for (const std::string& backend : direct.backends()) {
        for (const std::string& device : {std::string("gtx1080-sim"), std::string("a100-sim")}) {
            Optimize_request request;
            request.device = device;
            const Optimize_result routed = router.submit(backend, g, request).wait();
            const Optimize_result reference = direct.optimize(backend, g, request);
            EXPECT_EQ(routed.best_graph.canonical_hash(), reference.best_graph.canonical_hash())
                << backend << " on " << device;
            EXPECT_EQ(routed.final_ms, reference.final_ms) << backend << " on " << device;
            EXPECT_EQ(routed.initial_ms, reference.initial_ms) << backend << " on " << device;
            EXPECT_EQ(routed.device, device) << backend;
        }
    }
    router.drain();
}

// ---------------------------------------------------------------------------
// Service concurrency hooks
// ---------------------------------------------------------------------------

TEST(Telemetry, PercentilesAreBucketBoundedHistogramEstimates)
{
    // p50/p95 are estimated from the xrlflow_job_latency_ms buckets
    // (latency_ms_buckets(): ..., 2.5, 5, 10, 25, ...), so each lands in
    // the bucket holding its nearest-rank sample rather than on the sample.
    Telemetry telemetry("percentile-test");

    // No samples: percentiles are defined as 0.
    Server_stats stats = telemetry.snapshot(0, 0, 0);
    EXPECT_EQ(stats.p50_latency_ms, 0.0);
    EXPECT_EQ(stats.p95_latency_ms, 0.0);

    // One 5 ms sample: every percentile is in its bucket (2.5, 5].
    telemetry.on_finish("taso", Job_state::done, /*latency_seconds=*/0.005, 0.0, false);
    stats = telemetry.snapshot(0, 0, 0);
    EXPECT_GT(stats.p50_latency_ms, 2.5);
    EXPECT_LE(stats.p50_latency_ms, 5.0);
    EXPECT_GT(stats.p95_latency_ms, 2.5);
    EXPECT_LE(stats.p95_latency_ms, 5.0);

    // Samples {5, 20}: p50 has nearest rank 1 (bucket (2.5, 5]) and p95
    // rank 2 (bucket (10, 25]).
    telemetry.on_finish("taso", Job_state::done, /*latency_seconds=*/0.020, 0.0, false);
    stats = telemetry.snapshot(0, 0, 0);
    EXPECT_GT(stats.p50_latency_ms, 2.5);
    EXPECT_LE(stats.p50_latency_ms, 5.0);
    EXPECT_GT(stats.p95_latency_ms, 10.0);
    EXPECT_LE(stats.p95_latency_ms, 25.0);
}

/// Sum over the `family` series whose labels include every pair in
/// `match`: counter values, or histogram sums.
double registry_sum(const std::string& family, const Metric_labels& match)
{
    double total = 0.0;
    for (const Metrics_registry::Family_snapshot& fam : Metrics_registry::global().snapshot()) {
        if (fam.name != family) continue;
        for (const Metrics_registry::Series_snapshot& series : fam.series) {
            const bool selected = std::all_of(match.begin(), match.end(), [&](const auto& label) {
                return std::find(series.labels.begin(), series.labels.end(), label) !=
                       series.labels.end();
            });
            if (selected) total += series.histogram ? series.histogram->sum : series.value;
        }
    }
    return total;
}

TEST(Telemetry, ServerStatsEqualTheRegistryDeltaSinceConstruction)
{
    const std::string shard = "agreement";
    const Metric_labels shard_label{{"shard", shard}};
    const std::vector<std::string> counters = {"submitted", "coalesced", "rejected", "shed",
                                               "completed", "cancelled", "failed", "cache_hits"};
    const std::vector<std::string> per_backend = {"submitted", "completed", "cancelled",
                                                  "failed"};
    const auto series = [](const std::string& counter) {
        return "xrlflow_server_" + counter + "_total";
    };
    const auto backend_label = [&](const std::string& backend) {
        return Metric_labels{{"backend", backend}, {"shard", shard}};
    };
    std::map<std::string, double> before;
    for (const std::string& counter : counters)
        before[counter] = registry_sum(series(counter), shard_label);
    const std::vector<std::string>& backends = backend_names();
    for (const std::string& backend : backends) {
        for (const std::string& counter : per_backend)
            before[backend + counter] = registry_sum(series(counter), backend_label(backend));
        before[backend + "busy"] = registry_sum("xrlflow_job_busy_ms", backend_label(backend));
    }

    auto plan = std::make_shared<Fault_plan>();
    plan->add("server", {.begin = 1, .count = 1, .action = Fault_action::fail});
    Server_config config = smoke_server();
    config.start_paused = true;
    config.workers = 1;
    config.queue.capacity = 2;
    config.metrics_shard = shard;
    config.fault_plan = plan;
    {
        Optimization_server server(config);
        const Graph g = quickstart_graph();
        const Job_handle search = server.submit("taso", g);
        EXPECT_TRUE(server.submit("taso", g).coalesced());
        Job_handle cancelled = server.submit("pet", variant_graph(1));
        EXPECT_EQ(server.submit("tensat", projection_graph()).poll(), Job_state::rejected);
        cancelled.cancel();
        server.resume();
        EXPECT_FALSE(search.wait().from_cache); // executed event 0: the search
        EXPECT_THROW(server.submit("taso", variant_graph(2)).wait(), std::runtime_error);
        EXPECT_TRUE(server.submit("taso", g).wait().from_cache); // event 2: memo hit
        server.drain();

        const Server_stats stats = server.stats();
        const std::map<std::string, std::uint64_t> reported = {
            {"submitted", stats.submitted}, {"coalesced", stats.coalesced},
            {"rejected", stats.rejected},   {"shed", stats.shed},
            {"completed", stats.completed}, {"cancelled", stats.cancelled},
            {"failed", stats.failed},       {"cache_hits", stats.cache_hits}};
        for (const std::string& counter : counters)
            EXPECT_EQ(static_cast<double>(reported.at(counter)),
                      registry_sum(series(counter), shard_label) - before[counter])
                << counter;
        EXPECT_EQ(stats.submitted, 6u);
        EXPECT_EQ(stats.coalesced, 1u);
        EXPECT_EQ(stats.rejected, 1u);
        EXPECT_EQ(stats.completed, 2u);
        EXPECT_EQ(stats.cancelled, 1u);
        EXPECT_EQ(stats.failed, 1u);
        EXPECT_EQ(stats.cache_hits, 1u);

        for (const std::string& backend : backends) {
            const auto it = stats.backends.find(backend);
            const Backend_stats b = it == stats.backends.end() ? Backend_stats{} : it->second;
            const std::map<std::string, std::uint64_t> entry = {{"submitted", b.submitted},
                                                                {"completed", b.completed},
                                                                {"cancelled", b.cancelled},
                                                                {"failed", b.failed}};
            for (const std::string& counter : per_backend)
                EXPECT_EQ(static_cast<double>(entry.at(counter)),
                          registry_sum(series(counter), backend_label(backend)) -
                              before[backend + counter])
                    << backend << " " << counter;
            EXPECT_NEAR(b.busy_seconds * 1e3,
                        registry_sum("xrlflow_job_busy_ms", backend_label(backend)) -
                            before[backend + "busy"],
                        1e-6)
                << backend;
        }
        EXPECT_EQ(stats.backends.at("taso").submitted, 4u);
        EXPECT_EQ(stats.backends.at("tensat").submitted, 1u);
        EXPECT_GT(stats.backends.at("taso").busy_seconds, 0.0);
    }

    // A later server on the same label publishes into the same series but
    // reads only its own events.
    config.fault_plan = nullptr;
    Optimization_server successor(config);
    const Server_stats fresh = successor.stats();
    EXPECT_EQ(fresh.submitted, 0u);
    EXPECT_EQ(fresh.coalesced, 0u);
    EXPECT_EQ(fresh.rejected, 0u);
    EXPECT_EQ(fresh.completed, 0u);
    EXPECT_EQ(fresh.cancelled, 0u);
    EXPECT_EQ(fresh.failed, 0u);
    EXPECT_EQ(fresh.cache_hits, 0u);
    EXPECT_EQ(fresh.p95_latency_ms, 0.0);
    EXPECT_TRUE(fresh.backends.empty());
    EXPECT_GE(registry_sum(series("submitted"), shard_label), 6.0);
}

TEST(OptimizationService, ConcurrentSameBackendCallsWidenInstancePool)
{
    Optimization_service service(smoke_service());

    Gate gate;
    Optimize_request gated;
    gated.on_progress = gate.callback();
    std::thread holder([&] { service.optimize("taso", projection_graph(), gated); });
    gate.await_entered();
    // A second concurrent call for the same backend must not block.
    service.optimize("taso", quickstart_graph());
    gate.release();
    holder.join();
    EXPECT_EQ(service.backend_instances("taso"), 2u);

    // Serial calls keep reusing one instance.
    service.optimize("taso", variant_graph(1));
    service.optimize("taso", variant_graph(2));
    EXPECT_EQ(service.backend_instances("taso"), 2u);
}

} // namespace
} // namespace xrl
