// The observability plane: metric registry semantics (histogram quantile
// accuracy against exact nearest-rank, concurrent lock-free updates — this
// file runs in CI's ThreadSanitizer job — and the Prometheus exposition
// format pinned by a golden string), the trace plane (span nesting, ring
// eviction, Chrome trace-event export), and the wire surface end-to-end
// over loopback: a traced submit's id travels client -> daemon -> router ->
// shard, and `metrics`/`trace` PDUs read it all back.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ir/builder.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/protocol.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace xrl {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Tracing on for the scope of one test, off (and the buffer cleared)
/// afterwards so tests cannot leak spans into each other.
struct Scoped_tracing {
    Scoped_tracing() { set_trace_enabled(true); }
    ~Scoped_tracing()
    {
        set_trace_enabled(false);
        Trace_buffer::global().clear();
    }
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

Daemon_config smoke_daemon()
{
    Daemon_config config;
    config.router.shards.resize(1);
    Service_config& service = config.router.shards[0].server.service;
    service.backend_options["taso.budget"] = 15;
    service.backend_options["pet.budget"] = 8;
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

// ---------------------------------------------------------------------------
// Histogram: quantile accuracy against exact nearest-rank
// ---------------------------------------------------------------------------

TEST(MetricsHistogram, QuantileWithinOneBucketOfExactNearestRank)
{
    // Buckets every 100 over [0, 1000]; the estimate interpolates inside
    // the holding bucket, so its error is bounded by one bucket width.
    std::vector<double> bounds;
    for (int i = 1; i <= 10; ++i) bounds.push_back(100.0 * i);
    Histogram histogram(bounds);

    std::vector<double> values;
    for (int i = 1; i <= 1000; ++i) values.push_back(static_cast<double>(i));
    for (double v : values) histogram.observe(v);

    const Histogram::Snapshot snap = histogram.snapshot();
    ASSERT_EQ(snap.count, values.size());
    std::sort(values.begin(), values.end());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const double exact = values[std::max<std::size_t>(rank, 1) - 1];
        EXPECT_NEAR(snap.quantile(q), exact, 100.0) << "q=" << q;
    }
    EXPECT_NEAR(snap.mean(), 500.5, 1e-9);
}

TEST(MetricsHistogram, SkewedDistributionAndInfBucket)
{
    Histogram histogram({1.0, 10.0});
    for (int i = 0; i < 99; ++i) histogram.observe(0.5);
    histogram.observe(1e9); // lands in +Inf

    const Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_LE(snap.quantile(0.5), 1.0);
    // The +Inf bucket has no upper edge: the estimate answers with its
    // lower bound rather than inventing a value.
    EXPECT_EQ(snap.quantile(1.0), 10.0);
}

TEST(MetricsHistogram, RejectsBadBuckets)
{
    EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Concurrency: relaxed-atomic updates under TSan
// ---------------------------------------------------------------------------

TEST(MetricsConcurrency, ParallelCountersGaugesHistogramsLoseNothing)
{
    Metrics_registry registry;
    Counter& counter = registry.counter("xrlflow_test_ops_total", "ops");
    Gauge& gauge = registry.gauge("xrlflow_test_level", "level");
    Histogram& histogram =
        registry.histogram("xrlflow_test_op_us", "op time", {10.0, 100.0, 1000.0});

    constexpr int threads = 8;
    constexpr int per_thread = 20000;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&] {
            for (int i = 0; i < per_thread; ++i) {
                counter.increment();
                gauge.add(1.0);
                histogram.observe(1.0);
            }
        });
    for (std::thread& worker : workers) worker.join();

    EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(threads) * per_thread);
    EXPECT_EQ(gauge.value(), static_cast<double>(threads) * per_thread);
    const Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, static_cast<std::uint64_t>(threads) * per_thread);
    EXPECT_EQ(snap.sum, static_cast<double>(threads) * per_thread);
}

// ---------------------------------------------------------------------------
// Registry semantics + exposition golden
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateAndSchemaConflicts)
{
    Metrics_registry registry;
    Counter& a = registry.counter("xrlflow_test_total", "t", {{"shard", "0"}});
    Counter& b = registry.counter("xrlflow_test_total", "t", {{"shard", "0"}});
    EXPECT_EQ(&a, &b); // same (name, labels) -> same series
    Counter& other = registry.counter("xrlflow_test_total", "t", {{"shard", "1"}});
    EXPECT_NE(&a, &other);

    EXPECT_THROW((void)registry.gauge("xrlflow_test_total", "t"), std::invalid_argument);
    (void)registry.histogram("xrlflow_test_h", "h", {1.0, 2.0});
    EXPECT_THROW((void)registry.histogram("xrlflow_test_h", "h", {1.0, 3.0}),
                 std::invalid_argument);
}

TEST(MetricsRegistry, ExpositionGolden)
{
    Metrics_registry registry;
    registry
        .counter("xrlflow_test_jobs_total", "Jobs admitted",
                 {{"shard", "0"}, {"backend", "ta\"so"}})
        .increment(3);
    registry.gauge("xrlflow_test_queue_depth", "Jobs waiting").set(2.5);
    Histogram& histogram =
        registry.histogram("xrlflow_test_latency_ms", "Job latency", {1.0, 10.0});
    histogram.observe(0.5);
    histogram.observe(5.0);
    histogram.observe(50.0);

    // Families name-ordered, labels key-sorted, buckets cumulative with a
    // +Inf cap, label values escaped — the whole format in one string.
    const std::string expected = "# HELP xrlflow_test_jobs_total Jobs admitted\n"
                                 "# TYPE xrlflow_test_jobs_total counter\n"
                                 "xrlflow_test_jobs_total{backend=\"ta\\\"so\",shard=\"0\"} 3\n"
                                 "# HELP xrlflow_test_latency_ms Job latency\n"
                                 "# TYPE xrlflow_test_latency_ms histogram\n"
                                 "xrlflow_test_latency_ms_bucket{le=\"1\"} 1\n"
                                 "xrlflow_test_latency_ms_bucket{le=\"10\"} 2\n"
                                 "xrlflow_test_latency_ms_bucket{le=\"+Inf\"} 3\n"
                                 "xrlflow_test_latency_ms_sum 55.5\n"
                                 "xrlflow_test_latency_ms_count 3\n"
                                 "# HELP xrlflow_test_queue_depth Jobs waiting\n"
                                 "# TYPE xrlflow_test_queue_depth gauge\n"
                                 "xrlflow_test_queue_depth 2.5\n";
    EXPECT_EQ(registry.expose(), expected);
}

// ---------------------------------------------------------------------------
// Trace plane: spans, nesting, eviction, export
// ---------------------------------------------------------------------------

TEST(Trace, DisabledSpansCostNothingAndRecordNothing)
{
    set_trace_enabled(false);
    Trace_buffer::global().clear();
    const Trace_scope scope(new_trace_id(), 0);
    {
        Span_scope span("never/recorded");
        EXPECT_FALSE(span.active());
        span.annotate("key", "value"); // no-op, must not crash
    }
    EXPECT_EQ(Trace_buffer::global().size(), 0U);
}

TEST(Trace, SpansNestAndCarryTheTraceId)
{
    const Scoped_tracing tracing;
    const std::uint64_t trace_id = new_trace_id();
    {
        const Trace_scope scope(trace_id, 77);
        Span_scope outer("test/outer");
        outer.annotate("k", "v");
        { Span_scope inner("test/inner"); }
    }
    // Inner ends first, so it is recorded first.
    const std::vector<Trace_span> spans = Trace_buffer::global().spans_for(trace_id);
    ASSERT_EQ(spans.size(), 2U);
    EXPECT_EQ(spans[0].name, "test/inner");
    EXPECT_EQ(spans[1].name, "test/outer");
    EXPECT_EQ(spans[1].parent_span, 77U);
    EXPECT_EQ(spans[0].parent_span, spans[1].span_id);
    for (const Trace_span& span : spans) EXPECT_EQ(span.trace_id, trace_id);
    ASSERT_EQ(spans[1].annotations.size(), 1U);
    EXPECT_EQ(spans[1].annotations[0].first, "k");
}

TEST(Trace, RingEvictsOldestAndCountsDrops)
{
    Trace_buffer buffer(4);
    for (std::uint64_t i = 1; i <= 6; ++i) {
        Trace_span span;
        span.trace_id = 9;
        span.span_id = i;
        buffer.record(span);
    }
    EXPECT_EQ(buffer.size(), 4U);
    EXPECT_EQ(buffer.dropped(), 2U);
    const std::vector<Trace_span> spans = buffer.spans();
    ASSERT_EQ(spans.size(), 4U);
    // Oldest first, oldest evicted: 3, 4, 5, 6 remain.
    EXPECT_EQ(spans.front().span_id, 3U);
    EXPECT_EQ(spans.back().span_id, 6U);
}

TEST(Trace, ChromeExportIsWellFormed)
{
    Trace_span span;
    span.trace_id = 1;
    span.span_id = 2;
    span.name = "needs \"escaping\"\n";
    span.thread_id = 3;
    span.start_us = 100;
    span.duration_us = 50;
    span.annotations.emplace_back("backend", "taso");

    std::ostringstream os;
    write_chrome_trace(os, {span});
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.substr(json.size() - 2), "]\n");
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"needs \\\"escaping\\\"\\n\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
    EXPECT_NE(json.find("\"backend\":\"taso\""), std::string::npos);
    // No raw control characters survive into the JSON.
    for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x0A);
}

// ---------------------------------------------------------------------------
// Wire: trace ids round-trip through a loopback daemon
// ---------------------------------------------------------------------------

TEST(ObservabilityWire, TraceIdTravelsClientToShardAndBack)
{
    const Scoped_tracing tracing;
    Daemon daemon(smoke_daemon());
    Client client(client_for(daemon));

    const Submit_ok submitted = client.submit("taso", quickstart_graph());
    const std::uint64_t trace_id = client.last_trace_id();
    ASSERT_NE(trace_id, 0U);
    (void)client.wait(submitted.job_id);

    // The shard's execute span is recorded when the worker's scope closes,
    // which can race the terminal poll by a moment.
    std::vector<Trace_span> spans;
    for (int attempt = 0; attempt < 100; ++attempt) {
        spans = Trace_buffer::global().spans_for(trace_id);
        const auto has = [&](const char* name) {
            return std::any_of(spans.begin(), spans.end(),
                               [&](const Trace_span& s) { return s.name == name; });
        };
        if (has("client/submit") && has("daemon/submit") && has("router/dispatch") &&
            has("shard/execute"))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const auto count = [&](const char* name) {
        return std::count_if(spans.begin(), spans.end(),
                             [&](const Trace_span& s) { return s.name == name; });
    };
    EXPECT_EQ(count("client/submit"), 1);
    EXPECT_EQ(count("daemon/submit"), 1);
    EXPECT_EQ(count("router/dispatch"), 1);
    EXPECT_EQ(count("shard/execute"), 1);

    // The daemon resolves the wire job id to the same trace (the loopback
    // daemon shares this process's buffer, so the fetched set matches).
    const Trace_ok by_job = client.trace(submitted.job_id);
    EXPECT_EQ(by_job.trace_id, trace_id);
    ASSERT_GE(by_job.spans.size(), 3U);
    for (const Trace_span& span : by_job.spans) EXPECT_EQ(span.trace_id, trace_id);

    // Codec round trip: every span field survives the wire bit-exactly
    // (neither poll nor trace PDUs record spans, so the sets match).
    const std::vector<Trace_span> local = Trace_buffer::global().spans_for(trace_id);
    const Trace_ok by_id = client.trace(0, trace_id);
    ASSERT_EQ(by_id.spans.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ(by_id.spans[i].name, local[i].name);
        EXPECT_EQ(by_id.spans[i].span_id, local[i].span_id);
        EXPECT_EQ(by_id.spans[i].parent_span, local[i].parent_span);
        EXPECT_EQ(by_id.spans[i].start_us, local[i].start_us);
        EXPECT_EQ(by_id.spans[i].duration_us, local[i].duration_us);
        EXPECT_EQ(by_id.spans[i].annotations, local[i].annotations);
    }

    // Unknown wire job id: the typed refusal, not a crash or empty reply.
    try {
        (void)client.trace(999999);
        FAIL() << "expected unknown_job";
    } catch (const Protocol_error& error) {
        EXPECT_EQ(error.code(), Protocol_error_code::unknown_job);
        EXPECT_TRUE(error.remote());
    }
}

TEST(ObservabilityWire, MetricsExpositionCoversTheServingPlane)
{
    Daemon daemon(smoke_daemon());
    Client client(client_for(daemon));
    (void)client.optimize("taso", quickstart_graph());

    const Metrics_ok metrics = client.metrics();
    const std::string& text = metrics.exposition;
    for (const char* series :
         {"xrlflow_server_submitted_total", "xrlflow_server_completed_total",
          "xrlflow_server_queue_depth", "xrlflow_server_inflight", "xrlflow_job_latency_ms_bucket",
          "xrlflow_job_latency_ms_count", "xrlflow_router_submitted_total", "xrlflow_router_shards",
          "xrlflow_shard_breaker_state", "xrlflow_daemon_connections_active",
          "xrlflow_daemon_jobs_submitted"})
        EXPECT_NE(text.find(series), std::string::npos) << series;

    // Spot-parse: the taso submitted counter for shard 0 is a positive
    // integer.
    const std::string needle = "xrlflow_server_submitted_total{backend=\"taso\",shard=\"0\"} ";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GE(std::stoull(text.substr(at + needle.size())), 1ULL);
}

// ---------------------------------------------------------------------------
// Stats satellites: uptime and snapshot sequence
// ---------------------------------------------------------------------------

TEST(ObservabilityWire, StatsCarryUptimeAndMonotonicSnapshotSeq)
{
    Daemon daemon(smoke_daemon());
    Client client(client_for(daemon));

    const Stats_ok first = client.stats();
    const Stats_ok second = client.stats();
    EXPECT_GE(first.router.uptime_seconds, 0.0);
    EXPECT_GE(second.router.uptime_seconds, first.router.uptime_seconds);
    EXPECT_GT(second.router.snapshot_seq, first.router.snapshot_seq);
    EXPECT_GT(first.router.total.snapshot_seq, 0U);
    EXPECT_GE(first.router.total.uptime_seconds, 0.0);
}

} // namespace
} // namespace xrl
