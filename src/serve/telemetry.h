// Server telemetry: what the serving fleet is doing, snapshottable.
//
// Every submit, coalesce, rejection, and completion is counted in the
// process-wide metrics registry; Server_stats is a view over those series,
// and stats() on the server folds in live queue depth and worker
// occupancy. Latency percentiles (p50/p95 of submit-to-terminal time) are
// estimated from the latency histograms since the server started, within
// one bucket's width (support/metrics.h). The benches and tests drive their
// acceptance numbers (coalesce + cache-hit rate, makespan) off these
// counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "serve/job.h"
#include "support/metrics.h"

namespace xrl {

struct Backend_stats {
    /// submit() calls naming this backend — including coalesced duplicates
    /// and rejected submissions, so this can exceed completed + cancelled
    /// + failed (the primary-job outcomes below).
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    double busy_seconds = 0.0; ///< Worker time spent in this backend's searches.
};

/// One consistent snapshot of the server's counters.
struct Server_stats {
    // Admission.
    std::uint64_t submitted = 0; ///< Every submit() call.
    std::uint64_t coalesced = 0; ///< Submits attached to an in-flight duplicate.
    std::uint64_t rejected = 0;  ///< Refused at admission (includes shed).
    std::uint64_t shed = 0;      ///< Evicted from the queue by a better-ranked arrival.

    // Outcomes (primary jobs reaching a terminal state).
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    std::uint64_t cache_hits = 0; ///< Jobs answered by the service memo cache.

    // Live occupancy at snapshot time.
    std::size_t queue_depth = 0;
    std::size_t running = 0;
    /// Coalescable primaries (queued + running jobs duplicates could still
    /// attach to) — the server's in-flight table size. Load-aware routing
    /// and the wire protocol's stats PDU read fleet pressure off this and
    /// queue_depth rather than re-deriving it.
    std::size_t inflight = 0;

    // High-water marks since construction (Telemetry gauges, fed by the
    // server at every admission and worker transition): how deep the
    // backlog and how wide the worker occupancy have ever been, so a
    // snapshot taken in a quiet moment still shows what the server has
    // absorbed.
    std::size_t peak_queue_depth = 0;
    std::size_t peak_running = 0;

    // Submit-to-terminal latency since the server started (histogram
    // estimates).
    double p50_latency_ms = 0.0;
    double p95_latency_ms = 0.0;

    // Scraper aids: seconds since this Telemetry was constructed (a reset
    // betrays a restart) and a monotonic per-snapshot sequence number so
    // out-of-order scrape replies can be ordered.
    double uptime_seconds = 0.0;
    std::uint64_t snapshot_seq = 0;

    std::map<std::string, Backend_stats> backends;

    /// Fraction of submits that attached to an in-flight duplicate.
    double coalesce_rate() const
    {
        return submitted > 0 ? static_cast<double>(coalesced) / static_cast<double>(submitted) : 0.0;
    }

    /// Fraction of submits answered by the post-hoc memo cache.
    double cache_hit_rate() const
    {
        return submitted > 0 ? static_cast<double>(cache_hits) / static_cast<double>(submitted) : 0.0;
    }

    /// Fraction of submits that never paid for a search: coalesced onto an
    /// in-flight job or served from the memo cache.
    double dedup_rate() const
    {
        return submitted > 0
                   ? static_cast<double>(coalesced + cache_hits) / static_cast<double>(submitted)
                   : 0.0;
    }
};

/// The server's view over its registry series. Every event is counted once,
/// in `Metrics_registry::global()` under a `shard` label (`metrics_shard` —
/// the router stamps each slot's stable id here), so `xrlflowctl metrics`
/// and stats() read one store:
///   * `xrlflow_server_{submitted,completed,cancelled,failed}_total` and the
///     `xrlflow_job_latency_ms` / `xrlflow_job_busy_ms` histograms per
///     `backend`; the Server_stats totals are sums over backends;
///   * `xrlflow_server_{coalesced,rejected,shed,cache_hits}_total`;
///   * the `xrlflow_server_queue_depth/running/inflight/uptime_seconds`
///     gauges.
/// Every series is resolved at construction (one per built-in backend), so
/// recording is lock-free: one relaxed atomic add per counter.
class Telemetry {
public:
    explicit Telemetry(const std::string& metrics_shard = "0");

    void on_submit(const std::string& backend);
    void on_coalesce();
    void on_reject(bool shed);
    void on_finish(const std::string& backend, Job_state terminal, double latency_seconds,
                   double busy_seconds, bool from_cache);

    /// Occupancy gauge update: the server reports queue depth and running
    /// workers after every admission and worker transition; the high-water
    /// marks in Server_stats come from here. (The live in-flight count is
    /// sampled at snapshot time instead — it only moves with these two.)
    void on_occupancy(std::size_t queue_depth, std::size_t running);

    /// Each series minus the value it held when this Telemetry was built:
    /// a fresh server, or a replacement on its predecessor's `shard` label,
    /// reads zero. Series are read one by one, without a common lock, so a
    /// snapshot taken mid-traffic may count an event in one series and not
    /// yet in another.
    Server_stats snapshot(std::size_t queue_depth, std::size_t running,
                          std::size_t inflight) const;

private:
    struct Backend_series {
        Counter_view submitted, completed, cancelled, failed;
        Histogram_view latency_ms, busy_ms;
    };

    const Backend_series& backend(const std::string& name) const;

    std::map<std::string, Backend_series> backends_; ///< Fixed at construction.
    Counter_view coalesced_;
    Counter_view rejected_;
    Counter_view shed_;
    Counter_view cache_hits_;
    Gauge& queue_depth_gauge_;
    Gauge& running_gauge_;
    Gauge& inflight_gauge_;
    Gauge& uptime_gauge_;

    // Held here only: the registry keeps no high-water marks.
    std::atomic<std::size_t> peak_queue_depth_{0};
    std::atomic<std::size_t> peak_running_{0};
    std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
    mutable std::atomic<std::uint64_t> snapshot_seq_{0};
};

} // namespace xrl
