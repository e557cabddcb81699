#include "serve/telemetry.h"

#include "core/optimizer_api.h"
#include "support/check.h"

namespace xrl {

namespace {

/// Raise `peak` to `value` if it is higher.
void raise_to(std::atomic<std::size_t>& peak, std::size_t value)
{
    std::size_t current = peak.load(std::memory_order_relaxed);
    while (value > current && !peak.compare_exchange_weak(current, value, std::memory_order_relaxed))
        ;
}

} // namespace

Telemetry::Telemetry(const std::string& metrics_shard)
    : coalesced_("xrlflow_server_coalesced_total", "Submits attached to an in-flight duplicate",
                 {{"shard", metrics_shard}}),
      rejected_("xrlflow_server_rejected_total", "Submits refused at admission (incl. shed)",
                {{"shard", metrics_shard}}),
      shed_("xrlflow_server_shed_total", "Queued jobs evicted by a better-ranked arrival",
            {{"shard", metrics_shard}}),
      cache_hits_("xrlflow_server_cache_hits_total", "Jobs answered by the service memo cache",
                  {{"shard", metrics_shard}}),
      queue_depth_gauge_(Metrics_registry::global().gauge(
          "xrlflow_server_queue_depth", "Jobs waiting in the admission queue",
          {{"shard", metrics_shard}})),
      running_gauge_(Metrics_registry::global().gauge("xrlflow_server_running",
                                                      "Jobs currently executing on workers",
                                                      {{"shard", metrics_shard}})),
      inflight_gauge_(Metrics_registry::global().gauge("xrlflow_server_inflight",
                                                       "Coalescable primaries (queued + running)",
                                                       {{"shard", metrics_shard}})),
      uptime_gauge_(Metrics_registry::global().gauge(
          "xrlflow_server_uptime_seconds", "Seconds since shard start", {{"shard", metrics_shard}}))
{
    // The server admits only built-in backends, so every series it can
    // touch exists from here on.
    for (const std::string& name : backend_names()) {
        const Metric_labels labels{{"backend", name}, {"shard", metrics_shard}};
        backends_.emplace(
            name,
            Backend_series{
                {"xrlflow_server_submitted_total", "submit() calls (incl. coalesced/rejected)",
                 labels},
                {"xrlflow_server_completed_total", "Jobs finished successfully", labels},
                {"xrlflow_server_cancelled_total", "Jobs reaching cancelled", labels},
                {"xrlflow_server_failed_total", "Jobs reaching failed", labels},
                {"xrlflow_job_latency_ms", "Submit-to-terminal latency", latency_ms_buckets(),
                 labels},
                {"xrlflow_job_busy_ms", "Worker time spent executing the job",
                 latency_ms_buckets(), labels},
            });
    }
}

const Telemetry::Backend_series& Telemetry::backend(const std::string& name) const
{
    const auto it = backends_.find(name);
    XRL_EXPECTS(it != backends_.end());
    return it->second;
}

void Telemetry::on_submit(const std::string& backend_name)
{
    backend(backend_name).submitted.increment();
}

void Telemetry::on_coalesce()
{
    coalesced_.increment();
}

void Telemetry::on_reject(bool shed)
{
    rejected_.increment();
    if (shed) shed_.increment();
}

void Telemetry::on_finish(const std::string& backend_name, Job_state terminal,
                          double latency_seconds, double busy_seconds, bool from_cache)
{
    const Backend_series& series = backend(backend_name);
    switch (terminal) {
    case Job_state::done: series.completed.increment(); break;
    case Job_state::cancelled: series.cancelled.increment(); break;
    case Job_state::failed: series.failed.increment(); break;
    default: XRL_ASSERT(false && "on_finish expects a terminal worker outcome");
    }
    if (from_cache) cache_hits_.increment();
    series.latency_ms.observe(latency_seconds * 1e3);
    series.busy_ms.observe(busy_seconds * 1e3);
}

void Telemetry::on_occupancy(std::size_t queue_depth, std::size_t running)
{
    raise_to(peak_queue_depth_, queue_depth);
    raise_to(peak_running_, running);
    queue_depth_gauge_.set(static_cast<double>(queue_depth));
    running_gauge_.set(static_cast<double>(running));
}

Server_stats Telemetry::snapshot(std::size_t queue_depth, std::size_t running,
                                 std::size_t inflight) const
{
    Server_stats stats;
    Histogram::Snapshot latency;
    for (const auto& [name, series] : backends_) {
        Backend_stats b;
        b.submitted = series.submitted.value();
        b.completed = series.completed.value();
        b.cancelled = series.cancelled.value();
        b.failed = series.failed.value();
        b.busy_seconds = series.busy_ms.snapshot().sum * 1e-3;
        // Only backends that saw traffic are listed.
        if (b.submitted + b.completed + b.cancelled + b.failed == 0) continue;
        stats.submitted += b.submitted;
        stats.completed += b.completed;
        stats.cancelled += b.cancelled;
        stats.failed += b.failed;
        latency += series.latency_ms.snapshot();
        stats.backends.emplace(name, b);
    }
    stats.coalesced = coalesced_.value();
    stats.rejected = rejected_.value();
    stats.shed = shed_.value();
    stats.cache_hits = cache_hits_.value();
    stats.queue_depth = queue_depth;
    stats.running = running;
    stats.inflight = inflight;
    stats.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
    stats.peak_running = peak_running_.load(std::memory_order_relaxed);
    stats.p50_latency_ms = latency.quantile(0.50);
    stats.p95_latency_ms = latency.quantile(0.95);
    const auto elapsed = std::chrono::steady_clock::now() - started_;
    stats.uptime_seconds = std::chrono::duration<double>(elapsed).count();
    stats.snapshot_seq = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Snapshot time is the natural point to refresh the slow-moving gauges.
    queue_depth_gauge_.set(static_cast<double>(queue_depth));
    running_gauge_.set(static_cast<double>(running));
    inflight_gauge_.set(static_cast<double>(inflight));
    uptime_gauge_.set(stats.uptime_seconds);
    return stats;
}

} // namespace xrl
