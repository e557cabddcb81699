// Metrics_registry: the process-wide metrics plane.
//
// Through PR 7 every subsystem grew its own ad-hoc stats struct —
// Server_stats, Router_stats, Shard_health_snapshot, Daemon_wire_stats —
// each with its own locking, its own snapshot call, and no way for a
// scraper to read the fleet without speaking every struct. This header is
// the uniform series model under all of them: labelled counters, gauges,
// and fixed-bucket histograms registered once and updated lock-free from
// the hot paths, with Prometheus-style text exposition so one scrape
// (`xrlflowctl metrics`, the `metrics` PDU) reads the whole process.
//
// Design points:
//   * Updates are wait-free-ish: counters and bucket increments are relaxed
//     atomic adds; the only lock is the registry mutex, taken at
//     registration and snapshot/exposition time, never per update.
//   * References returned by counter()/gauge()/histogram() are stable for
//     the registry's lifetime (metrics are never erased), so call sites
//     resolve a pointer once and update for free afterwards.
//   * Histograms have *fixed* buckets chosen at registration. Percentiles
//     are estimated by linear interpolation inside the bucket that holds
//     the rank — accuracy is bounded by bucket width (test_observability
//     pins this against exact nearest-rank on known distributions).
//   * Snapshot consistency: a snapshot reads every atomic once under the
//     registry mutex, so no series can be registered or torn mid-read.
//     (A histogram's count is the sum of its bucket counts; its sum is read
//     separately, so a concurrent observe may land between them, skewing
//     mean() by at most one sample — the documented, accepted tear.)
//
// The global() registry is the process's source of truth — the serving
// plane's stats structs (Server_stats, Router_stats, Daemon_wire_stats)
// are views over it (Counter_view, Histogram_view below). Tests that need
// isolation construct their own instance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/sync.h"

namespace xrl {

/// Label set attached to one series: key/value pairs, sorted by key at
/// registration so {a=1,b=2} and {b=2,a=1} name the same series.
using Metric_labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
public:
    void increment(std::uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, breaker state, uptime).
class Gauge {
public:
    void set(double value) { value_.store(value, std::memory_order_relaxed); }
    void add(double delta)
    {
        double current = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(current, current + delta,
                                             std::memory_order_relaxed))
            ;
    }
    double value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: cumulative-style buckets in exposition,
/// per-bucket counts internally. Observe is one relaxed atomic add plus a
/// CAS loop on the sum — cheap enough for per-phase hot-loop timing.
class Histogram {
public:
    /// `upper_bounds` must be strictly increasing; an implicit +Inf bucket
    /// is always appended. Throws std::invalid_argument otherwise.
    explicit Histogram(std::vector<double> upper_bounds);

    void observe(double value);

    struct Snapshot {
        std::vector<double> upper_bounds;  ///< Finite bounds (no +Inf entry).
        std::vector<std::uint64_t> counts; ///< Per-bucket; size = bounds + 1.
        std::uint64_t count = 0;           ///< Sum of `counts`.
        double sum = 0.0;

        /// Bucket-wise sum / difference with a snapshot of the same bucket
        /// layout. Adding to an empty (default) snapshot adopts the other's
        /// layout, so a loop can merge series into a fresh Snapshot.
        Snapshot& operator+=(const Snapshot& other);
        Snapshot& operator-=(const Snapshot& other);

        double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

        /// Estimated quantile (q in [0, 1]): linear interpolation inside
        /// the bucket holding the rank; the +Inf bucket answers with its
        /// lower bound (there is no upper edge to interpolate toward).
        double quantile(double q) const;
    };

    Snapshot snapshot() const;

private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_; ///< bounds_.size() + 1 slots.
    std::atomic<double> sum_{0.0};
};

/// A counter read relative to the value it held when the view was made.
/// Objects that publish into a shared series — a replacement server on its
/// predecessor's `shard` label, a second router on the unlabelled router
/// counters — keep a view, so their own stats count only their own events
/// while the series stays monotonic. (Two such objects *live at once* on
/// one series would see each other's events.)
class Counter_view {
public:
    /// Over Metrics_registry::global().counter(name, help, labels).
    Counter_view(std::string_view name, std::string_view help, Metric_labels labels = {});
    void increment(std::uint64_t by = 1) const { counter_->increment(by); }
    std::uint64_t value() const { return counter_->value() - base_; }

private:
    Counter* counter_;
    std::uint64_t base_;
};

/// The histogram counterpart of Counter_view.
class Histogram_view {
public:
    /// Over Metrics_registry::global().histogram(name, help, bounds, labels).
    Histogram_view(std::string_view name, std::string_view help, std::vector<double> upper_bounds,
                   Metric_labels labels = {});
    void observe(double value) const { histogram_->observe(value); }
    Histogram::Snapshot snapshot() const
    {
        Histogram::Snapshot now = histogram_->snapshot();
        now -= base_;
        return now;
    }

private:
    Histogram* histogram_;
    Histogram::Snapshot base_;
};

/// Bucket presets. Latencies in milliseconds (serving-path spans: 0.1 ms to
/// 60 s) and phase durations in microseconds (search hot loops: 1 µs to
/// 1 s).
std::vector<double> latency_ms_buckets();
std::vector<double> duration_us_buckets();

enum class Metric_kind : std::uint8_t { counter, gauge, histogram };

const char* to_string(Metric_kind kind);

class Metrics_registry {
public:
    Metrics_registry();  ///< Out of line: Family is incomplete here.
    ~Metrics_registry(); ///< Likewise.
    Metrics_registry(const Metrics_registry&) = delete;
    Metrics_registry& operator=(const Metrics_registry&) = delete;

    /// The process-wide registry every subsystem publishes into.
    static Metrics_registry& global();

    /// Find-or-create. The returned reference is valid for the registry's
    /// lifetime. Re-registration with the same (name, labels) returns the
    /// existing series; registering one name as two different kinds (or a
    /// histogram with different buckets) throws std::invalid_argument —
    /// one name, one schema, process-wide.
    Counter& counter(std::string_view name, std::string_view help, Metric_labels labels = {});
    Gauge& gauge(std::string_view name, std::string_view help, Metric_labels labels = {});
    Histogram& histogram(std::string_view name, std::string_view help,
                         std::vector<double> upper_bounds, Metric_labels labels = {});

    /// One series' state at snapshot time.
    struct Series_snapshot {
        Metric_labels labels;
        double value = 0.0; ///< Counter (as double) or gauge value.
        std::optional<Histogram::Snapshot> histogram;
    };

    struct Family_snapshot {
        std::string name;
        std::string help;
        Metric_kind kind = Metric_kind::counter;
        std::vector<Series_snapshot> series; ///< In label order.
    };

    /// Every family, name-ordered, series label-ordered: the one consistent
    /// read the exposition and the benches' JSON both derive from.
    std::vector<Family_snapshot> snapshot() const;

    /// Prometheus text exposition format (# HELP / # TYPE / samples;
    /// histograms expand to cumulative _bucket{le=...}, _sum, _count).
    std::string expose() const;

private:
    struct Series;
    struct Family;

    Family& family_locked(std::string_view name, std::string_view help, Metric_kind kind)
        XRL_REQUIRES(mutex_);

    mutable Mutex mutex_{"metrics_registry", Lock_rank::metrics};
    std::map<std::string, std::unique_ptr<Family>, std::less<>> families_ XRL_GUARDED_BY(mutex_);
};

/// RAII phase timer: observes elapsed microseconds into a histogram at
/// scope exit. The hot-loop instrumentation idiom:
///
///   { Scoped_timer_us t(candidate_phase_histogram("match")); ...match... }
class Scoped_timer_us {
public:
    explicit Scoped_timer_us(Histogram& histogram);
    ~Scoped_timer_us();

    Scoped_timer_us(const Scoped_timer_us&) = delete;
    Scoped_timer_us& operator=(const Scoped_timer_us&) = delete;

private:
    Histogram& histogram_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace xrl
