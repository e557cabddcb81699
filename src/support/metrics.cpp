#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace xrl {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds))
{
    for (std::size_t i = 0; i + 1 < bounds_.size(); ++i)
        if (!(bounds_[i] < bounds_[i + 1]))
            throw std::invalid_argument("Histogram bounds must be strictly increasing");
    for (double bound : bounds_)
        if (!std::isfinite(bound))
            throw std::invalid_argument("Histogram bounds must be finite (+Inf is implicit)");
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double value)
{
    // First bucket whose upper bound admits the value; past-the-end = +Inf.
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    double sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(sum, sum + value, std::memory_order_relaxed))
        ;
}

Histogram::Snapshot Histogram::snapshot() const
{
    Snapshot out;
    out.upper_bounds = bounds_;
    out.counts.resize(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        out.counts[i] = buckets_[i].load(std::memory_order_relaxed);
        out.count += out.counts[i];
    }
    out.sum = sum_.load(std::memory_order_relaxed);
    return out;
}

Histogram::Snapshot& Histogram::Snapshot::operator+=(const Snapshot& other)
{
    if (counts.empty()) return *this = other;
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
    count += other.count;
    sum += other.sum;
    return *this;
}

Histogram::Snapshot& Histogram::Snapshot::operator-=(const Snapshot& other)
{
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] -= other.counts[i];
    count -= other.count;
    sum -= other.sum;
    return *this;
}

double Histogram::Snapshot::quantile(double q) const
{
    if (count == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank index into the cumulative distribution, then linear
    // interpolation between the holding bucket's edges.
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::uint64_t next = cumulative + counts[i];
        if (next >= target) {
            const double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
            if (i == upper_bounds.size()) return lower; // +Inf bucket: no upper edge.
            const double upper = upper_bounds[i];
            const double within =
                counts[i] == 0
                    ? 0.0
                    : static_cast<double>(target - cumulative) / static_cast<double>(counts[i]);
            return lower + (upper - lower) * within;
        }
        cumulative = next;
    }
    return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

Counter_view::Counter_view(std::string_view name, std::string_view help, Metric_labels labels)
    : counter_(&Metrics_registry::global().counter(name, help, std::move(labels))),
      base_(counter_->value())
{
}

Histogram_view::Histogram_view(std::string_view name, std::string_view help,
                               std::vector<double> upper_bounds, Metric_labels labels)
    : histogram_(&Metrics_registry::global().histogram(name, help, std::move(upper_bounds),
                                                       std::move(labels))),
      base_(histogram_->snapshot())
{
}

std::vector<double> latency_ms_buckets()
{
    return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 15000, 60000};
}

std::vector<double> duration_us_buckets()
{
    return {1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
            100000, 250000, 1000000};
}

const char* to_string(Metric_kind kind)
{
    switch (kind) {
    case Metric_kind::counter: return "counter";
    case Metric_kind::gauge: return "gauge";
    case Metric_kind::histogram: return "histogram";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Metrics_registry::Series {
    Metric_labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
};

struct Metrics_registry::Family {
    std::string help;
    Metric_kind kind = Metric_kind::counter;
    std::vector<double> bounds; ///< Histogram families: the one schema.
    /// Keyed by the canonical label string; values never erased, so the
    /// Counter/Gauge/Histogram references handed out stay valid.
    std::map<std::string, Series> series;
};

Metrics_registry::Metrics_registry() = default;
Metrics_registry::~Metrics_registry() = default;

namespace {

/// Canonical series key and exposition body: `key1="v1",key2="v2"` with
/// keys sorted and values escaped (\\, \", \n — the Prometheus text rules).
std::string format_labels(const Metric_labels& labels)
{
    std::string out;
    for (const auto& [key, value] : labels) {
        if (!out.empty()) out += ',';
        out += key;
        out += "=\"";
        for (char c : value) {
            if (c == '\\') out += "\\\\";
            else if (c == '"') out += "\\\"";
            else if (c == '\n') out += "\\n";
            else out += c;
        }
        out += '"';
    }
    return out;
}

Metric_labels sorted(Metric_labels labels)
{
    std::sort(labels.begin(), labels.end());
    return labels;
}

/// Prometheus floats: integral values print without exponent noise.
std::string format_value(double value)
{
    if (value == static_cast<double>(static_cast<long long>(value)) &&
        std::abs(value) < 1e15)
        return std::to_string(static_cast<long long>(value));
    std::ostringstream os;
    os << value;
    return os.str();
}

} // namespace

Metrics_registry& Metrics_registry::global()
{
    static Metrics_registry registry;
    return registry;
}

Metrics_registry::Family& Metrics_registry::family_locked(std::string_view name,
                                                          std::string_view help,
                                                          Metric_kind kind)
{
    auto it = families_.find(name);
    if (it == families_.end()) {
        auto family = std::make_unique<Family>();
        family->help = std::string(help);
        family->kind = kind;
        it = families_.emplace(std::string(name), std::move(family)).first;
    } else if (it->second->kind != kind) {
        throw std::invalid_argument("metric '" + std::string(name) + "' already registered as " +
                                    to_string(it->second->kind) + ", requested " +
                                    to_string(kind));
    }
    return *it->second;
}

Counter& Metrics_registry::counter(std::string_view name, std::string_view help,
                                   Metric_labels labels)
{
    const Lock_guard lock(mutex_);
    Family& family = family_locked(name, help, Metric_kind::counter);
    labels = sorted(std::move(labels));
    Series& series = family.series[format_labels(labels)];
    if (series.counter == nullptr) {
        series.labels = std::move(labels);
        series.counter = std::make_unique<Counter>();
    }
    return *series.counter;
}

Gauge& Metrics_registry::gauge(std::string_view name, std::string_view help, Metric_labels labels)
{
    const Lock_guard lock(mutex_);
    Family& family = family_locked(name, help, Metric_kind::gauge);
    labels = sorted(std::move(labels));
    Series& series = family.series[format_labels(labels)];
    if (series.gauge == nullptr) {
        series.labels = std::move(labels);
        series.gauge = std::make_unique<Gauge>();
    }
    return *series.gauge;
}

Histogram& Metrics_registry::histogram(std::string_view name, std::string_view help,
                                       std::vector<double> upper_bounds, Metric_labels labels)
{
    const Lock_guard lock(mutex_);
    Family& family = family_locked(name, help, Metric_kind::histogram);
    if (family.series.empty()) {
        family.bounds = upper_bounds;
    } else if (family.bounds != upper_bounds) {
        throw std::invalid_argument("histogram '" + std::string(name) +
                                    "' already registered with different buckets");
    }
    labels = sorted(std::move(labels));
    Series& series = family.series[format_labels(labels)];
    if (series.histogram == nullptr) {
        series.labels = std::move(labels);
        series.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
    }
    return *series.histogram;
}

std::vector<Metrics_registry::Family_snapshot> Metrics_registry::snapshot() const
{
    const Lock_guard lock(mutex_);
    std::vector<Family_snapshot> out;
    out.reserve(families_.size());
    for (const auto& [name, family] : families_) {
        Family_snapshot snap;
        snap.name = name;
        snap.help = family->help;
        snap.kind = family->kind;
        for (const auto& [key, series] : family->series) {
            Series_snapshot s;
            s.labels = series.labels;
            if (series.counter != nullptr)
                s.value = static_cast<double>(series.counter->value());
            else if (series.gauge != nullptr)
                s.value = series.gauge->value();
            else if (series.histogram != nullptr)
                s.histogram = series.histogram->snapshot();
            snap.series.push_back(std::move(s));
        }
        out.push_back(std::move(snap));
    }
    return out;
}

std::string Metrics_registry::expose() const
{
    const std::vector<Family_snapshot> families = snapshot();
    std::ostringstream os;
    for (const Family_snapshot& family : families) {
        if (!family.help.empty()) os << "# HELP " << family.name << ' ' << family.help << '\n';
        os << "# TYPE " << family.name << ' ' << to_string(family.kind) << '\n';
        for (const Series_snapshot& series : family.series) {
            const std::string labels = format_labels(series.labels);
            if (!series.histogram.has_value()) {
                os << family.name;
                if (!labels.empty()) os << '{' << labels << '}';
                os << ' ' << format_value(series.value) << '\n';
                continue;
            }
            const Histogram::Snapshot& h = *series.histogram;
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i <= h.upper_bounds.size(); ++i) {
                cumulative += h.counts[i];
                os << family.name << "_bucket{" << labels << (labels.empty() ? "" : ",")
                   << "le=\""
                   << (i == h.upper_bounds.size() ? "+Inf" : format_value(h.upper_bounds[i]))
                   << "\"} " << cumulative << '\n';
            }
            os << family.name << "_sum";
            if (!labels.empty()) os << '{' << labels << '}';
            os << ' ' << format_value(h.sum) << '\n';
            os << family.name << "_count";
            if (!labels.empty()) os << '{' << labels << '}';
            os << ' ' << h.count << '\n';
        }
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// Scoped_timer_us
// ---------------------------------------------------------------------------

Scoped_timer_us::Scoped_timer_us(Histogram& histogram)
    : histogram_(histogram), start_(std::chrono::steady_clock::now())
{
}

Scoped_timer_us::~Scoped_timer_us()
{
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.observe(std::chrono::duration<double, std::micro>(elapsed).count());
}

} // namespace xrl
