// Shared plumbing of the repository benchmark: options, the report every
// workload fills, statistics, process counters, registry reads, and the
// output checks.
//
// A workload drives the library only through its public entry points and
// times each layer from here, around calls into that layer. Where the
// library already publishes always-on registry histograms
// (xrlflow_rollout_phase_us, xrlflow_candidate_phase_us,
// xrlflow_job_latency_ms) the workload reads their deltas over its own
// window instead of adding instrumentation to the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/graph.h"
#include "support/metrics.h"

namespace perfbench {

enum class Size { full, tiny };

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// `tiny` shrinks every input so the benchmark's own test runs in
    /// seconds; the committed contract always runs `full`.
    Size size = Size::full;
    std::string trace_path; ///< Chrome trace JSON of the traced pass ("" = none).
};

/// What a run found. Metric names and units live in BENCHMARK.json only:
/// run.py attaches the units, rejects a name the contract does not list,
/// and reads a per-layer metric a workload did not set as 0 (the layer is
/// not exercised there).
class Report {
public:
    explicit Report(const Options& options);

    void set_end_to_end(const std::string& name, double value) { end_to_end_[name] = value; }
    void set_layer(const std::string& name, double value) { layers_[name] = value; }

    /// A number that must repeat exactly between runs of one seed (checked
    /// across passes here and across runs by run.py).
    void set_exact(const std::string& name, double value);
    void set_info(const std::string& key, const std::string& value);

    /// One attempted job; `error` non-empty marks it failed (a failed,
    /// rejected or cancelled job, or an output that failed its check).
    void job(const std::string& error = {});

    /// A failure not tied to one job (e.g. a pass that did not repeat).
    void fail(const std::string& error);

    /// One JSON object on one line.
    std::string to_json() const;

private:
    bool trace_;
    std::map<std::string, double> end_to_end_;
    std::map<std::string, double> layers_;
    std::map<std::string, double> exact_;
    std::map<std::string, std::string> info_;
    std::vector<std::string> errors_;
    long attempted_ = 0;
    long failed_ = 0;
};

// -- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double geomean(const std::vector<double>& ratios);

// -- timing and process counters ---------------------------------------------

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point start);

/// setup_s. Set-up takes about a millisecond, so one timing is noise, and
/// the host's speed drifts: on a shared 4-core host the same set-up ran at
/// 0.33 ms or at 0.55 ms for stretches longer than 10 ms. A workload times
/// its set-up in bursts spread over its run (before its passes and between
/// or after them) and reports the median over bursts of each burst's mean
/// set-up time. A mean over a burst moves smoothly with the share of time
/// the host ran slow, where the median of single timings jumps between the
/// two speeds.
class Setup_timer {
public:
    /// Run `make` (the whole set-up, returning what it built) at least 11
    /// times and for at least 0.5 s. Each result is destroyed after its
    /// clock has stopped, so teardown is not timed; the last one is
    /// returned.
    template <class Make>
    auto burst(const Make& make)
    {
        decltype(make()) last{};
        double timed_s = 0.0;
        const auto start = Clock::now();
        int reps = 0;
        for (; reps < 11 || seconds_since(start) < 0.5; ++reps) {
            const auto rep = Clock::now();
            auto built = make();
            timed_s += seconds_since(rep);
            last = std::move(built);
        }
        burst_means_.push_back(timed_s / reps);
        return last;
    }

    double median() const;

private:
    std::vector<double> burst_means_;
};

struct Proc_counters {
    double user_s = 0.0;
    double sys_s = 0.0;
    double ctx_switches = 0.0; ///< Voluntary + involuntary.
    double peak_rss_mb = 0.0;
};

/// getrusage(RUSAGE_SELF).
Proc_counters proc_counters();

/// Set the per-layer proc.* metrics from the difference of two readings.
void report_proc_delta(Report& report, const Proc_counters& before, const Proc_counters& after);

// -- registry reads ----------------------------------------------------------

/// Sum of every series of histogram family `family` whose label `key`
/// equals `value` (empty key = every series).
xrl::Histogram::Snapshot registry_histogram(const std::string& family, const std::string& key = {},
                                            const std::string& value = {});

/// Bucket-wise `after - before` of two snapshots of one series.
xrl::Histogram::Snapshot histogram_delta(const xrl::Histogram::Snapshot& after,
                                         const xrl::Histogram::Snapshot& before);

/// Sum over every series of a counter or gauge family.
double registry_value(const std::string& family);

/// The candidate engine's phase histograms (xrlflow_candidate_phase_us) at
/// one instant; report() sets the candidates.* layer metrics from the
/// change since then and returns the leaf seconds (every phase but
/// finalise_rewrite, which runs inside materialise). Phases fanned out
/// across the shared pool count thread-seconds.
class Engine_phases {
public:
    Engine_phases();
    double report(Report& report) const;

private:
    std::vector<xrl::Histogram::Snapshot> before_;
};

// -- output checks -----------------------------------------------------------

/// Execute `before` and `after` on the same seeded inputs with the
/// reference executor and compare every output within the tolerance
/// tests/test_semantics.cpp uses (2e-2, scaled by the reference magnitude
/// when that exceeds 1). Returns "" on a match, else what differed.
/// `reference` caches the outputs of `before` across calls with the same
/// `before` (pass an empty vector the first time). When `after` does not
/// keep `before`'s source node ids the executor cannot feed both the same
/// weights: only output shapes are compared and `*executed` is false.
std::string check_semantics(const xrl::Graph& before, const xrl::Graph& after, std::uint64_t seed,
                            std::vector<xrl::Tensor>& reference, bool* executed);

/// Hex FNV-1a digest of a list of numbers (model hashes, request seeds):
/// recorded per run so a test can tell that two seeds made different
/// inputs.
std::string inputs_digest(const std::vector<std::uint64_t>& values);

struct Model_input {
    std::string name;
    xrl::Graph graph;
};

/// Record the inputs' names and digest in the report's provenance.
void record_inputs(Report& report, const std::vector<Model_input>& models);

/// Noiseless simulated end-to-end latency on the default device profile
/// (gtx1080), the Fig. 4 measure.
double simulated_ms(const xrl::Graph& graph);

/// Write every buffered span as Chrome trace JSON (no-op for an empty path).
void write_trace(const std::string& path);

} // namespace perfbench
