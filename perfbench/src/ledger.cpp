#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "cost/device.h"
#include "cost/e2e_simulator.h"
#include "ir/executor.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "support/trace.h"

namespace perfbench {

namespace {

std::string json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value)
{
    if (!std::isfinite(value)) return "null";
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
    return os.str();
}

std::string json_numbers(const std::map<std::string, double>& numbers)
{
    std::string out = "{";
    for (const auto& [name, value] : numbers) {
        if (out.size() > 1) out += ", ";
        out += json_string(name) + ": " + json_number(value);
    }
    return out + "}";
}

} // namespace

Report::Report(const Options& options) : trace_(options.trace)
{
    info_["workload"] = options.workload;
    info_["seed"] = std::to_string(options.seed);
    info_["size"] = options.size == Size::tiny ? "tiny" : "full";
}

void Report::set_exact(const std::string& name, double value)
{
    exact_[name] = value;
}

void Report::set_info(const std::string& key, const std::string& value)
{
    info_[key] = value;
}

void Report::job(const std::string& error)
{
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    errors_.push_back(error);
}

void Report::fail(const std::string& error)
{
    errors_.push_back(error);
}

std::string Report::to_json() const
{
    std::string out = "{\"correct\": ";
    out += errors_.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": " + json_numbers(trace_ ? layers_ : end_to_end_);
    out += ", \"exact\": " + json_numbers(exact_);
    out += ", \"info\": {";
    bool first = true;
    for (const auto& [key, value] : info_) {
        if (!first) out += ", ";
        first = false;
        out += json_string(key) + ": " + json_string(value);
    }
    out += "}, \"errors\": [";
    // The first few errors are enough to diagnose; the count is in `failed`.
    for (std::size_t i = 0; i < errors_.size() && i < 8; ++i)
        out += (i > 0 ? ", " : "") + json_string(errors_[i]);
    return out + "]}";
}

double quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double geomean(const std::vector<double>& ratios)
{
    if (ratios.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double r : ratios) log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double Setup_timer::median() const
{
    return perfbench::median(burst_means_);
}

Proc_counters proc_counters()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Proc_counters out;
    out.user_s = static_cast<double>(usage.ru_utime.tv_sec) + usage.ru_utime.tv_usec * 1e-6;
    out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) + usage.ru_stime.tv_usec * 1e-6;
    out.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
    out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux reports KiB
    return out;
}

void report_proc_delta(Report& report, const Proc_counters& before, const Proc_counters& after)
{
    report.set_layer("proc.user_s", after.user_s - before.user_s);
    report.set_layer("proc.sys_s", after.sys_s - before.sys_s);
    report.set_layer("proc.ctx_switches", after.ctx_switches - before.ctx_switches);
}

xrl::Histogram::Snapshot registry_histogram(const std::string& family, const std::string& key,
                                            const std::string& value)
{
    xrl::Histogram::Snapshot total;
    for (const auto& fam : xrl::Metrics_registry::global().snapshot()) {
        if (fam.name != family) continue;
        for (const auto& series : fam.series) {
            if (!series.histogram) continue;
            const bool selected =
                key.empty() || std::any_of(series.labels.begin(), series.labels.end(),
                                           [&](const auto& label) {
                                               return label.first == key && label.second == value;
                                           });
            if (!selected) continue;
            const xrl::Histogram::Snapshot& snap = *series.histogram;
            if (total.counts.empty()) {
                total.upper_bounds = snap.upper_bounds;
                total.counts.assign(snap.counts.size(), 0);
            }
            for (std::size_t i = 0; i < snap.counts.size(); ++i) total.counts[i] += snap.counts[i];
            total.count += snap.count;
            total.sum += snap.sum;
        }
    }
    return total;
}

xrl::Histogram::Snapshot histogram_delta(const xrl::Histogram::Snapshot& after,
                                         const xrl::Histogram::Snapshot& before)
{
    xrl::Histogram::Snapshot out = after;
    if (before.counts.size() == out.counts.size())
        for (std::size_t i = 0; i < out.counts.size(); ++i) out.counts[i] -= before.counts[i];
    out.count -= before.count;
    out.sum -= before.sum;
    return out;
}

namespace {

const char* const engine_phases[] = {"index_build", "match", "dedup", "materialise",
                                     "finalise_rewrite"};
const char* const engine_layer_names[] = {"index_build", "match", "dedup", "materialise",
                                          "finalise"};

} // namespace

Engine_phases::Engine_phases()
{
    for (const char* phase : engine_phases)
        before_.push_back(registry_histogram("xrlflow_candidate_phase_us", "phase", phase));
}

double Engine_phases::report(Report& report) const
{
    double leaves_s = 0.0;
    for (std::size_t i = 0; i < before_.size(); ++i) {
        const xrl::Histogram::Snapshot delta = histogram_delta(
            registry_histogram("xrlflow_candidate_phase_us", "phase", engine_phases[i]), before_[i]);
        const std::string base = std::string("candidates.") + engine_layer_names[i];
        report.set_layer(base + "_s", delta.sum * 1e-6);
        report.set_layer(base + "_count", static_cast<double>(delta.count));
        if (std::string(engine_phases[i]) != "finalise_rewrite") leaves_s += delta.sum * 1e-6;
    }
    return leaves_s;
}

double registry_value(const std::string& family)
{
    double total = 0.0;
    for (const auto& fam : xrl::Metrics_registry::global().snapshot())
        if (fam.name == family)
            for (const auto& series : fam.series) total += series.value;
    return total;
}

std::string check_semantics(const xrl::Graph& before, const xrl::Graph& after, std::uint64_t seed,
                            std::vector<xrl::Tensor>& reference, bool* executed)
{
    // The executor identifies inputs and weights by node id, so `after` can
    // only be fed the same values if each of its sources is the source of
    // `before` with that id. Rewrites keep ids; a graph rebuilt anew
    // (Tensat's e-graph extraction) renumbers them, and is then compared by
    // its output shapes only.
    bool same_sources = true;
    for (const xrl::Node_id id : after.node_ids()) {
        const xrl::Node& node = after.node(id);
        if (node.kind != xrl::Op_kind::input && node.kind != xrl::Op_kind::weight) continue;
        same_sources = same_sources && before.is_alive(id) && before.node(id).kind == node.kind &&
                       before.shape_of(xrl::Edge{id, 0}) == after.shape_of(xrl::Edge{id, 0});
    }
    *executed = same_sources;
    if (!same_sources) {
        if (after.outputs().size() != before.outputs().size()) return "output count differs";
        for (std::size_t i = 0; i < after.outputs().size(); ++i)
            if (after.shape_of(after.outputs()[i]) != before.shape_of(before.outputs()[i]))
                return "output shape differs";
        return {};
    }

    // Token-id inputs must index their embedding table; everything else is
    // uniform in [-0.5, 0.5), as in tests/test_semantics.cpp.
    std::unordered_map<xrl::Node_id, std::int64_t> id_rows;
    for (const xrl::Node_id id : before.node_ids()) {
        const xrl::Node& node = before.node(id);
        if (node.kind == xrl::Op_kind::embedding)
            id_rows[node.inputs[0].node] = before.shape_of(node.inputs[1])[0];
    }
    xrl::Rng rng(seed);
    xrl::Binding_map bindings;
    for (const xrl::Node_id id : before.node_ids()) {
        const xrl::Node& node = before.node(id);
        if (node.kind != xrl::Op_kind::input) continue;
        const xrl::Shape& shape = node.output_shapes.front();
        if (const auto rows = id_rows.find(id); rows != id_rows.end()) {
            xrl::Tensor ids(shape);
            for (std::int64_t i = 0; i < ids.volume(); ++i)
                ids.at(i) = static_cast<float>(rng.uniform_index(static_cast<std::size_t>(rows->second)));
            bindings.emplace(id, std::move(ids));
        } else {
            bindings.emplace(id, xrl::Tensor::random_uniform(shape, rng, -0.5F, 0.5F));
        }
    }
    if (reference.empty()) reference = xrl::execute(before, bindings);
    const std::vector<xrl::Tensor> outputs = xrl::execute(after, bindings);
    if (outputs.size() != reference.size()) return "output count differs";
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        if (outputs[i].shape() != reference[i].shape()) return "output shape differs";
        float magnitude = 1.0F;
        for (const float v : reference[i].values()) magnitude = std::max(magnitude, std::fabs(v));
        const float difference = xrl::Tensor::max_abs_difference(outputs[i], reference[i]);
        if (!(difference <= 2e-2F * magnitude))
            return "output " + std::to_string(i) + " differs by " + std::to_string(difference);
    }
    return {};
}

std::string inputs_digest(const std::vector<std::uint64_t>& values)
{
    std::uint64_t hash = xrl::fnv1a_offset;
    for (const std::uint64_t value : values) hash = xrl::fnv1a_mix(hash, value);
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

void record_inputs(Report& report, const std::vector<Model_input>& models)
{
    std::string names;
    std::vector<std::uint64_t> hashes;
    for (const Model_input& model : models) {
        names += (names.empty() ? "" : ",") + model.name;
        hashes.push_back(model.graph.model_hash());
    }
    report.set_info("inputs", names);
    report.set_info("inputs_digest", inputs_digest(hashes));
}

double simulated_ms(const xrl::Graph& graph)
{
    static const xrl::E2e_simulator simulator(xrl::gtx1080_profile(), 0);
    return simulator.noiseless_ms(graph);
}

void write_trace(const std::string& path)
{
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    xrl::write_chrome_trace(out, xrl::Trace_buffer::global().spans());
}

} // namespace perfbench
