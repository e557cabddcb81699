// Candidate-generation engine benchmark: one uncapped candidate pass
// (Candidate_engine::generate_step from a rebuilt index) per model,
// environment steps-per-second on a fixed trajectory (its candidates are
// built as overlays, and only the chosen one is materialised), and the
// host copy behind every materialised candidate, plus the engine's
// per-phase timings over that rollout.
//
// Emits BENCH_candidates.json (path overridable via argv[1]) recording the
// numbers behind the README's "Candidate generation" section, with a
// "host" block naming the machine they were measured on. The env rollout
// always takes action 0, so every run walks the same graph trajectory and
// the number isolates candidate generation.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "models/models.h"
#include "rules/candidate_engine.h"
#include "rules/corpus.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace {

using namespace xrl;
using xrlbench::print_header;

double seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Time `f` adaptively: enough iterations for ~0.3 s of work.
template <typename F>
double time_us(F&& f)
{
    int iters = 1;
    for (;;) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) f();
        const double elapsed = seconds_since(start);
        if (elapsed > 0.3 || iters > (1 << 20)) return elapsed * 1e6 / iters;
        iters *= 4;
    }
}

/// `text` as a JSON string literal.
std::string json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

/// The "host" block: a throughput figure only compares with one measured
/// on the same kind of machine, built by the same compiler.
std::string host_json()
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
        if (value != std::string::npos) cpu = line.substr(value);
        break;
    }
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "{\"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu_model\": " + json_string(cpu) + ", \"compiler\": " + json_string(compiler) +
           "}";
}

struct Env_throughput {
    double steps_per_second = 0.0;
    int steps = 0;
};

Env_throughput env_rollout(const Graph& model, const Rule_set& rules, int max_steps)
{
    E2e_simulator simulator(gtx1080_profile(), 7);
    Env_config config;
    config.max_steps = max_steps;
    Environment env(model, rules, simulator, config);

    Env_throughput out;
    // With XRLFLOW_TRACE set the rollout runs under a trace id, so the
    // env-step and candidate-phase spans land in the process buffer (the
    // trace artifact written at exit).
    const Trace_scope trace_scope(trace_enabled() ? new_trace_id() : 0, 0);
    // One untimed warm-up rollout fills the engine's slot pool and the
    // thread-local scratch, then three timed rollouts measure the
    // steady state (and average away single-rollout noise).
    while (!env.done()) env.step(0);
    env.reset();
    const auto start = std::chrono::steady_clock::now();
    for (int rollout = 0; rollout < 3; ++rollout) {
        while (!env.done()) {
            env.step(0); // deterministic walk: every run sees the same graphs
            ++out.steps;
        }
        env.reset();
    }
    out.steps_per_second = out.steps / seconds_since(start);
    return out;
}

/// One warm-slot host copy on this thread: copy-assigning `host` into a
/// graph that already holds it, as materialising a candidate does into
/// recycled storage.
double host_copy_us(const Graph& host)
{
    Graph slot = host;
    return time_us([&] { slot = host; });
}

} // namespace

int main(int argc, char** argv)
{
    const std::string json_path = argc > 1 ? argv[1] : "BENCH_candidates.json";
    const Rule_set rules = standard_rule_corpus();
    const Graph bert = make_bert(Scale::smoke, 32);
    const Graph inception = make_inception_v3(Scale::smoke);
    constexpr std::size_t per_rule_limit = 4;

    print_header("Candidate generation: Candidate_engine::generate_step");

    Candidate_engine engine(rules, Candidate_engine_config{per_rule_limit});

    const double bert_us = time_us([&] { engine.generate_step(bert); });
    const double inception_us = time_us([&] { engine.generate_step(inception); });

    std::printf("%-28s %14s\n", "candidate pass", "engine (us)");
    std::printf("%-28s %14.1f\n", "bert (smoke)", bert_us);
    std::printf("%-28s %14.1f\n", "inception-v3 (smoke)", inception_us);

    // Per-phase engine timings over the env rollout alone, from the registry
    // histograms the engine publishes: the candidate passes above run a
    // clock-sized number of times, the rollout a fixed trajectory, so only
    // the rollout's observations compare between runs.
    const char* const phases[] = {"index_build", "match", "dedup", "materialise",
                                  "finalise_rewrite"};
    std::vector<Histogram::Snapshot> phase_snaps;
    for (const char* phase : phases)
        phase_snaps.push_back(candidate_phase_histogram(phase).snapshot());
    const Env_throughput env = env_rollout(bert, rules, 12);
    for (std::size_t i = 0; i < phase_snaps.size(); ++i)
        phase_snaps[i] = candidate_phase_histogram(phases[i]).snapshot() -= phase_snaps[i];
    std::printf("\n%-28s %12.1f/s\n", "env rollout (bert)", env.steps_per_second);

    // Ungated: the copy behind every materialised candidate, on the
    // paper-scale convnets.
    const double inception_copy_us = host_copy_us(make_inception_v3(Scale::paper));
    const double resnext_copy_us = host_copy_us(make_resnext50(Scale::paper));
    std::printf("\n%-28s %14s\n", "host copy (paper)", "warm slot (us)");
    std::printf("%-28s %14.2f\n", "inception-v3", inception_copy_us);
    std::printf("%-28s %14.2f\n", "resnext-50", resnext_copy_us);

    std::printf("\n%-28s %10s %12s %12s %12s\n", "rollout engine phase", "count", "mean (us)",
                "p50 (us)", "p95 (us)");
    std::string phase_json;
    for (std::size_t i = 0; i < phase_snaps.size(); ++i) {
        const char* const phase = phases[i];
        const Histogram::Snapshot& snap = phase_snaps[i];
        std::printf("%-28s %10llu %12.2f %12.2f %12.2f\n", phase,
                    static_cast<unsigned long long>(snap.count), snap.mean(),
                    snap.quantile(0.5), snap.quantile(0.95));
        if (!phase_json.empty()) phase_json += ",\n";
        phase_json += "    \"" + std::string(phase) + "\": {\"count\": " +
                      std::to_string(snap.count) + ", \"mean\": " + std::to_string(snap.mean()) +
                      ", \"p50\": " + std::to_string(snap.quantile(0.5)) +
                      ", \"p95\": " + std::to_string(snap.quantile(0.95)) + "}";
    }

    std::ofstream json(json_path);
    json << "{\n"
         << "  \"host\": " << host_json() << ",\n"
         << "  \"per_rule_limit\": " << per_rule_limit << ",\n"
         << "  \"candidate_pass_us\": {\n"
         << "    \"bert\": {\"engine\": " << bert_us << "},\n"
         << "    \"inception\": {\"engine\": " << inception_us << "}\n"
         << "  },\n"
         << "  \"env_steps_per_second\": {\n"
         << "    \"bert\": {\"engine\": " << env.steps_per_second << ", \"steps\": " << env.steps
         << "}\n"
         << "  },\n"
         << "  \"host_copy_us\": {\n"
         << "    \"inception\": " << inception_copy_us << ",\n"
         << "    \"resnext50\": " << resnext_copy_us << "\n"
         << "  },\n"
         << "  \"candidate_phase_us\": {\n"
         << phase_json << "\n"
         << "  }\n"
         << "}\n";
    std::cout << "\nwrote " << json_path << "\n";

    if (trace_enabled()) {
        const std::string trace_path = argc > 2 ? argv[2] : "BENCH_candidates_trace.json";
        std::ofstream trace_out(trace_path);
        write_chrome_trace(trace_out, Trace_buffer::global().spans());
        std::cout << "wrote " << trace_path << " (" << Trace_buffer::global().size()
                  << " spans)\n";
    }
    return 0;
}
