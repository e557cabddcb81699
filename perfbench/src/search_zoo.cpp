// Workload search_zoo: the greedy baselines of Figs 4/6.
//
// Job list: the seven evaluation models at paper scale (their structure is
// what loads the matcher: InceptionV3 477 nodes, ResNeXt-50 442), built at
// reduced input sides drawn from the seed so that executing them for the
// output check stays cheap, times the three search backends, all through
// Optimization_service with the memo cache off.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/optimization_service.h"
#include "models/models.h"
#include "optimizers/taso/taso_optimizer.h"
#include "support/rng.h"
#include "support/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

const char* const backends[] = {"taso", "pet", "tensat"};

int budget(Size size)
{
    return size == Size::tiny ? 6 : 60;
}

std::vector<Model_input> make_inputs(std::uint64_t seed, Size size)
{
    xrl::Rng rng(seed);
    const auto pick = [&rng](std::vector<std::int64_t> options) {
        return options[rng.uniform_index(options.size())];
    };
    const std::vector<std::int64_t> images = {32, 48};
    const std::vector<std::int64_t> sequences = {8, 16, 24, 32};
    using Builder = std::function<xrl::Graph(xrl::Scale, std::int64_t)>;
    struct Spec {
        const char* name;
        Builder build;
        bool image;
    };
    std::vector<Spec> specs = {
        {"inception", xrl::make_inception_v3, true},
        {"squeezenet", xrl::make_squeezenet, true},
        {"resnext", xrl::make_resnext50, true},
        {"bert", xrl::make_bert, false},
        {"dalle", xrl::make_dalle, false},
        {"tt", xrl::make_transformer_transducer, false},
        {"vit", xrl::make_vit, true},
    };
    std::vector<Model_input> models;
    for (const Spec& spec : specs) {
        const std::int64_t side = pick(spec.image ? images : sequences);
        if (size == Size::tiny && std::string(spec.name) != "squeezenet" &&
            std::string(spec.name) != "bert")
            continue;
        models.push_back({std::string(spec.name) + "-" + std::to_string(side),
                          spec.build(xrl::Scale::paper, side)});
    }
    return models;
}

xrl::Service_config service_config(Size size)
{
    xrl::Service_config config;
    config.cache_capacity = 0;
    config.backend_options["taso.budget"] = budget(size);
    config.backend_options["pet.budget"] = budget(size);
    config.backend_options["tensat.max_iterations"] = 3;
    return config;
}

struct Job {
    xrl::Optimize_result result;
    double wall_s = 0.0;
};

struct Pass {
    double wall_s = 0.0;
    double optimise_s = 0.0;
    std::vector<Job> jobs; ///< Model-major, backends in `backends` order.
};

/// One pass over the job list through the service.
Pass run_pass(xrl::Optimization_service& service, const std::vector<Model_input>& models)
{
    Pass pass;
    const auto pass_start = Clock::now();
    for (const Model_input& model : models) {
        for (const char* backend : backends) {
            Job job;
            const auto start = Clock::now();
            {
                const xrl::Span_scope span(backend);
                job.result = service.optimize(backend, model.graph);
            }
            job.wall_s = seconds_since(start);
            pass.optimise_s += job.wall_s;
            pass.jobs.push_back(std::move(job));
        }
    }
    pass.wall_s = seconds_since(pass_start);
    return pass;
}

struct Cost_probe {
    double calls = 0.0;
    double seconds = 0.0;
    std::vector<xrl::Graph> best; ///< TASO's result per model.
};

/// The cost layer, counted and timed on its own: the TASO jobs again,
/// through optimise_taso_with_cost with the service's cost model wrapped in
/// a timed Graph_cost_fn. The search must reach the service's results.
Cost_probe probe_cost(const xrl::Optimization_service& service,
                      const std::vector<Model_input>& models, Size size)
{
    Cost_probe probe;
    const xrl::Cost_model& cost = service.cost();
    const xrl::Graph_cost_fn timed_cost = [&](const xrl::Graph& graph) {
        const xrl::Span_scope span("cost/graph_cost");
        const auto start = Clock::now();
        const double ms = cost.graph_cost_ms(graph);
        probe.seconds += seconds_since(start);
        probe.calls += 1.0;
        return ms;
    };
    xrl::Taso_config config;
    config.budget = budget(size);
    for (const Model_input& model : models) {
        const xrl::Span_scope span("cost_probe/taso");
        probe.best.push_back(
            xrl::optimise_taso_with_cost(model.graph, service.rules(), timed_cost, config).best_graph);
    }
    return probe;
}

double admitted(const xrl::Optimize_result& result)
{
    double total = 0.0;
    for (const auto& [rule, count] : result.rule_counts) total += count;
    return total;
}

double metadata(const xrl::Optimize_result& result, const char* key)
{
    const auto it = result.metadata.find(key);
    return it == result.metadata.end() ? 0.0 : it->second;
}

/// Set-up: the model graphs and the service (rule corpus, device
/// registry).
struct Set_up {
    std::vector<Model_input> models;
    std::unique_ptr<xrl::Optimization_service> service;
};

} // namespace

void run_search_zoo(const Options& options, Report& report)
{
    Setup_timer setup_timer;
    const auto set_up = [&] {
        Set_up built;
        built.models = make_inputs(options.seed, options.size);
        built.service = std::make_unique<xrl::Optimization_service>(service_config(options.size));
        return built;
    };
    Set_up inputs = setup_timer.burst(set_up);
    const std::vector<Model_input>& models = inputs.models;
    xrl::Optimization_service& service = *inputs.service;
    record_inputs(report, models);

    std::vector<Pass> passes;
    const auto loop_start = Clock::now();
    do {
        passes.push_back(run_pass(service, models));
        setup_timer.burst(set_up);
    } while (passes.size() < 2 ||
             seconds_since(loop_start) + passes.back().wall_s <= options.seconds);
    report.set_end_to_end("setup_s", setup_timer.median());
    report.set_end_to_end("peak_rss_mb", proc_counters().peak_rss_mb);

    const Pass& first = passes.front();
    std::vector<double> optimise_s;
    std::vector<double> job_ms;
    double wall_s = 0.0;
    for (const Pass& pass : passes) {
        optimise_s.push_back(pass.optimise_s);
        wall_s += pass.wall_s;
        for (const Job& job : pass.jobs) job_ms.push_back(job.wall_s * 1e3);
    }

    // Output checks: every optimised graph of the first pass is executed
    // against its input; every later pass must reproduce the first exactly.
    std::vector<double> speedups;
    double steps = 0.0;
    double admitted_total = 0.0;
    double egraph_nodes = 0.0;
    double shape_only = 0.0;
    const std::size_t per_model = std::size(backends);
    std::vector<std::vector<xrl::Tensor>> references(models.size());
    for (std::size_t j = 0; j < first.jobs.size(); ++j) {
        const Model_input& model = models[j / per_model];
        const xrl::Optimize_result& result = first.jobs[j].result;
        bool executed = true;
        std::string error = result.cancelled ? "cancelled" : "";
        if (error.empty())
            error = check_semantics(model.graph, result.best_graph, options.seed,
                                    references[j / per_model], &executed);
        shape_only += executed ? 0.0 : 1.0;
        report.job(error.empty() ? "" : model.name + "/" + result.backend + ": " + error);
        speedups.push_back(simulated_ms(model.graph) / simulated_ms(result.best_graph));
        steps += result.steps;
        admitted_total += admitted(result);
        egraph_nodes += metadata(result, "egraph_nodes");
    }
    for (std::size_t p = 1; p < passes.size(); ++p)
        for (std::size_t j = 0; j < first.jobs.size(); ++j) {
            const xrl::Optimize_result& a = first.jobs[j].result;
            const xrl::Optimize_result& b = passes[p].jobs[j].result;
            const bool same = a.best_graph.canonical_hash() == b.best_graph.canonical_hash() &&
                              a.steps == b.steps && a.rule_counts == b.rule_counts;
            report.job(same ? "" : models[j / per_model].name + "/" + a.backend + ": pass " +
                                       std::to_string(p) + " differs from pass 0");
        }

    report.set_exact("speedup_geomean", geomean(speedups));
    report.set_exact("checks.shape_only", shape_only);
    report.set_exact("search.steps", steps);
    report.set_exact("search.candidates_admitted", admitted_total);
    report.set_exact("tensat.egraph_nodes", egraph_nodes);

    report.set_end_to_end("optimise_s", median(optimise_s));
    report.set_end_to_end("speedup_geomean", geomean(speedups));
    report.set_end_to_end("jobs_per_s", static_cast<double>(job_ms.size()) / wall_s);
    report.set_end_to_end("job_p50_ms", median(job_ms));
    report.set_end_to_end("job_p99_ms", quantile(job_ms, 0.99));
    report.set_info("passes", std::to_string(passes.size()));

    if (options.trace) {
        const Engine_phases engine_before;
        const Proc_counters proc_before = proc_counters();
        xrl::set_trace_enabled(true);
        Pass traced;
        {
            const xrl::Trace_scope scope(xrl::new_trace_id(), 0);
            traced = run_pass(service, models);
        }
        report_proc_delta(report, proc_before, proc_counters());
        const double engine_leaves_s = engine_before.report(report);
        Cost_probe cost;
        {
            const xrl::Trace_scope scope(xrl::new_trace_id(), 0);
            cost = probe_cost(service, models, options.size);
        }
        xrl::set_trace_enabled(false);
        write_trace(options.trace_path);
        for (std::size_t m = 0; m < models.size(); ++m)
            if (cost.best[m].canonical_hash() !=
                first.jobs[m * per_model].result.best_graph.canonical_hash())
                report.fail(models[m].name + ": optimise_taso_with_cost does not reproduce the "
                                             "service's TASO result");

        double pops = 0.0;
        double traced_admitted = 0.0;
        double taso_admitted = 0.0;
        double taso_materialised = 0.0;
        double traced_egraph = 0.0;
        for (std::size_t j = 0; j < traced.jobs.size(); ++j) {
            const xrl::Optimize_result& result = traced.jobs[j].result;
            if (result.best_graph.canonical_hash() != first.jobs[j].result.best_graph.canonical_hash())
                report.fail(models[j / per_model].name + "/" + result.backend +
                            ": the traced pass does not reproduce the untraced one");
            traced_egraph += metadata(result, "egraph_nodes");
            if (result.backend == "tensat") continue;
            pops += result.steps;
            traced_admitted += admitted(result);
            if (result.backend == "taso") {
                taso_admitted += admitted(result);
                taso_materialised += metadata(result, "candidates_generated");
            }
        }
        report.set_layer("search.pops", pops);
        report.set_layer("search.candidates_admitted", traced_admitted);
        report.set_layer("search.useful_ratio",
                         taso_materialised > 0.0 ? taso_admitted / taso_materialised : 0.0);
        report.set_layer("tensat.egraph_nodes", traced_egraph);
        report.set_layer("cost.graph_cost_calls", cost.calls);
        report.set_layer("cost.graph_cost_s", cost.seconds);

        // Leaves: the candidate phases of the traced pass (thread-seconds:
        // they fan out across the shared pool, so the remainder can go
        // negative) and the cost calls of its TASO jobs, which the probe
        // repeats call for call.
        report.set_layer("unattributed_s", traced.wall_s - engine_leaves_s - cost.seconds);
        // Against the untraced pass just before it: the first pass runs on
        // cold caches and is not a fair reference.
        const double untraced_wall_s = passes.back().wall_s;
        report.set_layer("trace.overhead_share",
                         (traced.wall_s - untraced_wall_s) / untraced_wall_s);
    }
    std::fprintf(stderr, "search_zoo: %zu pass(es), %.1f s\n", passes.size(), wall_s);
}

} // namespace perfbench
