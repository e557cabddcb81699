// Workload xrlflow_transformers: the paper's own pipeline.
//
// Job list: BERT and ViT at smoke scale, input sides drawn from the seed.
// Each job builds a fresh Xrlflow with the smoke configuration of
// bench/bench_common.cpp, trains it from its initial parameters, then
// optimises the model with the trained policy (6 inference rollouts). The
// RL seed is part of that fixed configuration; the workload seed only picks
// the inputs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/xrlflow.h"
#include "cost/device.h"
#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "gnn/encoding.h"
#include "models/models.h"
#include "nn/adam.h"
#include "nn/autograd.h"
#include "rules/corpus.h"
#include "support/rng.h"
#include "support/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Training costs ~1.2 s per episode per model on a 4-core host, so 4
/// episodes (one PPO update) keep a pass at 8–11 s: a 30 s run makes 2 or 3.
struct Sizing {
    int episodes = 4;
    int rollouts = 6;
    int max_steps = 40;
};

Sizing sizing(Size size)
{
    if (size == Size::tiny) return {2, 2, 6};
    return {};
}

/// bench_common's default_xrlflow_config at smoke scale, seed 7.
xrl::Xrlflow_config smoke_config(const Sizing& sizing)
{
    xrl::Xrlflow_config config;
    config.seed = 7;
    config.agent.gnn.hidden_dim = 16;
    config.agent.gnn.global_dim = 16;
    config.agent.gnn.num_gat_layers = 5;
    config.agent.head_hidden = {64, 32};
    config.agent.max_candidates = 31;
    config.env.max_steps = sizing.max_steps;
    config.env.feedback_frequency = 5;
    config.inference_rollouts = sizing.rollouts;
    config.trainer.update_every_episodes = 4;
    config.trainer.ppo.minibatch_size = 8;
    config.trainer.ppo.epochs = 2;
    config.trainer.seed = config.seed;
    return config;
}

std::vector<Model_input> make_inputs(std::uint64_t seed, Size size)
{
    xrl::Rng rng(seed);
    const std::vector<std::int64_t> sequences = size == Size::tiny
                                                    ? std::vector<std::int64_t>{8, 12, 16, 20}
                                                    : std::vector<std::int64_t>{16, 24, 32, 40, 48};
    const std::vector<std::int64_t> sides = size == Size::tiny
                                                ? std::vector<std::int64_t>{16, 32, 48}
                                                : std::vector<std::int64_t>{32, 48, 64, 80, 96};
    const std::int64_t sequence = sequences[rng.uniform_index(sequences.size())];
    const std::int64_t side = sides[rng.uniform_index(sides.size())];
    return {{"bert-seq" + std::to_string(sequence), xrl::make_bert(xrl::Scale::smoke, sequence)},
            {"vit-side" + std::to_string(side), xrl::make_vit(xrl::Scale::smoke, side)}};
}

const char* const rollout_phases[] = {"gnn_encode", "gnn_inference", "env_step"};

xrl::Histogram::Snapshot rollout_phase(const char* phase)
{
    return registry_histogram("xrlflow_rollout_phase_us", "phase", phase);
}

double rollout_seconds()
{
    double sum_us = 0.0;
    for (const char* phase : rollout_phases) sum_us += rollout_phase(phase).sum;
    return sum_us * 1e-6;
}

struct Pass {
    double wall_s = 0.0;
    double train_s = 0.0;
    double train_rollout_s = 0.0;
    double optimise_s = 0.0;
    std::vector<double> job_ms; ///< Train + optimise, per model.
    std::vector<double> speedups;
    std::vector<xrl::Graph> best;
    double transitions = 0.0;
    double inference_steps = 0.0;
};

Pass run_pass(const xrl::Rule_set& rules, const std::vector<Model_input>& models,
              const Sizing& sizing)
{
    Pass pass;
    const auto pass_start = Clock::now();
    for (const Model_input& model : models) {
        xrl::Xrlflow system(rules, smoke_config(sizing));

        const double rollout_before = rollout_seconds();
        const auto train_start = Clock::now();
        {
            const xrl::Span_scope span("trainer/train");
            system.train(model.graph, sizing.episodes);
        }
        const double train_s = seconds_since(train_start);
        pass.train_s += train_s;
        pass.train_rollout_s += rollout_seconds() - rollout_before;
        for (const xrl::Episode_stats& episode : system.training_history())
            pass.transitions += episode.steps;

        const auto optimise_start = Clock::now();
        xrl::Optimisation_outcome outcome;
        {
            const xrl::Span_scope span("xrlflow/optimise");
            outcome = system.optimise(model.graph);
        }
        const double optimise_s = seconds_since(optimise_start);
        pass.optimise_s += optimise_s;
        pass.inference_steps += outcome.steps;

        pass.job_ms.push_back((train_s + optimise_s) * 1e3);
        pass.speedups.push_back(simulated_ms(model.graph) / simulated_ms(outcome.best_graph));
        pass.best.push_back(std::move(outcome.best_graph));
    }
    pass.wall_s = seconds_since(pass_start);
    return pass;
}

/// The nn layer timed on its own: PPO-sized minibatches of states captured
/// with the bench's own Meta_encoder along a seeded random walk, pushed
/// through Agent::forward on a Tape, Tape::backward and Adam::step.
void probe_nn(const xrl::Rule_set& rules, const std::vector<Model_input>& models,
              const Sizing& sizing, std::uint64_t seed, Report& report)
{
    const xrl::Xrlflow_config config = smoke_config(sizing);
    xrl::Env_config env_config = config.env;
    env_config.max_candidates = config.agent.max_candidates;
    xrl::E2e_simulator simulator(config.device, seed);
    xrl::Rng rng(seed);

    std::vector<xrl::Encoded_graph> states;
    std::vector<double> meta_nodes;
    for (const Model_input& model : models) {
        xrl::Environment env(model.graph, rules, simulator, env_config);
        xrl::Meta_encoder encoder;
        std::vector<const xrl::Graph*> candidates;
        for (int step = 0; step < 8 && !env.done(); ++step) {
            candidates.clear();
            for (const xrl::Candidate& c : env.candidates()) candidates.push_back(c.graph);
            states.push_back(encoder.encode(env.current_graph(), candidates));
            meta_nodes.push_back(static_cast<double>(states.back().num_nodes));
            const int live = static_cast<int>(env.candidates().size());
            env.step(live > 0 ? static_cast<int>(rng.uniform_index(static_cast<std::size_t>(live)))
                              : env.noop_action());
        }
    }

    xrl::Agent agent(config.agent, config.seed);
    xrl::Adam adam(agent.parameters(), config.trainer.ppo.adam);
    const auto batch = static_cast<std::size_t>(config.trainer.ppo.minibatch_size);
    std::vector<double> forward_ms;
    std::vector<double> backward_ms;
    std::vector<double> adam_ms;
    for (int round = 0; round < 3; ++round) {
        for (std::size_t begin = 0; begin + batch <= states.size(); begin += batch) {
            xrl::Tape tape;
            auto start = Clock::now();
            xrl::Var loss = tape.constant(xrl::Tensor(xrl::Shape{1, 1}));
            {
                const xrl::Span_scope span("nn/forward");
                for (std::size_t i = begin; i < begin + batch; ++i) {
                    const xrl::Agent::Forward fwd = agent.forward(tape, states[i]);
                    loss = tape.add(loss, tape.add(tape.mean_all(fwd.logits), fwd.value));
                }
            }
            forward_ms.push_back(seconds_since(start) * 1e3);
            start = Clock::now();
            {
                const xrl::Span_scope span("nn/backward");
                tape.backward(loss);
            }
            backward_ms.push_back(seconds_since(start) * 1e3);
            start = Clock::now();
            {
                const xrl::Span_scope span("nn/adam");
                adam.step();
            }
            adam_ms.push_back(seconds_since(start) * 1e3);
        }
    }
    report.set_layer("nn.forward_ms", median(forward_ms));
    report.set_layer("nn.backward_ms", median(backward_ms));
    report.set_layer("nn.adam_ms", median(adam_ms));
    report.set_layer("gnn.meta_nodes_p50", median(meta_nodes));
}

/// Set-up: the rule corpus, the model graphs, and a first agent (its
/// parameter initialisation).
struct Set_up {
    std::unique_ptr<xrl::Rule_set> rules; ///< On the heap: agents keep a pointer to it.
    std::vector<Model_input> models;
    std::unique_ptr<xrl::Xrlflow> agent;
};

} // namespace

void run_xrlflow_transformers(const Options& options, Report& report)
{
    const Sizing size = sizing(options.size);
    Setup_timer setup_timer;
    const auto set_up = [&] {
        Set_up built;
        built.rules = std::make_unique<xrl::Rule_set>(xrl::standard_rule_corpus());
        built.models = make_inputs(options.seed, options.size);
        built.agent = std::make_unique<xrl::Xrlflow>(*built.rules, smoke_config(size));
        return built;
    };
    const Set_up inputs = setup_timer.burst(set_up);
    const xrl::Rule_set& rules = *inputs.rules;
    const std::vector<Model_input>& models = inputs.models;
    record_inputs(report, models);

    // Untraced passes until the time is up (at least two); a traced run
    // adds one traced pass after them.
    std::vector<Pass> passes;
    const auto loop_start = Clock::now();
    do {
        passes.push_back(run_pass(rules, models, size));
        setup_timer.burst(set_up);
    } while (passes.size() < 2 ||
             seconds_since(loop_start) + passes.back().wall_s <= options.seconds);
    report.set_end_to_end("setup_s", setup_timer.median());
    report.set_end_to_end("peak_rss_mb", proc_counters().peak_rss_mb);

    std::vector<double> optimise_s;
    std::vector<double> job_ms;
    double wall_s = 0.0;
    for (const Pass& pass : passes) {
        optimise_s.push_back(pass.optimise_s);
        job_ms.insert(job_ms.end(), pass.job_ms.begin(), pass.job_ms.end());
        wall_s += pass.wall_s;
    }
    const Pass& first = passes.front();

    // Output checks: the first pass's graphs are executed against their
    // inputs; every later pass must reproduce the first exactly.
    double shape_only = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
        std::vector<xrl::Tensor> reference;
        bool executed = false;
        const std::string error =
            check_semantics(models[m].graph, first.best[m], options.seed, reference, &executed);
        report.job(error.empty() ? "" : models[m].name + ": " + error);
        shape_only += executed ? 0.0 : 1.0;
    }
    report.set_exact("checks.shape_only", shape_only);
    for (std::size_t p = 1; p < passes.size(); ++p) {
        for (std::size_t m = 0; m < models.size(); ++m) {
            const bool same = passes[p].best[m].canonical_hash() == first.best[m].canonical_hash() &&
                              passes[p].speedups[m] == first.speedups[m];
            report.job(same ? "" : models[m].name + ": pass " + std::to_string(p) +
                                       " differs from pass 0");
        }
        if (passes[p].transitions != first.transitions)
            report.fail("training transitions differ between passes");
    }

    report.set_exact("speedup_geomean", geomean(first.speedups));
    report.set_exact("trainer.transitions", first.transitions);
    report.set_exact("inference.steps", first.inference_steps);

    report.set_end_to_end("optimise_s", median(optimise_s));
    report.set_end_to_end("speedup_geomean", geomean(first.speedups));
    double job_s = 0.0;
    for (const double ms : job_ms) job_s += ms * 1e-3;
    report.set_end_to_end("jobs_per_s", static_cast<double>(job_ms.size()) / job_s);
    report.set_end_to_end("job_p50_ms", median(job_ms));
    report.set_end_to_end("job_p99_ms", quantile(job_ms, 0.99));
    report.set_info("passes", std::to_string(passes.size()));

    if (options.trace) {
        xrl::Histogram::Snapshot rollout_before[3];
        for (int i = 0; i < 3; ++i) rollout_before[i] = rollout_phase(rollout_phases[i]);
        const Engine_phases engine_before;
        const Proc_counters proc_before = proc_counters();

        xrl::set_trace_enabled(true);
        Pass traced;
        {
            const xrl::Trace_scope scope(xrl::new_trace_id(), 0);
            traced = run_pass(rules, models, size);
        }
        report_proc_delta(report, proc_before, proc_counters());
        {
            const xrl::Trace_scope scope(xrl::new_trace_id(), 0);
            probe_nn(rules, models, size, options.seed, report);
        }
        xrl::set_trace_enabled(false);
        write_trace(options.trace_path);

        if (traced.transitions != first.transitions || traced.speedups != first.speedups)
            report.fail("the traced pass does not reproduce the untraced one");

        const double update_s = traced.train_s - traced.train_rollout_s;
        report.set_layer("trainer.rollout_s", traced.train_rollout_s);
        report.set_layer("trainer.update_s", update_s);
        report.set_layer("trainer.update_share", update_s / traced.train_s);
        report.set_layer("trainer.transitions", traced.transitions);
        report.set_layer("trainer.steps_per_s", traced.transitions / traced.train_s);

        double rollout_total_s = 0.0;
        const char* const layer_names[] = {"gnn.encode", "gnn.inference", "env.step"};
        for (int i = 0; i < 3; ++i) {
            const xrl::Histogram::Snapshot delta =
                histogram_delta(rollout_phase(rollout_phases[i]), rollout_before[i]);
            const std::string base = layer_names[i];
            report.set_layer(base + "_us_p50", delta.quantile(0.5));
            report.set_layer(base + "_us_p99", delta.quantile(0.99));
            report.set_layer(base + "_count", static_cast<double>(delta.count));
            rollout_total_s += delta.sum * 1e-6;
        }
        engine_before.report(report);
        // Leaves: the PPO update and the three rollout phases (training and
        // inference); candidate generation runs inside env.step.
        report.set_layer("unattributed_s", traced.wall_s - update_s - rollout_total_s);
        // Against the untraced pass just before it: the first pass runs on
        // cold caches and is not a fair reference.
        const double untraced_wall_s = passes.back().wall_s;
        report.set_layer("trace.overhead_share",
                         (traced.wall_s - untraced_wall_s) / untraced_wall_s);
    }
    std::fprintf(stderr, "xrlflow_transformers: %zu pass(es), %.1f s\n", passes.size(), wall_s);
}

} // namespace perfbench
