// Micro-benchmarks (google-benchmark) for the substrates: pattern
// matching, substitution, hashing, e-graph construction, GNN forward /
// backward, the policy's per-step decision, reference execution, and cost
// evaluation.
#include <benchmark/benchmark.h>

#include "core/agent.h"
#include "cost/cost_model.h"
#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "gnn/gnn.h"
#include "ir/builder.h"
#include "ir/executor.h"
#include "models/models.h"
#include "optimizers/tensat/egraph.h"
#include "rules/candidate_engine.h"
#include "rules/corpus.h"

namespace {

using namespace xrl;

const Graph& inception()
{
    static const Graph g = make_inception_v3(Scale::smoke);
    return g;
}

const Graph& bert()
{
    static const Graph g = make_bert(Scale::smoke, 32);
    return g;
}

void BM_pattern_match_inception(benchmark::State& state)
{
    static const auto patterns = curated_patterns();
    const Pattern& fuse = patterns[3]; // fuse-conv-relu
    for (auto _ : state) {
        auto matches = find_matches(inception(), fuse);
        benchmark::DoNotOptimize(matches);
    }
}
BENCHMARK(BM_pattern_match_inception);

// One full candidate pass: a rebuilt host index (`via` = null), the
// undo-log matcher, fingerprint-gated materialisation into recycled pool
// slots, and canonical dedup of the whole set.
void BM_candidate_engine_bert(benchmark::State& state)
{
    static const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{4});
    for (auto _ : state) {
        const auto& generated = engine.generate_step(bert(), SIZE_MAX, nullptr);
        benchmark::DoNotOptimize(generated.candidates.data());
    }
}
BENCHMARK(BM_candidate_engine_bert);

void BM_candidate_engine_inception(benchmark::State& state)
{
    static const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{4});
    for (auto _ : state) {
        const auto& generated = engine.generate_step(inception(), SIZE_MAX, nullptr);
        benchmark::DoNotOptimize(generated.candidates.data());
    }
}
BENCHMARK(BM_candidate_engine_inception);

void BM_canonical_hash(benchmark::State& state)
{
    for (auto _ : state) benchmark::DoNotOptimize(inception().canonical_hash());
}
BENCHMARK(BM_canonical_hash);

void BM_graph_copy(benchmark::State& state)
{
    for (auto _ : state) {
        Graph copy = inception();
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_graph_copy);

void BM_egraph_encode_bert(benchmark::State& state)
{
    for (auto _ : state) {
        auto enc = encode_graph(bert());
        benchmark::DoNotOptimize(enc);
    }
}
BENCHMARK(BM_egraph_encode_bert);

void BM_cost_model_inception(benchmark::State& state)
{
    const Cost_model cost(gtx1080_profile());
    for (auto _ : state) benchmark::DoNotOptimize(cost.graph_cost_ms(inception()));
}
BENCHMARK(BM_cost_model_inception);

void BM_e2e_simulate_inception(benchmark::State& state)
{
    E2e_simulator sim(gtx1080_profile(), 1);
    for (auto _ : state) benchmark::DoNotOptimize(sim.noiseless_ms(inception()));
}
BENCHMARK(BM_e2e_simulate_inception);

void BM_gnn_forward_bert(benchmark::State& state)
{
    Gnn_config config;
    config.hidden_dim = 16;
    config.global_dim = 16;
    config.num_gat_layers = 5;
    Rng rng(1);
    Gnn_encoder encoder(config, rng);
    const Encoded_graph enc = encode_graph_for_gnn(bert());
    for (auto _ : state) {
        Tape tape;
        auto out = encoder(tape, enc);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_gnn_forward_bert);

void BM_gnn_forward_backward_bert(benchmark::State& state)
{
    Gnn_config config;
    config.hidden_dim = 16;
    config.global_dim = 16;
    config.num_gat_layers = 5;
    Rng rng(1);
    Gnn_encoder encoder(config, rng);
    const Encoded_graph enc = encode_graph_for_gnn(bert());
    for (auto _ : state) {
        Tape tape;
        auto out = encoder(tape, enc);
        tape.backward(tape.sum_all(out.graph_embeddings));
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_gnn_forward_backward_bert);

// The policy's decision on one real BERT environment step (the workload's
// smoke agent: hidden 16, heads [64, 32], 31 candidates), over the full
// meta-graph encoding and over the compact one the rollouts run. `rows`
// is the number of node rows the forward computes.
void BM_agent_act_bert_step(benchmark::State& state, bool compact)
{
    static const Rule_set rules = standard_rule_corpus();
    Agent_config config;
    config.gnn.hidden_dim = 16;
    config.gnn.global_dim = 16;
    config.head_hidden = {64, 32};
    config.max_candidates = 31;
    E2e_simulator simulator(gtx1080_profile(), 1);
    Env_config env_config;
    env_config.max_candidates = config.max_candidates;
    const Environment env(bert(), rules, simulator, env_config);
    std::vector<const Graph*> candidates;
    for (const Candidate& c : env.candidates()) candidates.push_back(c.graph);
    Meta_encoder meta;
    const Encoded_graph encoded =
        compact ? meta.encode_compact(env.current_graph(), candidates, config.gnn.num_gat_layers)
                : meta.encode(env.current_graph(), candidates);
    const std::vector<std::uint8_t> mask = env.action_mask();
    Agent agent(config, 1);
    Rng rng(1);
    for (auto _ : state) benchmark::DoNotOptimize(agent.act(encoded, mask, rng, true).action);
    state.counters["rows"] = static_cast<double>(encoded.num_nodes);
}
BENCHMARK_CAPTURE(BM_agent_act_bert_step, full, false);
BENCHMARK_CAPTURE(BM_agent_act_bert_step, compact, true);

void BM_reference_executor_dense(benchmark::State& state)
{
    const Graph g = make_dense_layer_example();
    Rng rng(1);
    const Binding_map bindings = random_bindings(g, rng);
    for (auto _ : state) benchmark::DoNotOptimize(execute(g, bindings));
}
BENCHMARK(BM_reference_executor_dense);

} // namespace

BENCHMARK_MAIN();
