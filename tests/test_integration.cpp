// Cross-module integration tests: graph import/export, optimiser
// pipelines over the model zoo, rule-corpus sweeps, and end-to-end
// consistency properties.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "cost/cost_model.h"
#include "env/environment.h"
#include "cost/e2e_simulator.h"
#include "ir/builder.h"
#include "ir/executor.h"
#include "ir/graph_io.h"
#include "models/models.h"
#include "optimizers/taso/taso_optimizer.h"
#include "optimizers/tensat/tensat_optimizer.h"
#include "rules/bespoke_rules.h"
#include "rules/corpus.h"
#include "support/check.h"

namespace xrl {
namespace {

Node_id find_by_name(const Graph& g, const std::string& name)
{
    for (const Node_id id : g.node_ids())
        if (g.node(id).name == name) return id;
    return invalid_node;
}

// ---------------------------------------------------------------------------
// Graph text import/export
// ---------------------------------------------------------------------------

TEST(GraphIo, RoundTripsBuilderGraphExactly)
{
    const Graph g = make_dense_layer_example();
    std::ostringstream os;
    serialise_graph_text(os, g);
    std::istringstream is(os.str());
    const Graph loaded = deserialise_graph_text(is);
    EXPECT_EQ(loaded.size(), g.size());
    EXPECT_EQ(loaded.canonical_hash(), g.canonical_hash());
}

TEST(GraphIo, SerialisationIsAFixpoint)
{
    const Graph g = make_bert(Scale::smoke, 16);
    std::ostringstream first;
    serialise_graph_text(first, g);
    std::istringstream is(first.str());
    const Graph loaded = deserialise_graph_text(is);
    std::ostringstream second;
    serialise_graph_text(second, loaded);
    EXPECT_EQ(first.str(), second.str());
}

TEST(GraphIo, PreservesNamesAndShapes)
{
    const Graph g = make_dense_layer_example();
    std::ostringstream os;
    serialise_graph_text(os, g);
    std::istringstream is(os.str());
    const Graph loaded = deserialise_graph_text(is);
    const Node_id x = find_by_name(loaded, "x");
    ASSERT_NE(x, invalid_node);
    EXPECT_EQ(loaded.node(x).output_shapes.front(), (Shape{4, 32}));
}

TEST(GraphIo, RoundTripsConstants)
{
    Graph_builder b;
    const Edge c = b.constant(Tensor(Shape{2, 2}, {1.5F, -2.0F, 0.0F, 3.25F}));
    const Graph g = b.finish({b.relu(c)});
    std::ostringstream os;
    serialise_graph_text(os, g);
    std::istringstream is(os.str());
    const Graph loaded = deserialise_graph_text(is);
    const auto outs = execute(loaded, {});
    EXPECT_EQ(outs[0].values(), (std::vector<float>{1.5F, 0.0F, 0.0F, 3.25F}));
}

TEST(GraphIo, RoundTripExecutesIdentically)
{
    // Save/load a model whose transformed form contains constants (batch
    // norm folds add an epsilon literal), then execute with name-matched
    // inputs.
    Graph_builder b;
    const Edge x = b.input({1, 3, 6, 6}, "x");
    const Edge w = b.weight({4, 3, 3, 3});
    const Edge bn = b.batch_norm(b.conv2d(x, w, 1, 1), 4);
    const Graph g = b.finish({bn});

    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    Taso_config config;
    config.budget = 5;
    const Optimize_result optimised = optimise_taso(g, rules, cost, config);

    const std::string path =
        (std::filesystem::temp_directory_path() / "xrl_graph_roundtrip.txt").string();
    save_graph(path, optimised.best_graph);
    const Graph loaded = load_graph(path);
    std::filesystem::remove(path);

    // The loaded graph has remapped ids, so execute with weights fixed by a
    // shared seed won't match; structural equality is the contract here.
    EXPECT_EQ(loaded.size(), optimised.best_graph.size());
    std::ostringstream a;
    std::ostringstream c2;
    serialise_graph_text(a, optimised.best_graph);
    serialise_graph_text(c2, loaded);
    EXPECT_EQ(a.str(), c2.str());
}

TEST(GraphIo, RejectsMalformedInput)
{
    {
        std::istringstream is("not-a-graph v1");
        EXPECT_THROW(deserialise_graph_text(is), Contract_violation);
    }
    {
        std::istringstream is("xrlflow-graph v2");
        EXPECT_THROW(deserialise_graph_text(is), Contract_violation);
    }
    {
        // Missing outputs record.
        std::istringstream is("xrlflow-graph v1\nnode 0 input inputs 0 name - shape 1 4 { }\n");
        EXPECT_THROW(deserialise_graph_text(is), Contract_violation);
    }
    {
        // Dangling edge reference.
        std::istringstream is(
            "xrlflow-graph v1\nnode 1 relu inputs 1 0:0 name - shape 0 { }\noutputs 1 1:0\n");
        EXPECT_THROW(deserialise_graph_text(is), std::exception);
    }
}

// ---------------------------------------------------------------------------
// Op_params text round-trip (property sweep)
// ---------------------------------------------------------------------------

TEST(ParamsIo, RandomisedRoundTrip)
{
    Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        Op_params p;
        p.activation = static_cast<Activation>(rng.uniform_index(5));
        p.stride_h = static_cast<std::int64_t>(rng.uniform_index(4)) + 1;
        p.stride_w = static_cast<std::int64_t>(rng.uniform_index(4)) + 1;
        p.pad_h = static_cast<std::int64_t>(rng.uniform_index(4));
        p.pad_w = static_cast<std::int64_t>(rng.uniform_index(4));
        p.groups = static_cast<std::int64_t>(rng.uniform_index(8)) + 1;
        p.axis = static_cast<std::int64_t>(rng.uniform_index(4));
        if (rng.uniform() < 0.5) p.split_sizes = {1 + static_cast<std::int64_t>(rng.uniform_index(5)),
                                                  1 + static_cast<std::int64_t>(rng.uniform_index(5))};
        if (rng.uniform() < 0.5) p.perm = {1, 0};
        if (rng.uniform() < 0.5) p.target_shape = {2, static_cast<std::int64_t>(rng.uniform_index(9)) + 1};
        p.begin = static_cast<std::int64_t>(rng.uniform_index(3));
        p.end = p.begin + 1 + static_cast<std::int64_t>(rng.uniform_index(3));
        p.keep_dim = rng.uniform() < 0.5;
        const Op_params round = params_from_string(params_to_string(p));
        EXPECT_EQ(round, p) << params_to_string(p);
    }
}

// ---------------------------------------------------------------------------
// Rule corpus sweep over the model zoo
// ---------------------------------------------------------------------------

class Zoo_rules : public ::testing::TestWithParam<int> {};

TEST_P(Zoo_rules, EveryCandidateIsValidAndCostable)
{
    const auto specs = evaluation_models(Scale::smoke);
    const Model_spec& spec = specs[static_cast<std::size_t>(GetParam())];
    const Graph model = spec.build();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    E2e_simulator sim(gtx1080_profile(), 17);

    int candidates = 0;
    for (const auto& rule : rules) {
        for (const Graph& candidate : rule->apply_all(model, 2)) {
            ++candidates;
            EXPECT_NO_THROW(candidate.validate()) << spec.name << " / " << rule->name();
            const double c = cost.graph_cost_ms(candidate);
            EXPECT_GT(c, 0.0);
            EXPECT_TRUE(std::isfinite(c));
            const double e = sim.noiseless_ms(candidate);
            EXPECT_GT(e, 0.0);
            EXPECT_TRUE(std::isfinite(e));
        }
    }
    EXPECT_GT(candidates, 0) << spec.name << " has no rewrite opportunities at all";
}

INSTANTIATE_TEST_SUITE_P(Models, Zoo_rules, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                             std::string name =
                                 evaluation_models(Scale::smoke)[static_cast<std::size_t>(
                                                                     info.param)]
                                     .name;
                             for (char& c : name)
                                 if (c == '-') c = '_';
                             return name;
                         });

class Zoo_e2e : public ::testing::TestWithParam<int> {};

TEST_P(Zoo_e2e, BreakdownIsConsistent)
{
    const auto specs = evaluation_models(Scale::smoke);
    const Graph model = specs[static_cast<std::size_t>(GetParam())].build();
    E2e_simulator sim(gtx1080_profile(), 19);
    const E2e_breakdown b = sim.analyse(model);
    EXPECT_NEAR(b.total_ms, b.compute_ms + b.launch_ms + b.scheduler_ms, 1e-12);
    EXPECT_GT(b.kernels_launched, 0);
    EXPECT_GE(b.kernels_fused, 0);
    EXPECT_GE(b.nodes_folded, 0);
    EXPECT_LE(static_cast<std::size_t>(b.kernels_fused + b.nodes_folded), model.size());
    // Kernel count can exceed node count (grouped convolutions launch one
    // kernel per group) but must stay within groups * nodes.
    EXPECT_LT(b.kernels_launched, static_cast<int>(model.size()) * 64);
}

INSTANTIATE_TEST_SUITE_P(Models, Zoo_e2e, ::testing::Range(0, 7));

// ---------------------------------------------------------------------------
// Optimiser pipelines
// ---------------------------------------------------------------------------

TEST(Pipeline, TasoNeverIncreasesCostOnZoo)
{
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    Taso_config config;
    config.budget = 8;
    for (const Model_spec& spec : evaluation_models(Scale::smoke)) {
        const Graph model = spec.build();
        const Optimize_result result = optimise_taso(model, rules, cost, config);
        EXPECT_LE(result.final_ms, result.initial_ms + 1e-12) << spec.name;
        EXPECT_NO_THROW(result.best_graph.validate()) << spec.name;
    }
}

TEST(Pipeline, TensatHandlesTransformerAndConvnet)
{
    const Cost_model cost(gtx1080_profile());
    Tensat_config config;
    config.max_iterations = 2;
    for (const auto* name : {"BERT", "SqueezeNet"}) {
        Graph model;
        for (const Model_spec& spec : evaluation_models(Scale::smoke))
            if (spec.name == name) model = spec.build();
        const Optimize_result result =
            optimise_tensat(model, curated_patterns(), Rule_set{}, cost, config);
        EXPECT_LE(result.final_ms, result.initial_ms + 1e-12) << name;
        EXPECT_NO_THROW(result.best_graph.validate()) << name;
    }
}

TEST(Pipeline, OptimiseThenExportThenReload)
{
    const Graph model = make_transformer_transducer(Scale::smoke, 16);
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    Taso_config config;
    config.budget = 10;
    const Optimize_result result = optimise_taso(model, rules, cost, config);

    std::ostringstream os;
    serialise_graph_text(os, result.best_graph);
    std::istringstream is(os.str());
    const Graph loaded = deserialise_graph_text(is);
    EXPECT_NEAR(cost.graph_cost_ms(loaded), result.final_ms, 1e-9);
}

TEST(Pipeline, EmbeddingFoldIsCostModelRejectedButE2eAccepted)
{
    // The §4.2 story in miniature: the same rewrite is judged oppositely by
    // the two signals.
    const Graph model = make_bert(Scale::smoke, 16);
    Rule_set fold_only;
    fold_only.push_back(make_fold_embedding_projection_rule());
    const auto candidates = fold_only.front()->apply_all(model, 1);
    ASSERT_FALSE(candidates.empty());

    const Cost_model cost(gtx1080_profile());
    E2e_simulator sim(gtx1080_profile(), 23);
    EXPECT_GT(cost.graph_cost_ms(candidates.front()), cost.graph_cost_ms(model));
    EXPECT_LT(sim.noiseless_ms(candidates.front()), sim.noiseless_ms(model));
}

TEST(Pipeline, BatchNormFoldIsCostModelRejectedButE2eAccepted)
{
    const Graph model = make_resnet18(Scale::smoke);
    Rule_set fold_only;
    fold_only.push_back(make_fold_batch_norm_rule());
    const auto candidates = fold_only.front()->apply_all(model, 1);
    ASSERT_FALSE(candidates.empty());

    const Cost_model cost(gtx1080_profile());
    E2e_simulator sim(gtx1080_profile(), 29);
    EXPECT_GT(cost.graph_cost_ms(candidates.front()), cost.graph_cost_ms(model));
    EXPECT_LT(sim.noiseless_ms(candidates.front()), sim.noiseless_ms(model));
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(Determinism, EnvironmentEpisodesReplayExactly)
{
    const Rule_set rules = standard_rule_corpus();
    const Graph model = make_bert(Scale::smoke, 16);

    auto run = [&] {
        E2e_simulator sim(gtx1080_profile(), 31);
        Environment env(model, rules, sim);
        std::vector<double> rewards;
        int step = 0;
        while (!env.done() && step++ < 6) rewards.push_back(env.step(0).reward);
        return rewards;
    };
    EXPECT_EQ(run(), run());
}

TEST(Determinism, TasoIsDeterministic)
{
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    Taso_config config;
    config.budget = 6;
    const Graph model = make_squeezenet(Scale::smoke);
    const Optimize_result a = optimise_taso(model, rules, cost, config);
    const Optimize_result b = optimise_taso(model, rules, cost, config);
    EXPECT_EQ(a.best_graph.canonical_hash(), b.best_graph.canonical_hash());
    EXPECT_EQ(a.final_ms, b.final_ms);
}

} // namespace
} // namespace xrl
