#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer_api.h"
#include "cost/cost_model.h"
#include "ir/builder.h"
#include "ir/executor.h"
#include "models/models.h"
#include "optimizers/pet/pet_optimizer.h"
#include "optimizers/taso/taso_optimizer.h"
#include "optimizers/tensat/egraph.h"
#include "optimizers/tensat/tensat_optimizer.h"
#include "rules/bespoke_rules.h"
#include "rules/candidate_engine.h"
#include "rules/corpus.h"
#include "support/check.h"
#include "optimizer_test_util.h"

namespace xrl {
namespace {

using test::api_context;

/// A small network with known optimisation opportunities: two fusable
/// activations, a Q/K/V-style triple projection, and an identity.
Graph optimisable_graph()
{
    Graph_builder b;
    const Edge x = b.input({8, 32}, "x");
    const Edge wq = b.weight({32, 16});
    const Edge wk = b.weight({32, 16});
    const Edge wv = b.weight({32, 16});
    const Edge q = b.relu(b.matmul(x, wq));
    const Edge k = b.relu(b.matmul(x, wk));
    const Edge v = b.identity(b.matmul(x, wv));
    const Edge w2 = b.weight({16, 16});
    const Edge y = b.matmul(b.add(b.add(q, k), v), w2);
    return b.finish({y});
}

/// Mapping from extracted-graph leaves back to the original graph by
/// matching shapes/order: extraction rebuilds leaves with new ids, so
/// equivalence is checked structurally here via cost + validity instead of
/// bitwise execution.
TEST(Taso, ImprovesCostOnOptimisableGraph)
{
    const Graph g = optimisable_graph();
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    const auto taso = make_optimizer("taso", api_context(rules, {{"taso.budget", 30}}));
    const Optimize_result result = taso->optimize(g, {});
    EXPECT_LT(result.final_ms, result.initial_ms);
    EXPECT_GT(result.speedup(), 1.0);
    EXPECT_NO_THROW(result.best_graph.validate());
    EXPECT_GT(result.metadata.at("candidates_generated"), 0.0);
    EXPECT_FALSE(result.rule_counts.empty());
}

TEST(Taso, OptimisedGraphPreservesSemantics)
{
    const Graph g = optimisable_graph();
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    const auto taso = make_optimizer("taso", api_context(rules, {{"taso.budget", 30}}));
    const Optimize_result result = taso->optimize(g, {});

    Rng rng(321);
    const Binding_map bindings = random_bindings(g, rng);
    const auto before = execute(g, bindings);
    const auto after = execute(result.best_graph, bindings);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_LE(Tensor::max_abs_difference(before[i], after[i]), 1e-3F);
}

TEST(Taso, RespectsBudget)
{
    const Graph g = optimisable_graph();
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    const auto taso = make_optimizer("taso", api_context(rules));
    Optimize_request request;
    request.iteration_budget = 1;
    const Optimize_result result = taso->optimize(g, request);
    EXPECT_EQ(result.steps, 1);
}

TEST(Taso, NoRulesMeansNoChange)
{
    const Graph g = optimisable_graph();
    const Cost_model cost(gtx1080_profile());
    const Rule_set empty;
    const auto taso = make_optimizer("taso", api_context(empty));
    const Optimize_result result = taso->optimize(g, {});
    EXPECT_EQ(result.final_ms, result.initial_ms);
    EXPECT_EQ(result.best_graph.canonical_hash(), g.canonical_hash());
    EXPECT_TRUE(result.rule_counts.empty());
}

TEST(Taso, GreedyGetsStuckWhereUphillMoveWins)
{
    // A graph where the only path to the win requires first applying a
    // cost-increasing rule: distribute matmul over add to expose factoring.
    // TASO's alpha=1.0 (pure greedy) cannot take it; alpha=1.5 can.
    Graph_builder b;
    const Edge a = b.input({16, 16});
    const Edge u = b.weight({16, 16});
    const Edge v = b.weight({16, 16});
    const Edge y = b.matmul(a, b.add(u, v)); // already optimal actually
    const Graph g = b.finish({y});
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    Taso_config greedy;
    greedy.alpha = 1.0;
    greedy.budget = 10;
    const Optimize_result r = optimise_taso(g, rules, cost, greedy);
    // Optimal input stays optimal — sanity check that alpha=1 cannot regress.
    EXPECT_LE(r.final_ms, r.initial_ms + 1e-12);
}

TEST(Taso, GraphCostFnRunsOnTheCallingThread)
{
    // The Graph_cost_fn entry's contract: every call on the caller's thread
    // (a timing probe around a cost model need not be thread-safe), the
    // input first and then each pop's novel candidates in admission order.
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    const Graph model = make_inception_v3(Scale::smoke);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::uint64_t> calls;
    bool off_thread = false;
    const Graph_cost_fn recorded = [&](const Graph& g) {
        off_thread = off_thread || std::this_thread::get_id() != caller;
        calls.push_back(g.canonical_hash());
        return cost.graph_cost_ms(g);
    };

    // One pop: the input, then its candidates in the engine's order (every
    // one is novel — the engine already drops rewrites equal to the host).
    Taso_config one_pop;
    one_pop.budget = 1;
    optimise_taso_with_cost(model, rules, recorded, one_pop);
    std::vector<std::uint64_t> expected{model.canonical_hash()};
    Candidate_engine engine(rules, Candidate_engine_config{one_pop.max_candidates_per_step, true});
    for (const Candidate_engine::Step_candidate& c : engine.generate_step(model).candidates)
        expected.push_back(c.hash);
    EXPECT_GT(expected.size(), 2u);
    EXPECT_EQ(calls, expected);

    // A longer search: still one thread, one call per novel candidate.
    calls.clear();
    Taso_config config;
    config.budget = 8;
    const Optimize_result result = optimise_taso_with_cost(model, rules, recorded, config);
    int novel = 0;
    for (const auto& [rule, count] : result.rule_counts) novel += count;
    EXPECT_EQ(calls.size(), static_cast<std::size_t>(novel) + 1);
    EXPECT_FALSE(off_thread);
}

TEST(Taso, PooledCostMatchesGraphCostFnEntry)
{
    // optimise_taso prices candidates from their deltas; the result must be
    // the serial Graph_cost_fn entry's, field for field.
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    Taso_config config;
    config.budget = 12;
    for (const Graph& model : {make_inception_v3(Scale::smoke), make_bert(Scale::smoke)}) {
        const Optimize_result pooled = optimise_taso(model, rules, cost, config);
        const Optimize_result serial = optimise_taso_with_cost(
            model, rules, [&](const Graph& g) { return cost.graph_cost_ms(g); }, config);
        EXPECT_EQ(pooled.best_graph.canonical_hash(), serial.best_graph.canonical_hash());
        EXPECT_EQ(pooled.initial_ms, serial.initial_ms);
        EXPECT_EQ(pooled.final_ms, serial.final_ms);
        EXPECT_EQ(pooled.steps, serial.steps);
        EXPECT_EQ(pooled.cancelled, serial.cancelled);
        EXPECT_EQ(pooled.rule_counts, serial.rule_counts);
        EXPECT_EQ(pooled.metadata, serial.metadata);
        EXPECT_LT(pooled.final_ms, pooled.initial_ms);
    }
}

// ---------------------------------------------------------------------------
// E-graph
// ---------------------------------------------------------------------------

TEST(Egraph, HashConsingDeduplicates)
{
    E_graph eg;
    E_node leaf;
    leaf.kind = Op_kind::input;
    leaf.leaf_id = 0;
    leaf.leaf_shape = {4, 4};
    const Eclass_id a = eg.add(leaf);
    const Eclass_id b = eg.add(leaf);
    EXPECT_EQ(a, b);
    EXPECT_EQ(eg.num_classes(), 1u);
}

TEST(Egraph, MergeUnionsClasses)
{
    E_graph eg;
    E_node x;
    x.kind = Op_kind::input;
    x.leaf_id = 0;
    x.leaf_shape = {4, 4};
    const Eclass_id cx = eg.add(x);
    E_node r;
    r.kind = Op_kind::relu;
    r.children = {cx};
    const Eclass_id cr = eg.add(r);
    E_node rr;
    rr.kind = Op_kind::relu;
    rr.children = {cr};
    const Eclass_id crr = eg.add(rr);
    EXPECT_EQ(eg.num_classes(), 3u);
    EXPECT_TRUE(eg.merge(cr, crr)); // relu(relu(x)) == relu(x)
    eg.rebuild();
    EXPECT_EQ(eg.find(cr), eg.find(crr));
    EXPECT_EQ(eg.num_classes(), 2u);
}

TEST(Egraph, CongruenceClosesUpward)
{
    // If a == b then f(a) == f(b) after rebuild.
    E_graph eg;
    E_node a;
    a.kind = Op_kind::input;
    a.leaf_id = 0;
    a.leaf_shape = {4, 4};
    E_node b;
    b.kind = Op_kind::input;
    b.leaf_id = 1;
    b.leaf_shape = {4, 4};
    const Eclass_id ca = eg.add(a);
    const Eclass_id cb = eg.add(b);
    E_node fa;
    fa.kind = Op_kind::relu;
    fa.children = {ca};
    E_node fb;
    fb.kind = Op_kind::relu;
    fb.children = {cb};
    const Eclass_id cfa = eg.add(fa);
    const Eclass_id cfb = eg.add(fb);
    EXPECT_NE(eg.find(cfa), eg.find(cfb));
    eg.merge(ca, cb);
    eg.rebuild();
    EXPECT_EQ(eg.find(cfa), eg.find(cfb));
}

TEST(Egraph, MergeRejectsShapeMismatch)
{
    E_graph eg;
    E_node a;
    a.kind = Op_kind::input;
    a.leaf_id = 0;
    a.leaf_shape = {4, 4};
    E_node b;
    b.kind = Op_kind::input;
    b.leaf_id = 1;
    b.leaf_shape = {2, 8};
    const Eclass_id ca = eg.add(a);
    const Eclass_id cb = eg.add(b);
    EXPECT_THROW(eg.merge(ca, cb), Contract_violation);
}

TEST(Egraph, EncodeRoundTripsThroughExtraction)
{
    const Graph g = optimisable_graph();
    const Egraph_encoding enc = encode_graph(g);
    EXPECT_EQ(enc.roots.size(), g.outputs().size());
    const Cost_model cost(gtx1080_profile());
    const auto extracted = extract_best(enc.egraph, enc.roots, cost);
    ASSERT_TRUE(extracted.has_value());
    // Without rewrites extraction returns a graph of identical cost.
    EXPECT_NEAR(cost.graph_cost_ms(*extracted), cost.graph_cost_ms(g), 1e-9);
}

TEST(Egraph, EncodeHandlesSplitViaProjections)
{
    Graph_builder b;
    const Edge x = b.input({2, 6});
    const auto parts = b.split(x, 1, {2, 4});
    const Graph g = b.finish({b.relu(parts[0]), b.tanh(parts[1])});
    const Egraph_encoding enc = encode_graph(g);
    const Cost_model cost(gtx1080_profile());
    const auto extracted = extract_best(enc.egraph, enc.roots, cost);
    ASSERT_TRUE(extracted.has_value());
    EXPECT_EQ(extracted->outputs().size(), 2u);
    // The split survives extraction.
    int splits = 0;
    for (const Node_id id : extracted->node_ids())
        if (extracted->node(id).kind == Op_kind::split) ++splits;
    EXPECT_EQ(splits, 1);
}

TEST(Egraph, RewriteThenExtractImproves)
{
    // relu(matmul) --fuse--> matmul+relu: after applying the fusion pattern
    // as an e-graph rewrite, extraction picks the fused kernel.
    Graph_builder b;
    const Edge x = b.input({8, 32});
    const Edge w = b.weight({32, 16});
    const Graph g = b.finish({b.relu(b.matmul(x, w))});
    Egraph_encoding enc = encode_graph(g);

    auto patterns = curated_patterns();
    const auto it = std::find_if(patterns.begin(), patterns.end(),
                                 [](const Pattern& p) { return p.name == "fuse-matmul-relu"; });
    ASSERT_NE(it, patterns.end());
    ASSERT_TRUE(is_egraph_compatible(*it));
    const int unions = apply_pattern_to_egraph(enc.egraph, *it, 100);
    EXPECT_GE(unions, 1);
    enc.egraph.rebuild();

    const Cost_model cost(gtx1080_profile());
    const auto extracted = extract_best(enc.egraph, enc.roots, cost);
    ASSERT_TRUE(extracted.has_value());
    EXPECT_LT(cost.graph_cost_ms(*extracted), cost.graph_cost_ms(g));
    // The fused form has one fewer kernel.
    bool found_fused = false;
    for (const Node_id id : extracted->node_ids())
        if (extracted->node(id).kind == Op_kind::matmul &&
            extracted->node(id).params->activation == Activation::relu)
            found_fused = true;
    EXPECT_TRUE(found_fused);
}

TEST(Tensat, OptimisesAndValidates)
{
    const Graph g = optimisable_graph();
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    const auto tensat =
        make_optimizer("tensat", api_context(rules, {{"tensat.max_iterations", 4}}));
    const Optimize_result result = tensat->optimize(g, {});
    EXPECT_LE(result.final_ms, result.initial_ms);
    EXPECT_NO_THROW(result.best_graph.validate());
    EXPECT_GT(result.metadata.at("egraph_nodes"), 0.0);
}

TEST(Tensat, MultiPatternLimitGovernsQkvMerging)
{
    // Three shared-LHS matmuls need two multi-pattern applications to fuse
    // fully; k=1 leaves at least two matmuls, k=2 reaches one.
    Graph_builder b;
    const Edge x = b.input({8, 32});
    const Edge wq = b.weight({32, 16});
    const Edge wk = b.weight({32, 16});
    const Edge wv = b.weight({32, 16});
    const Graph g = b.finish({b.matmul(x, wq), b.matmul(x, wk), b.matmul(x, wv)});

    Rule_set multi;
    multi.push_back(make_merge_matmul_shared_lhs_rule());
    const Cost_model cost(gtx1080_profile());

    auto count_matmuls = [](const Graph& graph) {
        int count = 0;
        for (const Node_id id : graph.node_ids())
            if (graph.node(id).kind == Op_kind::matmul) ++count;
        return count;
    };

    Tensat_config k1;
    k1.max_iterations = 2;
    k1.multi_pattern_limit_k = 1;
    Rule_set multi1;
    multi1.push_back(make_merge_matmul_shared_lhs_rule());
    const Optimize_result r1 = optimise_tensat(g, {}, multi1, cost, k1);

    Tensat_config k2 = k1;
    k2.multi_pattern_limit_k = 2;
    Rule_set multi2;
    multi2.push_back(make_merge_matmul_shared_lhs_rule());
    const Optimize_result r2 = optimise_tensat(g, {}, multi2, cost, k2);

    EXPECT_EQ(count_matmuls(r1.best_graph), 2);
    EXPECT_EQ(count_matmuls(r2.best_graph), 1);
    EXPECT_LT(r2.final_ms, r1.final_ms);
}

TEST(Tensat, SaturatesOnTinyGraph)
{
    Graph_builder b;
    const Edge x = b.input({4, 4});
    const Graph g = b.finish({b.relu(b.relu(x))});
    const Cost_model cost(gtx1080_profile());
    Tensat_config config;
    config.max_iterations = 8;
    std::vector<Pattern> patterns;
    for (Pattern& p : curated_patterns())
        if (p.name == "relu-relu-elim") patterns.push_back(std::move(p));
    const Optimize_result result = optimise_tensat(g, patterns, Rule_set{}, cost, config);
    EXPECT_EQ(result.metadata.at("saturated"), 1.0);
    // relu(relu(x)) collapsed to relu(x).
    int relus = 0;
    for (const Node_id id : result.best_graph.node_ids())
        if (result.best_graph.node(id).kind == Op_kind::relu) ++relus;
    EXPECT_EQ(relus, 1);
}

// ---------------------------------------------------------------------------
// PET
// ---------------------------------------------------------------------------

TEST(Pet, CostModelIgnoresElementwise)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 16, 16});
    const Edge w = b.weight({8, 8, 3, 3});
    const Edge c = b.conv2d(x, w, 1, 1);
    const Graph plain = b.finish({c});

    Graph_builder b2;
    const Edge x2 = b2.input({1, 8, 16, 16});
    const Edge w2 = b2.weight({8, 8, 3, 3});
    const Edge c2 = b2.conv2d(x2, w2, 1, 1);
    const Graph with_relu = b2.finish({b2.relu(b2.relu(c2))});

    const Cost_model cost(gtx1080_profile());
    EXPECT_NEAR(pet_graph_cost_ms(cost, plain), pet_graph_cost_ms(cost, with_relu), 1e-12);
    EXPECT_LT(cost.graph_cost_ms(plain), cost.graph_cost_ms(with_relu));
}

TEST(Pet, SpatialSplitPreservesSemantics)
{
    Graph_builder b;
    const Edge x = b.input({1, 3, 8, 8}, "x");
    const Edge w = b.weight({4, 3, 3, 3});
    const Graph g = b.finish({b.conv2d(x, w, 1, 1)});

    const auto rule = make_pet_spatial_split_rule();
    const auto candidates = rule->apply_all(g);
    ASSERT_EQ(candidates.size(), 1u);

    Rng rng(777);
    const Binding_map bindings = random_bindings(g, rng);
    const auto before = execute(g, bindings);
    const auto after = execute(candidates.front(), bindings);
    EXPECT_LE(Tensor::max_abs_difference(before[0], after[0]), 1e-4F);
}

TEST(Pet, SpatialSplitSkipsStridedAndTinyConvs)
{
    Graph_builder b;
    const Edge x = b.input({1, 3, 8, 8});
    const Edge w = b.weight({4, 3, 3, 3});
    const Graph strided = b.finish({b.conv2d(x, w, 2, 1)});
    EXPECT_TRUE(make_pet_spatial_split_rule()->apply_all(strided).empty());

    Graph_builder b2;
    const Edge x2 = b2.input({1, 3, 3, 3});
    const Edge w2 = b2.weight({4, 3, 3, 3});
    const Graph tiny = b2.finish({b2.conv2d(x2, w2, 1, 1)});
    EXPECT_TRUE(make_pet_spatial_split_rule()->apply_all(tiny).empty());
}

TEST(Pet, OptimiserRunsAndReportsBothCosts)
{
    const Graph g = optimisable_graph();
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    const auto pet = make_optimizer("pet", api_context(rules, {{"pet.budget", 15}}));
    const Optimize_result result = pet->optimize(g, {});
    EXPECT_NO_THROW(result.best_graph.validate());
    // The unified latency fields report the honest cost model; PET's own
    // blind estimate rides along as metadata and never exceeds it.
    EXPECT_GT(result.final_ms, 0.0);
    EXPECT_EQ(result.final_ms, result.metadata.at("honest_ms"));
    EXPECT_LE(result.metadata.at("pet_believed_ms"), result.final_ms + 1e-12);
    EXPECT_EQ(result.metadata.size(), 2u); // TASO's own metadata stays out
}

/// The standard corpus plus PET's spatial split: the rule set PET searches.
Rule_set pet_rule_corpus()
{
    Rule_set rules = standard_rule_corpus();
    rules.push_back(make_pet_spatial_split_rule());
    return rules;
}

TEST(Pet, DeltaPricedSearchMatchesGraphCostFnEntry)
{
    // optimise_pet prices candidates from their deltas; the result must be
    // the serial Graph_cost_fn entry's over the same corpus, field for
    // field.
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = pet_rule_corpus();
    Taso_config config;
    config.budget = 12;
    for (const Graph& model : {make_inception_v3(Scale::smoke), make_resnext50(Scale::smoke),
                               make_bert(Scale::smoke)}) {
        const Optimize_result pet = optimise_pet(model, cost, config);
        const Optimize_result serial = optimise_taso_with_cost(
            model, rules, [&](const Graph& g) { return pet_graph_cost_ms(cost, g); }, config);
        EXPECT_EQ(pet.best_graph.canonical_hash(), serial.best_graph.canonical_hash());
        EXPECT_EQ(pet.metadata.at("pet_believed_ms"), serial.final_ms);
        EXPECT_EQ(pet.final_ms, cost.graph_cost_ms(serial.best_graph));
        EXPECT_EQ(pet.steps, serial.steps);
        EXPECT_EQ(pet.cancelled, serial.cancelled);
        EXPECT_EQ(pet.rule_counts, serial.rule_counts);
    }
}

} // namespace
} // namespace xrl
