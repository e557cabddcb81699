// The unified optimiser API: the backend table, parity of each adapter with
// a direct search call, cancellation via the progress callback,
// memoisation in Optimization_service, and golden results.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <stdexcept>

#include "core/optimization_service.h"
#include "core/optimizer_api.h"
#include "core/result_serial.h"
#include "core/xrlflow.h"
#include "ir/builder.h"
#include "models/models.h"
#include "optimizers/pet/pet_optimizer.h"
#include "optimizers/taso/taso_optimizer.h"
#include "optimizers/tensat/tensat_optimizer.h"
#include "rules/bespoke_rules.h"
#include "rules/corpus.h"
#include "support/check.h"
#include "support/fnv.h"
#include "optimizer_test_util.h"

namespace xrl {
namespace {

using test::api_context;

/// The quickstart graph (paper Figure 1): y = relu(x.w + b).
Graph quickstart_graph()
{
    Graph_builder b;
    const Edge x = b.input({4, 32}, "x");
    const Edge w = b.weight({32, 16}, "w");
    const Edge bias = b.weight({16}, "b");
    return b.finish({b.relu(b.add(b.matmul(x, w), bias))});
}

/// A slightly richer graph so searches take more than one step.
Graph projection_graph()
{
    Graph_builder b;
    const Edge x = b.input({8, 32}, "x");
    const Edge wq = b.weight({32, 16});
    const Edge wk = b.weight({32, 16});
    const Edge y = b.add(b.relu(b.matmul(x, wq)), b.relu(b.matmul(x, wk)));
    return b.finish({y});
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(OptimizerRegistry, BuiltInServesAllFourBackends)
{
    const std::vector<std::string> expected = {"pet", "taso", "tensat", "xrlflow"};
    EXPECT_EQ(backend_names(), expected);
}

TEST(OptimizerRegistry, UnknownBackendThrowsWithKnownNames)
{
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    try {
        make_optimizer("nope", api_context(rules));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("taso"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    }
}

TEST(OptimizerRegistry, IncompleteContextViolatesContract)
{
    EXPECT_THROW(make_optimizer("taso", Optimizer_context{}), Contract_violation);
}

TEST(OptimizerRegistry, EveryBackendReturnsPopulatedResult)
{
    const Graph g = quickstart_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    // Tiny budgets: this exercises plumbing, not search quality.
    const Optimizer_context context = api_context(
        rules,
        {{"taso.budget", 10}, {"pet.budget", 10}, {"tensat.max_iterations", 2},
         {"xrlflow.episodes", 1}, {"xrlflow.max_steps", 6}});
    for (const std::string& name : backend_names()) {
        const auto optimizer = make_optimizer(name, context);
        EXPECT_EQ(optimizer->name(), name);
        const Optimize_result result = optimizer->optimize(g, {});
        EXPECT_EQ(result.backend, name) << name;
        EXPECT_GT(result.initial_ms, 0.0) << name;
        EXPECT_GT(result.final_ms, 0.0) << name;
        EXPECT_LE(result.final_ms, result.initial_ms + 1e-12) << name;
        EXPECT_GT(result.best_graph.size(), 0u) << name;
        EXPECT_GE(result.wall_seconds, 0.0) << name;
        EXPECT_FALSE(result.cancelled) << name;
        EXPECT_NO_THROW(result.best_graph.validate()) << name;
    }
}

// ---------------------------------------------------------------------------
// Parity with the direct entry points (the search backends' parity test,
// which reads the golden digest helpers, is at the end of the file)
// ---------------------------------------------------------------------------

TEST(OptimizerParity, XrlflowAdapterMatchesLegacyGreedyRollout)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());

    // Legacy path: an untrained policy run greedily, with the exact
    // configuration the adapter documents as its smoke default.
    Xrlflow_config config;
    config.seed = 11;
    config.agent.gnn.hidden_dim = 16;
    config.agent.gnn.global_dim = 16;
    config.agent.head_hidden = {64, 32};
    config.agent.max_candidates = 31;
    config.env.max_steps = 40;
    config.trainer.update_every_episodes = 4;
    config.trainer.ppo.minibatch_size = 8;
    config.trainer.seed = 11;
    Xrlflow legacy_system(rules, config);
    const Optimisation_outcome legacy = legacy_system.optimise(g);

    const auto xrlflow =
        make_optimizer("xrlflow", api_context(rules, {{"xrlflow.episodes", 0}}));
    Optimize_request request;
    request.seed = 11;
    request.deterministic = true;
    const Optimize_result unified = xrlflow->optimize(g, request);

    EXPECT_EQ(unified.initial_ms, legacy.initial_ms);
    EXPECT_EQ(unified.final_ms, legacy.final_ms);
    EXPECT_EQ(unified.steps, legacy.steps);
    EXPECT_EQ(unified.best_graph.canonical_hash(), legacy.best_graph.canonical_hash());
}

TEST(XrlflowBackend, TrainOnceCacheNeverServesAnotherGraphsPolicy)
{
    // An earlier cache key folded model_hash ^ seed * k ^ episodes ^
    // fingerprint * k2 with k odd, so for any two graphs one request seed
    // landed the second graph on the first graph's policy. That seed must
    // get the second graph its own policy: the result a fresh backend gives.
    const Graph first = quickstart_graph();
    const Graph second = make_bert(Scale::smoke, 8);
    constexpr std::uint64_t k = 0x9e3779b97f4a7c15ULL;
    std::uint64_t k_inverse = k; // Newton's iteration for 1/k mod 2^64
    for (int i = 0; i < 5; ++i) k_inverse *= 2 - k * k_inverse;
    ASSERT_EQ(k * k_inverse, 1u);

    Optimize_request first_request;
    first_request.seed = 11;
    first_request.deterministic = true;
    Optimize_request second_request = first_request;
    second_request.seed =
        (first.model_hash() ^ second.model_hash() ^ (first_request.seed * k)) * k_inverse;

    const Rule_set rules = standard_rule_corpus();
    const Optimizer_context context =
        api_context(rules, {{"xrlflow.episodes", 1}, {"xrlflow.max_steps", 6}});
    const auto shared = make_optimizer("xrlflow", context);
    shared->optimize(first, first_request);
    const Optimize_result served = shared->optimize(second, second_request);
    const Optimize_result fresh =
        make_optimizer("xrlflow", context)->optimize(second, second_request);
    EXPECT_EQ(served.best_graph.canonical_hash(), fresh.best_graph.canonical_hash());
    EXPECT_EQ(served.final_ms, fresh.final_ms);
    EXPECT_EQ(served.steps, fresh.steps);
    EXPECT_EQ(served.rule_counts, fresh.rule_counts);
}

// ---------------------------------------------------------------------------
// Budgets and cancellation
// ---------------------------------------------------------------------------

TEST(OptimizeRequest, ProgressCallbackCancelsSearch)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    const auto taso = make_optimizer("taso", api_context(rules));

    int calls = 0;
    Optimize_request request;
    request.on_progress = [&calls](const Optimize_progress& progress) {
        EXPECT_EQ(progress.backend, "taso");
        ++calls;
        return calls < 2; // cancel at the second heartbeat
    };
    const Optimize_result result = taso->optimize(g, request);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(calls, 2);
    EXPECT_LE(result.steps, 2);
    // Best-so-far is still a usable graph.
    EXPECT_NO_THROW(result.best_graph.validate());
    EXPECT_GT(result.final_ms, 0.0);
}

TEST(OptimizeRequest, TimeBudgetStopsSearch)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    const auto taso = make_optimizer("taso", api_context(rules, {{"taso.budget", 100000}}));
    Optimize_request request;
    request.time_budget_seconds = 1e-9; // expires before the first pop
    const Optimize_result result = taso->optimize(g, request);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.steps, 0);
    EXPECT_EQ(result.best_graph.canonical_hash(), g.canonical_hash());
}

TEST(OptimizeRequest, CancellationReachesXrlflowInference)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    const auto xrlflow =
        make_optimizer("xrlflow", api_context(rules, {{"xrlflow.episodes", 0}}));
    Optimize_request request;
    request.on_progress = [](const Optimize_progress&) { return false; };
    const Optimize_result result = xrlflow->optimize(g, request);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.steps, 0);
}

// ---------------------------------------------------------------------------
// Optimization_service
// ---------------------------------------------------------------------------

TEST(OptimizationService, ListsRegistryBackends)
{
    Optimization_service service;
    const std::vector<std::string> expected = {"pet", "taso", "tensat", "xrlflow"};
    EXPECT_EQ(service.backends(), expected);
}

TEST(OptimizationService, RepeatedOptimizeIsServedFromCache)
{
    Service_config config;
    config.backend_options["taso.budget"] = 15;
    Optimization_service service(config);
    const Graph g = quickstart_graph();

    const Optimize_result first = service.optimize("taso", g);
    EXPECT_FALSE(first.from_cache);
    EXPECT_EQ(service.cache_hits(), 0u);
    EXPECT_EQ(service.cache_misses(), 1u);

    const Optimize_result second = service.optimize("taso", g);
    EXPECT_TRUE(second.from_cache);
    EXPECT_EQ(service.cache_hits(), 1u);
    EXPECT_EQ(second.final_ms, first.final_ms);
    EXPECT_EQ(second.best_graph.canonical_hash(), first.best_graph.canonical_hash());

    // A different request fingerprint misses.
    Optimize_request other;
    other.iteration_budget = 3;
    EXPECT_FALSE(service.optimize("taso", g, other).from_cache);
    EXPECT_EQ(service.cache_misses(), 2u);

    service.clear_cache();
    EXPECT_EQ(service.cache_size(), 0u);
    EXPECT_FALSE(service.optimize("taso", g).from_cache);
}

TEST(OptimizationService, CancelledRunsAreNotCached)
{
    Optimization_service service;
    const Graph g = projection_graph();
    Optimize_request cancel_all;
    cancel_all.on_progress = [](const Optimize_progress&) { return false; };
    const Optimize_result cancelled = service.optimize("taso", g, cancel_all);
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(service.cache_size(), 0u);
    // The follow-up full run is a miss, not a poisoned hit.
    const Optimize_result full = service.optimize("taso", g, {});
    EXPECT_FALSE(full.from_cache);
    EXPECT_FALSE(full.cancelled);
}

TEST(OptimizationService, UnknownBackendThrowsAndLeavesServiceUsable)
{
    Optimization_service service;
    const Graph g = quickstart_graph();
    EXPECT_THROW(service.optimize("nope", g), std::invalid_argument);
    EXPECT_NO_THROW(service.optimize("taso", g));
}

TEST(OptimizationService, OptimizeAllComparesEveryBackend)
{
    Service_config config;
    config.backend_options["taso.budget"] = 8;
    config.backend_options["pet.budget"] = 8;
    config.backend_options["tensat.max_iterations"] = 2;
    config.backend_options["xrlflow.episodes"] = 0;
    config.backend_options["xrlflow.max_steps"] = 6;
    Optimization_service service(config);

    const Graph g = quickstart_graph();
    const std::vector<Backend_run> runs = service.optimize_all(g, {}, 3);
    ASSERT_EQ(runs.size(), 4u);
    for (const Backend_run& run : runs) {
        EXPECT_EQ(run.result.backend, run.backend);
        EXPECT_GT(run.e2e_before.mean_ms, 0.0) << run.backend;
        EXPECT_GT(run.e2e_after.mean_ms, 0.0) << run.backend;
        EXPECT_EQ(run.e2e_before.repeats, 3) << run.backend;
    }
}


// ---------------------------------------------------------------------------
// Golden search results: the exact outcome of each search backend on three
// smoke-scale zoo models. A change to candidate order, dedup or admission
// in the candidate engine or a search moves one of these numbers.
// ---------------------------------------------------------------------------

struct Golden_search {
    const char* model;
    std::uint64_t best_hash;
    int steps;
    int rule_count_sum;
    double candidates_generated; ///< TASO only; -1 where not reported.
};

Graph golden_model(const std::string& name)
{
    if (name == "inception") return make_inception_v3(Scale::smoke);
    if (name == "resnext") return make_resnext50(Scale::smoke);
    return make_bert(Scale::smoke);
}

void expect_golden_search(const std::string& backend, const std::map<std::string, double>& options,
                          const std::vector<Golden_search>& expected)
{
    const Rule_set rules = standard_rule_corpus();
    const auto optimizer = make_optimizer(backend, api_context(rules, options));
    for (const Golden_search& golden : expected) {
        const Optimize_result result = optimizer->optimize(golden_model(golden.model), {});
        int rule_count_sum = 0;
        for (const auto& [rule, count] : result.rule_counts) rule_count_sum += count;
        const auto generated = result.metadata.find("candidates_generated");
        EXPECT_EQ(result.best_graph.canonical_hash(), golden.best_hash) << golden.model;
        EXPECT_EQ(result.steps, golden.steps) << golden.model;
        EXPECT_EQ(rule_count_sum, golden.rule_count_sum) << golden.model;
        if (golden.candidates_generated >= 0.0) {
            ASSERT_NE(generated, result.metadata.end()) << golden.model;
            EXPECT_EQ(generated->second, golden.candidates_generated) << golden.model;
        }
    }
}

TEST(GoldenSearch, TasoBudget20)
{
    expect_golden_search("taso", {{"taso.budget", 20}},
                         {{"inception", 0xa54e771e9eed337aULL, 20, 718, 729},
                          {"resnext", 0x19199a23ecf9f9bdULL, 20, 381, 440},
                          {"bert", 0x3639ae5eed133f96ULL, 20, 219, 249}});
}

TEST(GoldenSearch, PetBudget10)
{
    expect_golden_search("pet", {{"pet.budget", 10}},
                         {{"inception", 0x31ad906f6179e34aULL, 10, 785, -1},
                          {"resnext", 0xa46937b511db57f8ULL, 10, 377, -1},
                          {"bert", 0x629c22de97cf5029ULL, 10, 229, -1}});
}

TEST(GoldenSearch, TensatThreeIterations)
{
    expect_golden_search("tensat", {{"tensat.max_iterations", 3}},
                         {{"inception", 0xa161525f5b6f8936ULL, 2, 6, -1},
                          {"resnext", 0x1dc4511510990be0ULL, 2, 1, -1},
                          {"bert", 0xe76e573d8267f0eaULL, 3, 40, -1}});
}

// ---------------------------------------------------------------------------
// Golden full results: every Optimize_result field but wall_seconds, pinned
// bit-exactly. The digest hashes the result's serialised form (the binary
// graph, doubles by bit pattern, the rule_counts and metadata maps), so
// initial/final ms, cancelled, device and every metadata key and value are
// covered, not only the search-level numbers above.
// ---------------------------------------------------------------------------

/// Every field but the wall-clock ones: wall_seconds and xrlflow's
/// metadata["training_seconds"].
std::uint64_t result_digest(Optimize_result result)
{
    result.wall_seconds = 0.0;
    result.metadata.erase("training_seconds");
    return fnv1a_bytes(fnv1a_offset, result_to_bytes(result));
}

/// The fields behind a digest, for a readable failure message.
std::string describe(const Optimize_result& result)
{
    char line[256];
    std::snprintf(line, sizeof line, "%s/%s steps=%d initial=%a final=%a cancelled=%d graph=%016llx",
                  result.backend.c_str(), result.device.c_str(), result.steps, result.initial_ms,
                  result.final_ms, result.cancelled ? 1 : 0,
                  static_cast<unsigned long long>(result.best_graph.canonical_hash()));
    std::string out = line;
    for (const auto& [rule, count] : result.rule_counts)
        out += " " + rule + "=" + std::to_string(count);
    for (const auto& [key, value] : result.metadata) {
        std::snprintf(line, sizeof line, " %s=%a", key.c_str(), value);
        out += line;
    }
    return out;
}

TEST(GoldenResult, EveryFieldButWallTime)
{
    struct Golden {
        const char* backend;
        const char* model;
        std::uint64_t digest;
    };
    const Golden expected[] = {
        {"taso", "inception", 0x0982ece02eb60a20ULL},
        {"taso", "resnext", 0x48ffa3ee8543c6abULL},
        {"taso", "bert", 0x34e66d65a2b30e73ULL},
        {"pet", "inception", 0x45e1b98c020ae5bcULL},
        {"pet", "resnext", 0xd3090f56014b1a5fULL},
        {"pet", "bert", 0xfd20035533525192ULL},
        {"tensat", "inception", 0x229e38ccbc4dc30bULL},
        {"tensat", "resnext", 0x437ce47db33d5e11ULL},
        {"tensat", "bert", 0xcc0a76f95c306e62ULL},
        {"xrlflow", "bert", 0x6d155a5a812ef479ULL},
    };
    const Rule_set rules = standard_rule_corpus();
    const Optimizer_context context =
        api_context(rules, {{"taso.budget", 20},
                            {"pet.budget", 10},
                            {"tensat.max_iterations", 3},
                            {"xrlflow.episodes", 0}});
    std::map<std::string, std::unique_ptr<Optimizer>> optimizers;
    for (const Golden& golden : expected) {
        std::unique_ptr<Optimizer>& optimizer = optimizers[golden.backend];
        if (!optimizer) optimizer = make_optimizer(golden.backend, context);
        const Optimize_result result = optimizer->optimize(golden_model(golden.model), {});
        EXPECT_EQ(result_digest(result), golden.digest)
            << golden.model << ": " << describe(result);
    }
}

// ---------------------------------------------------------------------------
// Each search adapter returns what a direct call of its search returns,
// stamped with the backend and device: every field but wall_seconds.
// ---------------------------------------------------------------------------

TEST(OptimizerParity, SearchAdaptersMatchDirectSearch)
{
    const Cost_model cost(gtx1080_profile());
    const Rule_set rules = standard_rule_corpus();
    Taso_config taso;
    taso.budget = 20;
    Taso_config pet;
    pet.budget = 10;
    Tensat_config tensat;
    tensat.max_iterations = 3;
    Rule_set multi; // the adapter's multi-pattern rules
    multi.push_back(make_merge_matmul_shared_lhs_rule());
    multi.push_back(make_merge_conv_shared_input_rule());
    struct Case {
        const char* backend;
        std::map<std::string, double> options;
        std::function<Optimize_result(const Graph&)> direct;
    };
    const Case cases[] = {
        {"taso", {{"taso.budget", 20}},
         [&](const Graph& g) { return optimise_taso(g, rules, cost, taso); }},
        {"pet", {{"pet.budget", 10}}, [&](const Graph& g) { return optimise_pet(g, cost, pet); }},
        {"tensat", {{"tensat.max_iterations", 3}},
         [&](const Graph& g) { return optimise_tensat(g, curated_patterns(), multi, cost, tensat); }},
    };
    for (const Case& c : cases) {
        const auto adapter = make_optimizer(c.backend, api_context(rules, c.options));
        for (const Graph& g : {quickstart_graph(), projection_graph(), make_bert(Scale::smoke)}) {
            Optimize_result direct = c.direct(g);
            direct.backend = c.backend;
            direct.device = cost.device().name;
            const Optimize_result adapted = adapter->optimize(g, {});
            EXPECT_EQ(result_digest(adapted), result_digest(direct))
                << describe(adapted) << "\n vs " << describe(direct);
        }
    }
}

} // namespace
} // namespace xrl
