// End-to-end semantic preservation: run the full TASO optimisation
// pipeline on a tiny variant of every zoo architecture and verify with the
// reference executor that the optimised graph computes the same function.
//
// This is the strongest property in the suite: it exercises every rewrite
// rule the search chooses, the substitution engine, shape inference and
// the executor across all eight architectures.
#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "ir/builder.h"
#include "ir/executor.h"
#include "models/models.h"
#include "optimizers/taso/taso_optimizer.h"
#include "rules/corpus.h"

namespace xrl {
namespace {

struct Tiny_model {
    const char* name;
    Graph graph;
    float tolerance;
};

std::vector<Tiny_model> tiny_models()
{
    std::vector<Tiny_model> models;
    models.push_back({"inception", make_inception_v3(Scale::smoke, 32), 2e-2F});
    models.push_back({"squeezenet", make_squeezenet(Scale::smoke, 32), 1e-2F});
    models.push_back({"resnext", make_resnext50(Scale::smoke, 32), 2e-2F});
    models.push_back({"resnet18", make_resnet18(Scale::smoke, 32), 2e-2F});
    models.push_back({"bert", make_bert(Scale::smoke, 8), 1e-2F});
    models.push_back({"vit", make_vit(Scale::smoke, 32), 1e-2F});
    models.push_back({"dalle", make_dalle(Scale::smoke, 8), 1e-2F});
    models.push_back({"transducer", make_transformer_transducer(Scale::smoke, 8), 1e-2F});
    return models;
}

Binding_map bindings_for(const Graph& g, Rng& rng)
{
    // Token-id inputs need valid row indices; everything else is uniform.
    Binding_map bindings;
    for (const Node_id id : g.node_ids()) {
        const Node& n = g.node(id);
        if (n.kind != Op_kind::input) continue;
        const Shape& shape = n.output_shapes.front();
        if (n.name == "token-ids") {
            Tensor ids(shape);
            for (std::int64_t i = 0; i < ids.volume(); ++i)
                ids.at(i) = static_cast<float>(rng.uniform_index(512));
            bindings.emplace(id, std::move(ids));
        } else {
            bindings.emplace(id, Tensor::random_uniform(shape, rng, -0.5F, 0.5F));
        }
    }
    return bindings;
}

class Zoo_semantics : public ::testing::TestWithParam<int> {};

TEST_P(Zoo_semantics, TasoPipelinePreservesFunction)
{
    auto models = tiny_models();
    Tiny_model& m = models[static_cast<std::size_t>(GetParam())];

    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    Taso_config config;
    config.budget = 12;
    const Optimize_result result = optimise_taso(m.graph, rules, cost, config);

    Rng rng(static_cast<std::uint64_t>(GetParam()) + 90210);
    const Binding_map bindings = bindings_for(m.graph, rng);
    const auto before = execute(m.graph, bindings);
    const auto after = execute(result.best_graph, bindings);
    ASSERT_EQ(before.size(), after.size()) << m.name;
    for (std::size_t i = 0; i < before.size(); ++i) {
        ASSERT_EQ(before[i].shape(), after[i].shape()) << m.name;
        // Relative-ish tolerance: deep graphs accumulate float error and
        // their activations can be O(10).
        EXPECT_LE(Tensor::max_abs_difference(before[i], after[i]), m.tolerance) << m.name;
    }
}

std::string tiny_model_name(const ::testing::TestParamInfo<int>& info)
{
    static const char* names[] = {"inception", "squeezenet", "resnext", "resnet18",
                                  "bert",      "vit",        "dalle",   "transducer"};
    return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(TinyZoo, Zoo_semantics, ::testing::Range(0, 8), tiny_model_name);

// A deeper sweep on the cheapest model: apply *every* rule at *every* site
// and check each individual candidate numerically.
TEST(RuleSemantics, EverySiteOnTinyBert)
{
    const Graph model = make_bert(Scale::smoke, 8);
    const Rule_set rules = standard_rule_corpus();
    Rng rng(4242);
    const Binding_map bindings = bindings_for(model, rng);
    const auto reference = execute(model, bindings);

    int checked = 0;
    for (const auto& rule : rules) {
        for (const Graph& candidate : rule->apply_all(model, 4)) {
            const auto outputs = execute(candidate, bindings);
            ASSERT_EQ(outputs.size(), reference.size()) << rule->name();
            for (std::size_t i = 0; i < outputs.size(); ++i)
                EXPECT_LE(Tensor::max_abs_difference(outputs[i], reference[i]), 1e-2F)
                    << rule->name();
            ++checked;
        }
    }
    EXPECT_GT(checked, 10);
}

TEST(RuleSemantics, EverySiteOnTinyResnet)
{
    const Graph model = make_resnet18(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    Rng rng(515);
    const Binding_map bindings = bindings_for(model, rng);
    const auto reference = execute(model, bindings);

    int checked = 0;
    for (const auto& rule : rules) {
        for (const Graph& candidate : rule->apply_all(model, 2)) {
            const auto outputs = execute(candidate, bindings);
            for (std::size_t i = 0; i < outputs.size(); ++i)
                EXPECT_LE(Tensor::max_abs_difference(outputs[i], reference[i]), 2e-2F)
                    << rule->name();
            ++checked;
        }
    }
    EXPECT_GE(checked, 3);
}

} // namespace
} // namespace xrl
