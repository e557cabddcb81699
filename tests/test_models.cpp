#include <gtest/gtest.h>

#include <unordered_map>

#include "models/models.h"

namespace xrl {
namespace {

std::unordered_map<Op_kind, int> op_histogram(const Graph& g)
{
    std::unordered_map<Op_kind, int> histogram;
    for (const Node_id id : g.node_ids()) ++histogram[g.node(id).kind];
    return histogram;
}

TEST(Models, DenseLayerExampleMatchesFigure1)
{
    const Graph g = make_dense_layer_example();
    const auto h = op_histogram(g);
    EXPECT_EQ(h.at(Op_kind::matmul), 1);
    EXPECT_EQ(h.at(Op_kind::add), 1);
    EXPECT_EQ(h.at(Op_kind::relu), 1);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, InceptionHasConcatBranches)
{
    const Graph g = make_inception_v3(Scale::smoke);
    const auto h = op_histogram(g);
    EXPECT_GT(h.at(Op_kind::concat), 3);
    EXPECT_GT(h.at(Op_kind::conv2d), 20);
    EXPECT_GT(h.at(Op_kind::batch_norm), 15);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, SqueezenetFireModulesConcatExpansions)
{
    const Graph g = make_squeezenet(Scale::smoke);
    const auto h = op_histogram(g);
    EXPECT_GE(h.at(Op_kind::concat), 4);
    EXPECT_GT(h.at(Op_kind::conv2d), 10);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, ResnextUsesGroupedConvolutions)
{
    const Graph g = make_resnext50(Scale::smoke);
    bool found_grouped = false;
    for (const Node_id id : g.node_ids()) {
        const Node& n = g.node(id);
        if (n.kind == Op_kind::conv2d && n.params->groups > 1) found_grouped = true;
    }
    EXPECT_TRUE(found_grouped);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, ResnetHasResidualAdds)
{
    const Graph g = make_resnet18(Scale::smoke);
    const auto h = op_histogram(g);
    EXPECT_GE(h.at(Op_kind::add), 4);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, BertHasAttentionStructure)
{
    const Graph g = make_bert(Scale::smoke, 32);
    const auto h = op_histogram(g);
    EXPECT_GE(h.at(Op_kind::softmax), 3);     // one per layer
    EXPECT_GE(h.at(Op_kind::matmul), 15);     // QKV + scores + context + FFN
    EXPECT_GE(h.at(Op_kind::layer_norm), 6);
    EXPECT_EQ(h.at(Op_kind::embedding), 1);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, VitPatchEmbedsThenTransforms)
{
    const Graph g = make_vit(Scale::smoke, 64);
    const auto h = op_histogram(g);
    EXPECT_EQ(h.at(Op_kind::conv2d), 1);  // patch embedding only
    EXPECT_GE(h.at(Op_kind::softmax), 3);
    EXPECT_GE(h.at(Op_kind::transpose), 1);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, DalleIsElementwiseHeavy)
{
    const Graph g = make_dalle(Scale::smoke, 32);
    const auto h = op_histogram(g);
    EXPECT_GE(h.at(Op_kind::mul) + h.at(Op_kind::scale) + h.at(Op_kind::gelu), 9);
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, TransducerHasJointNetwork)
{
    const Graph g = make_transformer_transducer(Scale::smoke, 32);
    const auto h = op_histogram(g);
    EXPECT_GE(h.at(Op_kind::tanh), 1);
    EXPECT_GE(h.at(Op_kind::softmax), 4); // per-layer attention + output head
    EXPECT_NO_THROW(g.validate());
}

TEST(Models, PaperScaleIsLargerThanSmoke)
{
    EXPECT_GT(make_bert(Scale::paper, 32).size(), make_bert(Scale::smoke, 32).size());
    EXPECT_GT(make_inception_v3(Scale::paper).size(), make_inception_v3(Scale::smoke).size());
}

TEST(Models, RegistryListsSevenEvaluationModels)
{
    const auto specs = evaluation_models(Scale::smoke);
    ASSERT_EQ(specs.size(), 7u);
    EXPECT_EQ(specs[0].name, "InceptionV3");
    EXPECT_EQ(specs[0].type, "convolutional");
    EXPECT_EQ(specs.back().name, "ViT");
    EXPECT_EQ(specs.back().type, "transformer");
    for (const auto& spec : specs) {
        const Graph g = spec.build();
        EXPECT_GT(g.size(), 10u) << spec.name;
        EXPECT_NO_THROW(g.validate()) << spec.name;
    }
}

TEST(Models, Table1SetExcludesVit)
{
    const auto specs = table1_models(Scale::smoke);
    EXPECT_EQ(specs.size(), 6u);
    for (const auto& spec : specs) EXPECT_NE(spec.name, "ViT");
}

// Figure 7: builders accept different primary dimensions (shape
// generalisation inputs).
class Model_shape_sweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(Model_shape_sweep, InceptionBuildsAtImageSize)
{
    const Graph g = make_inception_v3(Scale::smoke, GetParam());
    EXPECT_NO_THROW(g.validate());
}

TEST_P(Model_shape_sweep, DalleBuildsAtSequenceLength)
{
    const Graph g = make_dalle(Scale::smoke, GetParam());
    EXPECT_NO_THROW(g.validate());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Model_shape_sweep, ::testing::Values(32, 64, 96));

} // namespace
} // namespace xrl
