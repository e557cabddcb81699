#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/executor.h"
#include "ir/graph.h"
#include "ir/graph_io.h"
#include "ir/op.h"
#include "ir/shape_inference.h"
#include "models/models.h"
#include "support/check.h"
#include "support/record_file.h"
#include "tensor/kernels.h"

namespace xrl {
namespace {

Graph dense_layer_graph()
{
    // The paper's Figure 1: y = ReLU(w . x + b).
    Graph_builder b;
    const Edge x = b.input({4, 8}, "x");
    const Edge w = b.weight({8, 16}, "w");
    const Edge bias = b.weight({16}, "b");
    const Edge y = b.relu(b.add(b.matmul(x, w), bias));
    return b.finish({y});
}

TEST(Op, NamesRoundTrip)
{
    for (int i = 0; i < op_kind_count(); ++i) {
        const auto kind = static_cast<Op_kind>(i);
        EXPECT_EQ(op_kind_from_name(op_kind_name(kind)), kind);
    }
    EXPECT_THROW(op_kind_from_name("not_an_op"), Contract_violation);
}

TEST(Op, ActivationNamesRoundTrip)
{
    EXPECT_EQ(activation_from_name("relu"), Activation::relu);
    EXPECT_EQ(activation_from_name("none"), Activation::none);
    EXPECT_THROW(activation_from_name("zing"), Contract_violation);
}

TEST(Op, CommutativityFlags)
{
    EXPECT_TRUE(is_commutative(Op_kind::add));
    EXPECT_TRUE(is_commutative(Op_kind::mul));
    EXPECT_FALSE(is_commutative(Op_kind::sub));
    EXPECT_FALSE(is_commutative(Op_kind::matmul));
}

TEST(Op, ParamsHashDistinguishesFields)
{
    Op_params a;
    Op_params b;
    b.stride_h = 2;
    EXPECT_NE(hash_params(a), hash_params(b));
    Op_params c;
    c.axis = 1;
    EXPECT_NE(hash_params(a), hash_params(c));
    EXPECT_EQ(hash_params(a), hash_params(Op_params{}));
}

TEST(Op, ParamsToStringShowsNonDefaults)
{
    Op_params p;
    p.axis = 1;
    p.activation = Activation::relu;
    const std::string s = params_to_string(p);
    EXPECT_NE(s.find("axis=1"), std::string::npos);
    EXPECT_NE(s.find("act=relu"), std::string::npos);
    EXPECT_TRUE(params_to_string(Op_params{}).empty());
}

TEST(Graph, BuilderProducesValidGraph)
{
    const Graph g = dense_layer_graph();
    EXPECT_EQ(g.size(), 6u);
    EXPECT_NO_THROW(g.validate());
    EXPECT_EQ(g.outputs().size(), 1u);
    EXPECT_EQ(g.shape_of(g.outputs().front()), (Shape{4, 16}));
}

TEST(Graph, TopoOrderRespectsDependencies)
{
    const Graph g = dense_layer_graph();
    const auto order = g.topo_order();
    std::vector<std::size_t> position(g.capacity());
    for (std::size_t i = 0; i < order.size(); ++i)
        position[static_cast<std::size_t>(order[i])] = i;
    for (const Node_id id : g.node_ids())
        for (const Edge& e : g.node(id).inputs)
            EXPECT_LT(position[static_cast<std::size_t>(e.node)],
                      position[static_cast<std::size_t>(id)]);
}

TEST(Graph, CycleIsDetected)
{
    Graph g;
    const Node_id a = g.add_node(Op_kind::input, {});
    g.node_mut(a).output_shapes = {Shape{2, 2}};
    const Node_id r1 = g.add_node(Op_kind::relu, {{a, 0}});
    const Node_id r2 = g.add_node(Op_kind::relu, {{r1, 0}});
    EXPECT_TRUE(g.is_acyclic());
    g.node_mut(r1).inputs[0] = {r2, 0}; // introduce a cycle r1 <-> r2
    EXPECT_FALSE(g.is_acyclic());
    EXPECT_THROW(g.topo_order(), Contract_violation);
}

TEST(Graph, UsersTracksAllUses)
{
    Graph_builder b;
    const Edge x = b.input({2, 2});
    const Edge y = b.add(x, x); // two uses of x in one node
    const Edge z = b.relu(y);
    const Graph g = b.finish({z});
    const auto users = g.build_users();
    EXPECT_EQ(users[static_cast<std::size_t>(x.node)].size(), 2u);
    EXPECT_EQ(users[static_cast<std::size_t>(y.node)].size(), 1u);
    EXPECT_TRUE(users[static_cast<std::size_t>(z.node)].empty());
}

TEST(Graph, EraseRequiresNoUsers)
{
    Graph_builder b;
    const Edge x = b.input({2, 2});
    const Edge r = b.relu(x);
    Graph g = b.finish({r});
    EXPECT_THROW(g.erase_node(x.node), Contract_violation); // still used by r
}

TEST(Graph, EliminateDeadNodesKeepsInputs)
{
    Graph_builder b;
    const Edge x = b.input({2, 2});
    const Edge used = b.relu(x);
    const Edge dead1 = b.sigmoid(x);
    b.tanh(dead1); // dead2, unused
    Graph g = b.finish({used});
    const std::size_t before = g.size();
    const int removed = g.eliminate_dead_nodes();
    EXPECT_EQ(removed, 2);
    EXPECT_EQ(g.size(), before - 2);
    EXPECT_TRUE(g.is_alive(x.node)); // inputs always survive
    EXPECT_NO_THROW(g.validate());
}

TEST(Graph, ShapeListsAreStructurallySharedAcrossCopies)
{
    // Candidate materialisation copies the host graph per candidate; the
    // copies must share one Shape_list allocation per node, not clone them.
    const Graph g = dense_layer_graph();
    const Graph copy1 = g;
    const Graph copy2 = copy1;
    for (const Node_id id : g.node_ids()) {
        const Shape_list& original = g.node(id).output_shapes;
        EXPECT_TRUE(copy1.node(id).output_shapes.shares_storage_with(original));
        EXPECT_TRUE(copy2.node(id).output_shapes.shares_storage_with(original));
        EXPECT_EQ(original.use_count(), 3);
    }
}

TEST(Graph, ReinferenceKeepsStructuralSharingWhenShapesAreUnchanged)
{
    // The keep-if-equal guard in infer_shapes(): re-inferring identical
    // shapes must not allocate fresh lists (which would silently unshare
    // every candidate copy and resurrect the per-node allocation churn).
    const Graph g = dense_layer_graph();
    Graph copy = g;
    copy.infer_shapes();
    for (const Node_id id : g.node_ids()) {
        const Shape_list& original = g.node(id).output_shapes;
        EXPECT_TRUE(copy.node(id).output_shapes.shares_storage_with(original));
        EXPECT_EQ(original.use_count(), 2);
    }

    // A graph extended after the copy still shares the untouched prefix.
    Graph extended = g;
    const Node_id appended = extended.add_node(Op_kind::relu, {extended.outputs().front()});
    extended.set_outputs({{appended, 0}});
    extended.infer_shapes();
    for (const Node_id id : g.node_ids())
        EXPECT_TRUE(extended.node(id).output_shapes.shares_storage_with(
            g.node(id).output_shapes));
}

TEST(Graph, ParamsAreStructurallySharedAcrossCopies)
{
    // Copies share each node's params block, as they share its Shape_list;
    // a node with default params holds no block at all.
    Graph_builder b;
    const Edge x = b.input({1, 4, 8, 8});
    const Edge w = b.weight({4, 4, 3, 3});
    const Graph g = b.finish({b.relu(b.conv2d(x, w, 1, 1, Activation::relu))});
    const Graph copy1 = g;
    const Graph copy2 = copy1;
    int blocks = 0;
    for (const Node_id id : g.node_ids()) {
        const Shared_params& original = g.node(id).params;
        if (*original == Op_params{}) {
            EXPECT_EQ(original.use_count(), 0) << id;
            continue;
        }
        ++blocks;
        EXPECT_TRUE(copy1.node(id).params.shares_storage_with(original));
        EXPECT_TRUE(copy2.node(id).params.shares_storage_with(original));
        EXPECT_EQ(original.use_count(), 3);
    }
    EXPECT_EQ(blocks, 1); // the conv's; the sources and the relu have default params
    EXPECT_EQ(Shared_params(Op_params{}).use_count(), 0);
#if defined(__x86_64__) && defined(__GLIBCXX__)
    // A node holds handles, not its params' contents.
    EXPECT_LE(sizeof(Node), 112U);
#endif

    // Every block caches the hash of its own params, and the binary form
    // (which writes params field by field) round-trips each zoo model.
    for (const Model_spec& spec : evaluation_models(Scale::paper)) {
        const Graph model = spec.build();
        for (const Node_id id : model.node_ids()) {
            const Shared_params& params = model.node(id).params;
            ASSERT_EQ(params.hash(), hash_params(*params)) << spec.name << " node " << id;
        }
        Byte_writer out;
        serialise_graph_binary(out, model);
        const std::string bytes = out.take();
        Byte_reader in(bytes);
        const Graph back = deserialise_graph_binary(in);
        Byte_writer again;
        serialise_graph_binary(again, back);
        EXPECT_EQ(again.take(), bytes) << spec.name;
        EXPECT_EQ(back.canonical_hash(), model.canonical_hash()) << spec.name;
    }
}

TEST(Graph, CanonicalHashEqualForIsomorphicConstruction)
{
    const Graph a = dense_layer_graph();
    const Graph b = dense_layer_graph();
    EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
}

TEST(Graph, CanonicalHashDiffersAcrossStructures)
{
    const Graph a = dense_layer_graph();
    Graph_builder builder;
    const Edge x = builder.input({4, 8});
    const Edge w = builder.weight({8, 16});
    const Edge y = builder.matmul(x, w); // no bias, no relu
    const Graph b = builder.finish({y});
    EXPECT_NE(a.canonical_hash(), b.canonical_hash());
}

TEST(Graph, CanonicalHashSensitiveToParams)
{
    Graph_builder b1;
    Graph_builder b2;
    const Edge x1 = b1.input({1, 4, 8, 8});
    const Edge w1 = b1.weight({4, 4, 3, 3});
    const Edge x2 = b2.input({1, 4, 8, 8});
    const Edge w2 = b2.weight({4, 4, 3, 3});
    const Graph g1 = b1.finish({b1.conv2d(x1, w1, 1, 1)});
    const Graph g2 = b2.finish({b2.conv2d(x2, w2, 1, 1, Activation::relu)});
    EXPECT_NE(g1.canonical_hash(), g2.canonical_hash());
}

TEST(Graph, DotExportMentionsAllNodes)
{
    const Graph g = dense_layer_graph();
    const std::string dot = g.to_dot();
    EXPECT_NE(dot.find("matmul"), std::string::npos);
    EXPECT_NE(dot.find("relu"), std::string::npos);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

// --- shape inference ---------------------------------------------------------

TEST(ShapeInference, MatmulVariants)
{
    Graph_builder b;
    const Edge a2 = b.input({3, 4});
    const Edge b2 = b.input({4, 5});
    EXPECT_EQ(b.shape_of(b.matmul(a2, b2)), (Shape{3, 5}));
    const Edge a3 = b.input({2, 3, 4});
    const Edge b3 = b.input({2, 4, 6});
    EXPECT_EQ(b.shape_of(b.matmul(a3, b3)), (Shape{2, 3, 6}));
    EXPECT_EQ(b.shape_of(b.matmul(a3, b2)), (Shape{2, 3, 5}));
}

TEST(ShapeInference, MatmulRejectsMismatch)
{
    Graph_builder b;
    const Edge a = b.input({3, 4});
    const Edge c = b.input({5, 6});
    EXPECT_THROW(b.matmul(a, c), Contract_violation);
}

TEST(ShapeInference, ConvGeometry)
{
    Graph_builder b;
    const Edge x = b.input({1, 3, 224, 224});
    const Edge w = b.weight({64, 3, 7, 7});
    EXPECT_EQ(b.shape_of(b.conv2d(x, w, 2, 3)), (Shape{1, 64, 112, 112}));
}

TEST(ShapeInference, GroupedConvChecksChannels)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 10, 10});
    const Edge w_ok = b.weight({8, 2, 3, 3});
    EXPECT_EQ(b.shape_of(b.conv2d(x, w_ok, 1, 1, Activation::none, 4)), (Shape{1, 8, 10, 10}));
    const Edge w_bad = b.weight({8, 3, 3, 3});
    EXPECT_THROW(b.conv2d(x, w_bad, 1, 1, Activation::none, 4), Contract_violation);
}

TEST(ShapeInference, PoolingAndGlobalPool)
{
    Graph_builder b;
    const Edge x = b.input({2, 16, 32, 32});
    EXPECT_EQ(b.shape_of(b.max_pool2d(x, 2, 2)), (Shape{2, 16, 16, 16}));
    EXPECT_EQ(b.shape_of(b.avg_pool2d(x, 3, 1, 1)), (Shape{2, 16, 32, 32}));
    EXPECT_EQ(b.shape_of(b.global_avg_pool(x)), (Shape{2, 16, 1, 1}));
}

TEST(ShapeInference, ConcatSplitSliceReshapeTranspose)
{
    Graph_builder b;
    const Edge x = b.input({2, 6});
    const Edge y = b.input({2, 4});
    EXPECT_EQ(b.shape_of(b.concat(1, {x, y})), (Shape{2, 10}));
    const auto parts = b.split(x, 1, {2, 4});
    EXPECT_EQ(b.shape_of(parts[0]), (Shape{2, 2}));
    EXPECT_EQ(b.shape_of(parts[1]), (Shape{2, 4}));
    EXPECT_EQ(b.shape_of(b.slice(x, 1, 1, 4)), (Shape{2, 3}));
    EXPECT_EQ(b.shape_of(b.reshape(x, {3, 4})), (Shape{3, 4}));
    EXPECT_EQ(b.shape_of(b.transpose(x)), (Shape{6, 2}));
    const Edge z = b.input({2, 3, 4});
    EXPECT_EQ(b.shape_of(b.transpose(z, {2, 0, 1})), (Shape{4, 2, 3}));
}

TEST(ShapeInference, ReduceEmbeddingEnlarge)
{
    Graph_builder b;
    const Edge x = b.input({2, 5});
    EXPECT_EQ(b.shape_of(b.reduce_sum(x, 1, true)), (Shape{2, 1}));
    EXPECT_EQ(b.shape_of(b.reduce_mean(x, 0, false)), (Shape{5}));
    const Edge ids = b.input({7});
    const Edge table = b.weight({100, 32});
    EXPECT_EQ(b.shape_of(b.embedding(ids, table)), (Shape{7, 32}));
    const Edge w = b.weight({8, 4, 1, 1});
    EXPECT_EQ(b.shape_of(b.enlarge(w, 3, 3)), (Shape{8, 4, 3, 3}));
}

TEST(ShapeInference, NormsPreserveShape)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 4, 4});
    EXPECT_EQ(b.shape_of(b.batch_norm(x, 8)), (Shape{1, 8, 4, 4}));
    const Edge t = b.input({2, 10, 64});
    EXPECT_EQ(b.shape_of(b.layer_norm(t, 64)), (Shape{2, 10, 64}));
    EXPECT_EQ(b.shape_of(b.softmax(t)), (Shape{2, 10, 64}));
}

// --- executor ----------------------------------------------------------------

TEST(Executor, DenseLayerMatchesKernels)
{
    const Graph g = dense_layer_graph();
    Rng rng(55);
    const Binding_map bindings = random_bindings(g, rng);
    const auto outputs = execute(g, bindings);
    ASSERT_EQ(outputs.size(), 1u);

    // Recompute by hand with the same deterministic weights.
    Node_id x_id = invalid_node;
    Node_id w_id = invalid_node;
    Node_id b_id = invalid_node;
    for (const Node_id id : g.node_ids()) {
        if (g.node(id).name == "x") x_id = id;
        if (g.node(id).name == "w") w_id = id;
        if (g.node(id).name == "b") b_id = id;
    }
    const Tensor& x = bindings.at(x_id);
    const Tensor w = materialise_weight({8, 16}, w_id, 0x5eedULL);
    const Tensor bias = materialise_weight({16}, b_id, 0x5eedULL);
    const Tensor expected = relu(add(matmul(x, w), bias));
    EXPECT_TRUE(Tensor::all_close(outputs[0], expected, 1e-5F));
}

TEST(Executor, WeightsAreStableAcrossRuns)
{
    const Graph g = dense_layer_graph();
    Rng rng(66);
    const Binding_map bindings = random_bindings(g, rng);
    const auto run1 = execute(g, bindings);
    const auto run2 = execute(g, bindings);
    EXPECT_TRUE(Tensor::all_close(run1[0], run2[0], 0.0F));
}

TEST(Executor, FusedActivationMatchesSeparateOp)
{
    Graph_builder b1;
    const Edge x1 = b1.input({2, 3}, "x");
    const Edge w1 = b1.weight({3, 4}, "w");
    const Graph fused = b1.finish({b1.matmul(x1, w1, Activation::relu)});

    Graph_builder b2;
    const Edge x2 = b2.input({2, 3}, "x");
    const Edge w2 = b2.weight({3, 4}, "w");
    const Graph separate = b2.finish({b2.relu(b2.matmul(x2, w2))});

    Rng rng(77);
    const Tensor x = Tensor::random_uniform({2, 3}, rng);
    const auto out1 = execute(fused, {{x1.node, x}});
    const auto out2 = execute(separate, {{x2.node, x}});
    // Same node ids in both constructions => same deterministic weights.
    EXPECT_TRUE(Tensor::all_close(out1[0], out2[0], 1e-6F));
}

TEST(Executor, SplitProducesMultipleOutputs)
{
    Graph_builder b;
    const Edge x = b.input({2, 6}, "x");
    const auto parts = b.split(x, 1, {2, 4});
    const Graph g = b.finish({parts[0], parts[1]});
    Rng rng(88);
    const Tensor xv = Tensor::random_uniform({2, 6}, rng);
    const auto outs = execute(g, {{x.node, xv}});
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(outs[0].shape(), (Shape{2, 2}));
    EXPECT_EQ(outs[1].shape(), (Shape{2, 4}));
    EXPECT_TRUE(Tensor::all_close(concat({outs[0], outs[1]}, 1), xv, 0.0F));
}

TEST(Executor, MissingBindingThrows)
{
    const Graph g = dense_layer_graph();
    EXPECT_THROW(execute(g, {}), Contract_violation);
}

TEST(Executor, ConstantPayloadFlowsThrough)
{
    Graph_builder b;
    const Edge c = b.constant(Tensor(Shape{2}, {1.5F, -2.0F}));
    const Graph g = b.finish({b.relu(c)});
    const auto outs = execute(g, {});
    EXPECT_EQ(outs[0].values(), (std::vector<float>{1.5F, 0.0F}));
}

// Parameterised: elementwise unary ops preserve shape and match kernels.
class Unary_op_shapes : public ::testing::TestWithParam<Op_kind> {};

TEST_P(Unary_op_shapes, ShapePreservedAndExecutes)
{
    const Op_kind kind = GetParam();
    Graph g;
    const Node_id x = g.add_node(Op_kind::input, {});
    g.node_mut(x).output_shapes = {Shape{2, 3}};
    Op_params params;
    if (kind == Op_kind::leaky_relu || kind == Op_kind::scale) params.scalar = 0.5F;
    const Node_id y = g.add_node(kind, {{x, 0}}, params);
    g.set_outputs({{y, 0}});
    g.infer_shapes();
    EXPECT_EQ(g.shape_of({y, 0}), (Shape{2, 3}));
    Rng rng(99);
    const auto outs = execute(g, {{x, Tensor::random_uniform({2, 3}, rng, 0.1F, 1.0F)}});
    EXPECT_EQ(outs[0].shape(), (Shape{2, 3}));
}

INSTANTIATE_TEST_SUITE_P(Kinds, Unary_op_shapes,
                         ::testing::Values(Op_kind::relu, Op_kind::leaky_relu, Op_kind::gelu,
                                           Op_kind::sigmoid, Op_kind::tanh, Op_kind::exp,
                                           Op_kind::sqrt, Op_kind::erf, Op_kind::identity,
                                           Op_kind::dropout, Op_kind::scale, Op_kind::softmax));

} // namespace
} // namespace xrl
