#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "cost/cost_model.h"
#include "cost/device.h"
#include "cost/e2e_simulator.h"
#include "ir/builder.h"
#include "optimizers/pet/pet_optimizer.h"

namespace xrl {
namespace {

Graph conv_relu_graph()
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 16, 16});
    const Edge w = b.weight({8, 8, 3, 3});
    return b.finish({b.relu(b.conv2d(x, w, 1, 1))});
}

TEST(DeviceProfile, EfficienciesAreFractions)
{
    const Device_profile dev = gtx1080_profile();
    for (int i = 0; i < op_kind_count(); ++i) {
        const double e = dev.efficiency(static_cast<Op_kind>(i));
        EXPECT_GT(e, 0.0);
        EXPECT_LE(e, 1.0);
    }
}

TEST(NodeFlops, MatmulAndConvFormulas)
{
    Graph_builder b;
    const Edge a = b.input({4, 8});
    const Edge w = b.weight({8, 16});
    const Edge m = b.matmul(a, w);
    const Edge x = b.input({1, 3, 8, 8});
    const Edge k = b.weight({6, 3, 3, 3});
    const Edge c = b.conv2d(x, k, 1, 1);
    const Graph g = b.finish({m, c});
    EXPECT_EQ(node_flops(g, m.node), 2 * 4 * 16 * 8);
    EXPECT_EQ(node_flops(g, c.node), 2 * (1 * 6 * 8 * 8) * 3 * 3 * 3);
}

TEST(NodeFlops, FusedActivationAddsElementwiseWork)
{
    Graph_builder b;
    const Edge a = b.input({4, 8});
    const Edge w = b.weight({8, 16});
    const Edge plain = b.matmul(a, w);
    const Edge fused = b.matmul(a, w, Activation::relu);
    const Graph g = b.finish({plain, fused});
    EXPECT_EQ(node_flops(g, fused.node), node_flops(g, plain.node) + 4 * 16);
}

TEST(NodeBytes, CountsInputsAndOutputs)
{
    Graph_builder b;
    const Edge x = b.input({2, 8});
    const Edge y = b.relu(x);
    const Graph g = b.finish({y});
    EXPECT_EQ(node_bytes(g, y.node), 4 * (16 + 16));
}

TEST(FreeOps, ViewsCostNothing)
{
    Graph_builder b;
    const Edge x = b.input({2, 8});
    const Edge r = b.reshape(x, {4, 4});
    const Edge i = b.identity(x);
    const Graph g = b.finish({r, i});
    const Cost_model cost(gtx1080_profile());
    EXPECT_EQ(cost.op_cost_ms(g, r.node), 0.0);
    EXPECT_EQ(cost.op_cost_ms(g, i.node), 0.0);
}

TEST(CostModel, OpCostIncludesLaunchOverhead)
{
    const Graph g = conv_relu_graph();
    const Cost_model cost(gtx1080_profile());
    for (const Node_id id : g.node_ids()) {
        if (is_free_op(g.node(id).kind)) continue;
        if (is_source(g.node(id).kind)) continue;
        EXPECT_GE(cost.op_cost_ms(g, id), gtx1080_profile().kernel_launch_ms);
    }
}

TEST(CostModel, GraphCostIsSumOfOpCosts)
{
    const Graph g = conv_relu_graph();
    const Cost_model cost(gtx1080_profile());
    double sum = 0.0;
    for (const Node_id id : g.node_ids()) sum += cost.op_cost_ms(g, id);
    EXPECT_NEAR(cost.graph_cost_ms(g), sum, 1e-12);
}

/// Four branches over one input, concatenated in a fixed order; `order`
/// says in which order the branches' nodes are appended, and `dead` adds
/// an unused convolution after the first branch.
Graph branchy_graph(const std::array<int, 4>& order, bool dead)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 15, 15});
    std::array<Edge, 4> branch;
    for (const int i : order) {
        switch (i) {
        case 0: branch[0] = b.relu(b.conv2d(x, b.weight({8, 8, 3, 3}), 1, 1)); break;
        case 1: branch[1] = b.conv2d(x, b.weight({6, 8, 1, 1}), 1, 0, Activation::relu); break;
        case 2: branch[2] = b.conv2d(b.avg_pool2d(x, 3, 1, 1), b.weight({5, 8, 1, 1})); break;
        default: branch[3] = b.add(b.max_pool2d(x, 3, 1, 1), x); break;
        }
        if (dead && i == order[0]) b.conv2d(x, b.weight({8, 8, 5, 5}), 1, 2);
    }
    return b.finish({b.concat(1, {branch[0], branch[1], branch[2], branch[3]})});
}

TEST(CostModel, GraphCostIsOrderFree)
{
    // The same graph with its nodes appended in another order (other ids,
    // so another walk order) plus a dead node: both cost models must give
    // bit-identical costs, because their sums are integers.
    const Graph forward = branchy_graph({0, 1, 2, 3}, false);
    const Graph backward = branchy_graph({3, 2, 1, 0}, true);
    ASSERT_GT(backward.size(), forward.size());
    const Cost_model cost(gtx1080_profile());
    EXPECT_EQ(cost.graph_cost_ms(forward), cost.graph_cost_ms(backward));
    EXPECT_EQ(pet_graph_cost_ms(cost, forward), pet_graph_cost_ms(cost, backward));
    EXPECT_GT(pet_graph_cost_ms(cost, forward), 0.0);
}

TEST(Pet, OneByOneSplitTiesExactly)
{
    // Splitting a 1x1 convolution spatially needs no halo: the two halves
    // do exactly the original flops. PET sees only those flops, so the
    // split ties with the original exactly — not a rounding "improvement"
    // either way — while the honest cost model charges the pad and concat.
    Graph_builder b;
    const Edge x = b.input({1, 8, 11, 11});
    const Edge w = b.weight({16, 8, 1, 1});
    const Graph g = b.finish({b.conv2d(x, w)});
    const std::vector<Graph> split = make_pet_spatial_split_rule()->apply_all(g);
    ASSERT_EQ(split.size(), 1u);

    const Cost_model cost(gtx1080_profile());
    EXPECT_EQ(pet_graph_cost_ms(cost, split.front()), pet_graph_cost_ms(cost, g));
    EXPECT_GT(cost.graph_cost_ms(split.front()), cost.graph_cost_ms(g));
}

TEST(CostModel, IgnoresDeadNodes)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 16, 16});
    const Edge w = b.weight({8, 8, 3, 3});
    const Edge used = b.conv2d(x, w, 1, 1);
    b.conv2d(x, w, 1, 1, Activation::relu); // dead: not an output
    const Graph g = b.finish({used});
    Graph_builder b2;
    const Edge x2 = b2.input({1, 8, 16, 16});
    const Edge w2 = b2.weight({8, 8, 3, 3});
    const Graph g2 = b2.finish({b2.conv2d(x2, w2, 1, 1)});
    const Cost_model cost(gtx1080_profile());
    EXPECT_NEAR(cost.graph_cost_ms(g), cost.graph_cost_ms(g2), 1e-12);
}

TEST(CostModel, FusionReducesCost)
{
    // conv+relu as two kernels costs more than one fused kernel.
    Graph_builder b1;
    const Edge x1 = b1.input({1, 8, 16, 16});
    const Edge w1 = b1.weight({8, 8, 3, 3});
    const Graph two_kernels = b1.finish({b1.relu(b1.conv2d(x1, w1, 1, 1))});
    Graph_builder b2;
    const Edge x2 = b2.input({1, 8, 16, 16});
    const Edge w2 = b2.weight({8, 8, 3, 3});
    const Graph fused = b2.finish({b2.conv2d(x2, w2, 1, 1, Activation::relu)});
    const Cost_model cost(gtx1080_profile());
    EXPECT_LT(cost.graph_cost_ms(fused), cost.graph_cost_ms(two_kernels));
}

TEST(E2e, NoiselessIsDeterministic)
{
    const Graph g = conv_relu_graph();
    E2e_simulator sim(gtx1080_profile(), 1);
    EXPECT_EQ(sim.noiseless_ms(g), sim.noiseless_ms(g));
}

TEST(E2e, MeasurementsAreNoisyButNearNoiseless)
{
    const Graph g = conv_relu_graph();
    E2e_simulator sim(gtx1080_profile(), 1);
    const double base = sim.noiseless_ms(g);
    double min_m = 1e30;
    double max_m = 0.0;
    for (int i = 0; i < 50; ++i) {
        const double m = sim.measure_ms(g);
        min_m = std::min(min_m, m);
        max_m = std::max(max_m, m);
        EXPECT_NEAR(m, base, base * 0.10);
    }
    EXPECT_LT(min_m, max_m); // actually noisy
}

TEST(E2e, RepeatedMeasurementStatsAreSane)
{
    const Graph g = conv_relu_graph();
    E2e_simulator sim(gtx1080_profile(), 2);
    const Latency_stats stats = sim.measure_repeated(g, 5);
    EXPECT_EQ(stats.repeats, 5);
    EXPECT_NEAR(stats.mean_ms, sim.noiseless_ms(g), sim.noiseless_ms(g) * 0.05);
    EXPECT_GE(stats.std_ms, 0.0);
}

TEST(E2e, ConstantFoldsWeightOnlySubgraphs)
{
    // w' = w * 2 is weight-only: folded offline; the runtime schedule is
    // identical to using w directly.
    Graph_builder b;
    const Edge x = b.input({4, 8});
    const Edge w = b.weight({8, 16});
    const Edge w_scaled = b.scale(w, 2.0F);
    const Graph g = b.finish({b.matmul(x, w_scaled)});
    E2e_simulator sim(gtx1080_profile(), 3);
    const E2e_breakdown bd = sim.analyse(g);
    EXPECT_EQ(bd.nodes_folded, 1);
    EXPECT_EQ(bd.kernels_launched, 1); // just the matmul

    Graph_builder b2;
    const Edge x2 = b2.input({4, 8});
    const Edge w2 = b2.weight({8, 16});
    const Graph direct = b2.finish({b2.matmul(x2, w2)});
    EXPECT_NEAR(sim.noiseless_ms(g), sim.noiseless_ms(direct), 1e-12);
}

TEST(E2e, CostModelDoesNotSeeConstantFolding)
{
    Graph_builder b;
    const Edge x = b.input({4, 8});
    const Edge w = b.weight({8, 16});
    const Edge w_scaled = b.scale(w, 2.0F);
    const Graph g = b.finish({b.matmul(x, w_scaled)});
    const Cost_model cost(gtx1080_profile());
    E2e_simulator sim(gtx1080_profile(), 4);
    // The cost model charges for the scale kernel; the runtime folds it.
    EXPECT_GT(cost.graph_cost_ms(g), sim.noiseless_ms(g));
}

TEST(E2e, FusesSingleConsumerElementwiseChains)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 16, 16});
    const Edge w = b.weight({8, 8, 3, 3});
    const Edge y = b.tanh(b.relu(b.conv2d(x, w, 1, 1)));
    const Graph g = b.finish({y});
    E2e_simulator sim(gtx1080_profile(), 5);
    const E2e_breakdown bd = sim.analyse(g);
    EXPECT_EQ(bd.kernels_fused, 2);   // relu and tanh ride the conv kernel
    EXPECT_EQ(bd.kernels_launched, 1);
}

TEST(E2e, DoesNotFuseSharedIntermediates)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 16, 16});
    const Edge w = b.weight({8, 8, 3, 3});
    const Edge c = b.conv2d(x, w, 1, 1);
    const Graph g = b.finish({b.relu(c), b.tanh(c)}); // conv has 2 consumers
    E2e_simulator sim(gtx1080_profile(), 6);
    const E2e_breakdown bd = sim.analyse(g);
    EXPECT_EQ(bd.kernels_fused, 0);
    EXPECT_EQ(bd.kernels_launched, 3);
}

TEST(E2e, FusesBiasAddWithStaticOperand)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 16, 16});
    const Edge w = b.weight({8, 8, 3, 3});
    const Edge bias = b.weight({1, 8, 1, 1});
    const Edge y = b.add(b.conv2d(x, w, 1, 1), bias);
    const Graph g = b.finish({y});
    E2e_simulator sim(gtx1080_profile(), 7);
    const E2e_breakdown bd = sim.analyse(g);
    EXPECT_EQ(bd.kernels_fused, 1);
    EXPECT_EQ(bd.kernels_launched, 1);
}

TEST(E2e, SchedulerOverheadGrowsWithKernelCount)
{
    // Same compute split across many kernels costs more end-to-end.
    Graph_builder b1;
    const Edge x1 = b1.input({1, 8, 16, 16});
    const Edge w1 = b1.weight({32, 8, 3, 3});
    const Graph one_conv = b1.finish({b1.conv2d(x1, w1, 1, 1)});

    Graph_builder b2;
    const Edge x2 = b2.input({1, 8, 16, 16});
    std::vector<Edge> branches;
    for (int i = 0; i < 8; ++i) {
        const Edge w = b2.weight({4, 8, 3, 3});
        branches.push_back(b2.conv2d(x2, w, 1, 1));
    }
    const Graph many_convs = b2.finish({b2.concat(1, branches)});

    E2e_simulator sim(gtx1080_profile(), 8);
    const E2e_breakdown bd1 = sim.analyse(one_conv);
    const E2e_breakdown bd2 = sim.analyse(many_convs);
    EXPECT_GT(bd2.kernels_launched, bd1.kernels_launched);
    EXPECT_GT(bd2.scheduler_ms, bd1.scheduler_ms);
    EXPECT_GT(bd2.total_ms, bd1.total_ms);
}

TEST(E2e, DiscrepancyDirectionDependsOnStructure)
{
    const Cost_model cost(gtx1080_profile());
    E2e_simulator sim(gtx1080_profile(), 9);

    // Many-kernel graph: E2E > cost model (scheduler overhead dominates).
    Graph_builder b1;
    const Edge x1 = b1.input({1, 16, 8, 8});
    std::vector<Edge> branches;
    for (int i = 0; i < 16; ++i) {
        const Edge w = b1.weight({2, 16, 1, 1});
        branches.push_back(b1.conv2d(x1, w));
    }
    const Graph branchy = b1.finish({b1.concat(1, branches)});
    EXPECT_GT(sim.noiseless_ms(branchy), cost.graph_cost_ms(branchy));

    // Elementwise-chain graph: E2E < cost model (runtime fusion).
    Graph_builder b2;
    const Edge x2 = b2.input({64, 512});
    const Edge w2 = b2.weight({512, 512});
    const Graph chainy = b2.finish({b2.tanh(b2.gelu(b2.relu(b2.matmul(x2, w2))))});
    EXPECT_LT(sim.noiseless_ms(chainy), cost.graph_cost_ms(chainy));
}

TEST(E2e, A100ProfileIsFaster)
{
    const Graph g = conv_relu_graph();
    E2e_simulator slow(gtx1080_profile(), 10);
    E2e_simulator fast(a100_profile(), 10);
    EXPECT_LT(fast.noiseless_ms(g), slow.noiseless_ms(g));
}

} // namespace
} // namespace xrl
