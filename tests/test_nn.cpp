#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "nn/adam.h"
#include "nn/autograd.h"
#include "nn/layers.h"

namespace xrl {
namespace {

/// Central-difference gradient check: `loss_fn` rebuilds the computation
/// from the parameter on a fresh tape each call.
void check_gradients(Parameter& p, const std::function<double(Tape&, Var)>& loss_builder,
                     float tolerance = 2e-2F)
{
    // Analytic gradients.
    p.zero_grad();
    {
        Tape tape;
        const Var leaf = tape.param(p);
        Tape inner; // unused; loss_builder uses the same tape
        (void)inner;
        const double loss = loss_builder(tape, leaf);
        (void)loss;
    }

    // loss_builder already ran backward; now compare against finite
    // differences.
    const float eps = 1e-3F;
    for (std::int64_t i = 0; i < p.value.volume(); ++i) {
        const float saved = p.value.at(i);
        p.value.at(i) = saved + eps;
        Tape tp;
        const double up = loss_builder(tp, tp.param(p)); // note: backward also runs; grads polluted
        p.value.at(i) = saved - eps;
        Tape tm;
        const double down = loss_builder(tm, tm.param(p));
        p.value.at(i) = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(p.grad.at(i), numeric, tolerance)
            << "component " << i << " analytic " << p.grad.at(i) << " numeric " << numeric;
        // Note: the finite-difference passes accumulate extra gradients; we
        // only compare against the first (analytic) pass, so freeze it.
    }
}

/// Wrapper that runs backward once and returns the loss value, but only
/// accumulates gradients on the *first* invocation.
std::function<double(Tape&, Var)> once_backward(const std::function<Var(Tape&, Var)>& forward)
{
    auto first = std::make_shared<bool>(true);
    return [forward, first](Tape& tape, Var leaf) {
        const Var loss = forward(tape, leaf);
        const double value = tape.value(loss).at(0);
        if (*first) {
            tape.backward(loss);
            *first = false;
        }
        return value;
    };
}

TEST(Autograd, AddBroadcastGradient)
{
    Rng rng(1);
    Parameter p(Tensor::random_uniform({1, 4}, rng)); // bias row
    const Tensor x = Tensor::random_uniform({3, 4}, rng);
    check_gradients(p, once_backward([&x](Tape& t, Var leaf) {
                        return t.sum_all(t.mul(t.add(t.constant(x), leaf), t.constant(x)));
                    }));
}

TEST(Autograd, MatmulGradient)
{
    // Both sides of x (m x k) * w (k x n): the left gradient is g * w^T, the
    // right one x^T * g (matmul_tn). Square, non-square (catches a swapped
    // extent) and the GAT attention-score shape (E x 2d) * (2d x 1).
    const std::vector<std::array<std::int64_t, 3>> shapes = {{2, 3, 4}, {4, 3, 5}, {7, 6, 1}};
    Rng rng(2);
    for (const auto& [m, k, n] : shapes) {
        Parameter right(Tensor::random_uniform({k, n}, rng));
        const Tensor x = Tensor::random_uniform({m, k}, rng);
        check_gradients(right, once_backward([&x](Tape& t, Var leaf) {
                            return t.sum_all(t.square(t.matmul(t.constant(x), leaf)));
                        }));
        Parameter left(Tensor::random_uniform({m, k}, rng));
        const Tensor w = Tensor::random_uniform({k, n}, rng);
        check_gradients(left, once_backward([&w](Tape& t, Var leaf) {
                            return t.sum_all(t.square(t.matmul(leaf, t.constant(w))));
                        }));
    }
}

TEST(Autograd, ForwardOnlyTapeHoldsNoGradientBuffers)
{
    Rng rng(14);
    Parameter w(Tensor::random_uniform({4, 3}, rng));
    Tape tape;
    const Var x = tape.constant(Tensor::random_uniform({2, 4}, rng));
    const Var w_node = tape.param(w);
    const Var loss = tape.sum_all(tape.relu(tape.matmul(x, w_node)));
    for (int i = 0; i < static_cast<int>(tape.size()); ++i)
        EXPECT_EQ(tape.grad(Var{i}).volume(), 0) << "node " << i;

    tape.backward(loss);
    // The sweep releases each gradient once it has been passed on; only the
    // parameter node keeps one. The constant input x never gets one.
    EXPECT_FALSE(tape.requires_grad(x));
    for (int i = 0; i < static_cast<int>(tape.size()); ++i) {
        if (i == w_node.index)
            EXPECT_EQ(tape.grad(Var{i}).shape(), tape.value(Var{i}).shape()) << "node " << i;
        else
            EXPECT_EQ(tape.grad(Var{i}).volume(), 0) << "node " << i;
    }
    EXPECT_EQ(std::memcmp(tape.grad(w_node).data(), w.grad.data(), 12 * sizeof(float)), 0);
}

TEST(Autograd, ConstantsGetNoGradient)
{
    // A subgraph built only from constants requires no gradient, however
    // deep, and the matmul that consumes it computes only the weight side.
    Rng rng(15);
    Parameter w(Tensor::random_uniform({5, 2}, rng));
    Tape tape;
    const Var one_hot = tape.constant(Tensor::random_uniform({3, 2}, rng));
    const Var edges = tape.segment_sum(tape.constant(Tensor::random_uniform({4, 3}, rng)),
                                       {0, 2, 2, 1}, 3);
    const Var joined = tape.concat_cols(edges, one_hot);
    const Var loss = tape.sum_all(tape.matmul(joined, tape.param(w)));
    EXPECT_FALSE(tape.requires_grad(edges));
    EXPECT_FALSE(tape.requires_grad(joined));
    EXPECT_TRUE(tape.requires_grad(loss));

    tape.backward(loss);
    // d(sum(J W))/dW[k][j] = sum of column k of J.
    const Tensor& j = tape.value(joined);
    for (std::int64_t k = 0; k < 5; ++k) {
        float column = 0.0F;
        for (std::int64_t r = 0; r < 3; ++r) column += j.at(r * 5 + k);
        EXPECT_FLOAT_EQ(w.grad.at(k * 2), column);
        EXPECT_FLOAT_EQ(w.grad.at(k * 2 + 1), column);
    }
}

TEST(Autograd, SplitBackwardMatchesBackward)
{
    // One Parameter feeding two tape nodes per item: sweeping one tape per
    // item and accumulating the sweeps last item first must equal, bit for
    // bit, backward() over one tape that sums both items' losses — the
    // PPO minibatch done both ways.
    Rng rng(16);
    Parameter w(Tensor::random_uniform({3, 3}, rng));
    Parameter b(Tensor::random_uniform({1, 3}, rng));
    const std::vector<Tensor> xs = {Tensor::random_uniform({6, 3}, rng),
                                    Tensor::random_uniform({5, 3}, rng)};
    const auto item_loss = [&](Tape& tape, const Tensor& x) {
        const Var h = tape.relu(tape.add(tape.matmul(tape.constant(x), tape.param(w)), tape.param(b)));
        return tape.sum_all(tape.square(tape.matmul(h, tape.param(w))));
    };
    const float inv_batch = 1.0F / static_cast<float>(xs.size());

    {
        Tape tape;
        Var total = tape.constant(Tensor(Shape{1, 1}));
        for (const Tensor& x : xs) total = tape.add(total, item_loss(tape, x));
        tape.backward(tape.scale(total, inv_batch));
    }
    const std::vector<float> w_single = w.grad.values();
    const std::vector<float> b_single = b.grad.values();
    w.zero_grad();
    b.zero_grad();

    std::vector<std::vector<Parameter_grad>> sweeps;
    for (const Tensor& x : xs) {
        Tape tape;
        sweeps.push_back(tape.sweep(tape.scale(item_loss(tape, x), inv_batch)));
        ASSERT_EQ(sweeps.back().size(), 3U); // w twice, b once
    }
    for (const float g : w.grad.values()) EXPECT_EQ(g, 0.0F); // the sweep is tape-local
    for (auto it = sweeps.rbegin(); it != sweeps.rend(); ++it) accumulate_parameter_grads(*it);

    ASSERT_EQ(w.grad.values().size(), w_single.size());
    EXPECT_EQ(std::memcmp(w.grad.data(), w_single.data(), w_single.size() * sizeof(float)), 0);
    ASSERT_EQ(b.grad.values().size(), b_single.size());
    EXPECT_EQ(std::memcmp(b.grad.data(), b_single.data(), b_single.size() * sizeof(float)), 0);
}

TEST(Autograd, ReluAndLeakyReluGradient)
{
    Rng rng(3);
    Parameter p(Tensor::random_uniform({2, 5}, rng, -1.0F, 1.0F));
    check_gradients(p, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.relu(leaf));
                    }));
    Parameter q(Tensor::random_uniform({2, 5}, rng, -1.0F, 1.0F));
    check_gradients(q, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.leaky_relu(leaf, 0.2F));
                    }));
}

TEST(Autograd, ReluAndLeakyReluGradientAtZero)
{
    // At exactly 0 both activations take the negative-side branch: relu
    // passes no gradient, leaky_relu passes `slope` times it. A finite
    // difference straddles the kink, so the expected values are exact.
    Parameter p(Tensor(Shape{1, 3}, {-1.0F, 0.0F, 2.0F}));
    {
        Tape tape;
        tape.backward(tape.sum_all(tape.relu(tape.param(p))));
    }
    EXPECT_EQ(p.grad.values(), (std::vector<float>{0.0F, 0.0F, 1.0F}));

    Parameter q(Tensor(Shape{1, 3}, {-1.0F, 0.0F, 2.0F}));
    {
        Tape tape;
        tape.backward(tape.sum_all(tape.leaky_relu(tape.param(q), 0.25F)));
    }
    EXPECT_EQ(q.grad.values(), (std::vector<float>{0.25F, 0.25F, 1.0F}));
}

TEST(Autograd, TanhExpLogGradient)
{
    Rng rng(4);
    Parameter p(Tensor::random_uniform({2, 3}, rng, 0.2F, 1.5F));
    check_gradients(p, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.log(t.exp(t.tanh(leaf))));
                    }));
}

TEST(Autograd, MinimumAndClampGradient)
{
    Rng rng(5);
    Parameter p(Tensor::random_uniform({2, 3}, rng, -2.0F, 2.0F));
    const Tensor other = Tensor::random_uniform({2, 3}, rng, -2.0F, 2.0F);
    check_gradients(p, once_backward([&other](Tape& t, Var leaf) {
                        return t.sum_all(t.minimum(leaf, t.constant(other)));
                    }));
    Parameter q(Tensor::random_uniform({2, 3}, rng, -2.0F, 2.0F));
    check_gradients(q, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.clamp(leaf, -0.5F, 0.5F));
                    }));
}

TEST(Autograd, ConcatGatherSegmentGradient)
{
    Rng rng(6);
    Parameter p(Tensor::random_uniform({4, 3}, rng));
    const std::vector<std::int64_t> gather_idx = {0, 2, 2, 3, 1};
    const std::vector<std::int64_t> segments = {0, 1, 1, 0, 2};
    check_gradients(p, once_backward([&](Tape& t, Var leaf) {
                        const Var g = t.gather_rows(leaf, gather_idx);
                        const Var s = t.segment_sum(g, segments, 3);
                        const Var c = t.concat_cols(s, s);
                        const Var r = t.concat_rows(c, c);
                        return t.sum_all(t.square(r));
                    }));
}

TEST(Autograd, SegmentSoftmaxGradient)
{
    Rng rng(7);
    Parameter p(Tensor::random_uniform({6, 1}, rng, -1.0F, 1.0F));
    const std::vector<std::int64_t> segments = {0, 0, 1, 1, 1, 2};
    const Tensor weights = Tensor::random_uniform({6, 1}, rng);
    check_gradients(p, once_backward([&](Tape& t, Var leaf) {
                        const Var sm = t.segment_softmax(leaf, segments, 3);
                        return t.sum_all(t.mul(sm, t.constant(weights)));
                    }),
                    3e-2F);
}

TEST(Autograd, SegmentSoftmaxSumsToOnePerSegment)
{
    Tape tape;
    const Var scores = tape.constant(Tensor(Shape{5, 1}, {1.0F, 2.0F, -1.0F, 0.5F, 3.0F}));
    const Var sm = tape.segment_softmax(scores, {0, 0, 1, 1, 1}, 2);
    const Tensor& y = tape.value(sm);
    EXPECT_NEAR(y.at(0) + y.at(1), 1.0F, 1e-5F);
    EXPECT_NEAR(y.at(2) + y.at(3) + y.at(4), 1.0F, 1e-5F);
}

TEST(Autograd, PickAndMeanGradient)
{
    Rng rng(8);
    Parameter p(Tensor::random_uniform({3, 3}, rng));
    check_gradients(p, once_backward([](Tape& t, Var leaf) {
                        return t.add(t.pick(leaf, 4), t.mean_all(leaf));
                    }));
}

TEST(Autograd, GradientsAccumulateAcrossTapes)
{
    Parameter p(Tensor::full({1, 1}, 2.0F));
    for (int i = 0; i < 3; ++i) {
        Tape tape;
        const Var loss = tape.square(tape.param(p)); // d/dp = 2p = 4
        tape.backward(loss);
    }
    EXPECT_NEAR(p.grad.at(0), 12.0F, 1e-5F); // 3 accumulated passes
}

TEST(Autograd, SharedSubexpressionGetsSummedGradient)
{
    Parameter p(Tensor::full({1, 1}, 3.0F));
    Tape tape;
    const Var leaf = tape.param(p);
    const Var y = tape.add(tape.square(leaf), leaf); // y = p^2 + p, dy/dp = 2p+1
    tape.backward(tape.sum_all(y));
    EXPECT_NEAR(p.grad.at(0), 7.0F, 1e-5F);
}

TEST(Layers, LinearShapeAndBias)
{
    Rng rng(9);
    Linear layer(4, 6, rng);
    Tape tape;
    const Var x = tape.constant(Tensor::random_uniform({3, 4}, rng));
    const Var y = layer(tape, x);
    EXPECT_EQ(tape.value(y).shape(), (Shape{3, 6}));
    EXPECT_EQ(layer.parameters().size(), 2u);
}

TEST(Layers, MlpArchitecture)
{
    Rng rng(10);
    Mlp mlp(8, {256, 64}, 1, rng); // Table 4 head shape
    Tape tape;
    const Var x = tape.constant(Tensor::random_uniform({5, 8}, rng));
    const Var y = mlp(tape, x);
    EXPECT_EQ(tape.value(y).shape(), (Shape{5, 1}));
    EXPECT_EQ(mlp.parameters().size(), 6u); // 3 layers x (w, b)
}

TEST(Adam, MinimisesQuadratic)
{
    Parameter p(Tensor::full({1, 1}, 5.0F));
    Adam_config config;
    config.learning_rate = 0.1;
    config.max_grad_norm = 0.0;
    Adam adam({&p}, config);
    for (int i = 0; i < 200; ++i) {
        Tape tape;
        const Var loss = tape.square(tape.param(p));
        tape.backward(loss);
        adam.step();
    }
    EXPECT_NEAR(p.value.at(0), 0.0F, 0.05F);
}

TEST(Adam, FitsLinearRegression)
{
    Rng rng(11);
    const Tensor x = Tensor::random_uniform({32, 2}, rng);
    // Target y = x * [2, -3]^T + 1.
    Tensor target(Shape{32, 1});
    for (std::int64_t i = 0; i < 32; ++i)
        target.at(i) = 2.0F * x.at(i * 2) - 3.0F * x.at(i * 2 + 1) + 1.0F;

    Linear layer(2, 1, rng);
    Adam_config config;
    config.learning_rate = 0.05;
    Adam adam(layer.parameters(), config);
    double final_loss = 1e9;
    for (int i = 0; i < 400; ++i) {
        Tape tape;
        const Var pred = layer(tape, tape.constant(x));
        const Var err = tape.sub(pred, tape.constant(target));
        const Var loss = tape.mean_all(tape.square(err));
        final_loss = tape.value(loss).at(0);
        tape.backward(loss);
        adam.step();
    }
    EXPECT_LT(final_loss, 1e-3);
    EXPECT_NEAR(layer.weight().value.at(0), 2.0F, 0.1F);
    EXPECT_NEAR(layer.weight().value.at(1), -3.0F, 0.1F);
    EXPECT_NEAR(layer.bias().value.at(0), 1.0F, 0.1F);
}

TEST(Adam, GradientClippingBoundsNorm)
{
    Parameter p(Tensor::full({1, 1}, 1.0F));
    p.grad.at(0) = 100.0F;
    Adam_config config;
    config.learning_rate = 1.0;
    config.max_grad_norm = 0.5;
    Adam adam({&p}, config);
    adam.step();
    // First Adam step magnitude is ~lr regardless, but the clipped gradient
    // must not explode the moments; value stays finite and close.
    EXPECT_TRUE(std::isfinite(p.value.at(0)));
    EXPECT_GT(p.value.at(0), -1.5F);
}

} // namespace
} // namespace xrl
