#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "support/check.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace xrl {
namespace {

// Fast paths must reproduce, bit for bit, the generic broadcast walk or the
// naive triple loop they replace. Inputs carry exact zeros (the matmul
// kernels skip zero terms) and a few negative zeros.

Tensor random_with_zeros(const Shape& shape, Rng& rng)
{
    Tensor t = Tensor::random_uniform(shape, rng);
    for (float& x : t.values()) {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.3) x = 0.0F;
        else if (u < 0.35) x = -0.0F;
    }
    return t;
}

void expect_bit_identical(const Tensor& actual, const Tensor& expected)
{
    ASSERT_EQ(actual.shape(), expected.shape());
    for (std::int64_t i = 0; i < actual.volume(); ++i) {
        const float x = actual.at(i);
        const float y = expected.at(i);
        EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0) << "element " << i << ": " << x << " vs " << y;
    }
}

/// NumPy broadcasting by explicit multi-index arithmetic, one element at a
/// time: the semantics every elementwise path must match.
Tensor reference_broadcast(const Tensor& a, const Tensor& b, const std::function<float(float, float)>& f)
{
    const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
    Tensor out(out_shape);
    const auto source = [&out_shape](const Tensor& t, std::int64_t flat) {
        std::int64_t index = 0;
        std::int64_t stride = 1;
        std::int64_t rest = flat;
        for (std::int64_t axis = static_cast<std::int64_t>(out_shape.size()) - 1; axis >= 0; --axis) {
            const std::int64_t extent = out_shape[static_cast<std::size_t>(axis)];
            const std::int64_t i = rest % extent;
            rest /= extent;
            const std::int64_t t_axis = axis - (static_cast<std::int64_t>(out_shape.size()) - t.rank());
            if (t_axis < 0) continue;
            const std::int64_t t_extent = t.dim(t_axis);
            index += (t_extent == 1 ? 0 : i) * stride;
            stride *= t_extent;
        }
        return t.at(index);
    };
    for (std::int64_t flat = 0; flat < out.volume(); ++flat)
        out.at(flat) = f(source(a, flat), source(b, flat));
    return out;
}

/// Naive triple loop in the kernels' documented order: for each output
/// element, terms in ascending k, a zero left factor skipped.
Tensor naive_matmul(const Tensor& a, const Tensor& b)
{
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    const std::int64_t n = b.dim(1);
    Tensor out(Shape{m, n});
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0F;
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float av = a.at(i * k + kk);
                if (av == 0.0F) continue;
                acc += av * b.at(kk * n + j);
            }
            out.at(i * n + j) = acc;
        }
    }
    return out;
}

TEST(Shape, VolumeOfScalarIsOne)
{
    EXPECT_EQ(shape_volume({}), 1);
}

TEST(Shape, VolumeMultipliesExtents)
{
    EXPECT_EQ(shape_volume({2, 3, 4}), 24);
    EXPECT_EQ(shape_volume({5, 0}), 0);
}

TEST(Shape, ToStringFormats)
{
    EXPECT_EQ(shape_to_string({1, 3, 256, 256}), "[1, 3, 256, 256]");
    EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, ZeroInitialised)
{
    const Tensor t(Shape{2, 2});
    for (std::int64_t i = 0; i < t.volume(); ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, ConstructionChecksVolume)
{
    EXPECT_THROW(Tensor(Shape{2, 2}, {1.0F, 2.0F}), Contract_violation);
}

TEST(Tensor, FlatIndexRowMajor)
{
    const Tensor t(Shape{2, 3, 4});
    EXPECT_EQ(t.flat_index({0, 0, 0}), 0);
    EXPECT_EQ(t.flat_index({0, 0, 3}), 3);
    EXPECT_EQ(t.flat_index({0, 1, 0}), 4);
    EXPECT_EQ(t.flat_index({1, 2, 3}), 23);
}

TEST(Tensor, ReshapePreservesData)
{
    const Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.shape(), (Shape{3, 2}));
    EXPECT_EQ(r.at(5), 6.0F);
    EXPECT_THROW(t.reshaped({4, 2}), Contract_violation);
}

TEST(Tensor, AllCloseDetectsDifferences)
{
    const Tensor a(Shape{2}, {1.0F, 2.0F});
    const Tensor b(Shape{2}, {1.0F, 2.00001F});
    const Tensor c(Shape{2}, {1.0F, 3.0F});
    EXPECT_TRUE(Tensor::all_close(a, b, 1e-4F));
    EXPECT_FALSE(Tensor::all_close(a, c, 1e-4F));
    EXPECT_FALSE(Tensor::all_close(a, Tensor(Shape{1, 2}, {1.0F, 2.0F})));
}

TEST(Storage_recycler, ReusesReleasedStorageOnlyWhileInstalled)
{
    constexpr auto big = static_cast<std::int64_t>(Storage_recycler::min_floats);
    Storage_recycler recycler;
    const float* first_storage = nullptr;
    {
        const Storage_recycler::Scope scope(recycler);
        {
            Tensor t = Tensor::full({2, big}, 3.0F);
            first_storage = t.data();
        }
        EXPECT_GE(recycler.pooled_floats(), static_cast<std::size_t>(2 * big));

        // A smaller request takes the pooled buffer, zero-filled.
        const Tensor reused(Shape{big, 1});
        EXPECT_EQ(reused.data(), first_storage);
        for (const float x : reused.values()) EXPECT_EQ(x, 0.0F);
        EXPECT_EQ(recycler.pooled_floats(), 0U);

        // Tensors below the threshold never touch the pool.
        { const Tensor small(Shape{4, 4}); }
        EXPECT_EQ(recycler.pooled_floats(), 0U);

        // Move-assigning over a tensor hands its old storage back; copies
        // take pooled storage too.
        Tensor target(Shape{3, big});
        const float* target_storage = target.data();
        target = Tensor();
        EXPECT_EQ(recycler.pooled_floats(), static_cast<std::size_t>(3 * big));
        const Tensor copy(reused);
        EXPECT_EQ(copy.data(), target_storage);
        EXPECT_EQ(copy.values(), reused.values());
    }
    // Uninstalled: tensors allocate and free as usual, the pool is untouched.
    const std::size_t pooled = recycler.pooled_floats();
    { const Tensor t(Shape{4, big}); }
    EXPECT_EQ(recycler.pooled_floats(), pooled);
}

TEST(Storage_recycler, ScopesNest)
{
    constexpr auto big = static_cast<std::int64_t>(Storage_recycler::min_floats);
    Storage_recycler outer;
    Storage_recycler inner;
    const Storage_recycler::Scope outer_scope(outer);
    {
        const Storage_recycler::Scope inner_scope(inner);
        { const Tensor t(Shape{big}); }
    }
    { const Tensor t(Shape{big}); }
    EXPECT_EQ(inner.pooled_floats(), static_cast<std::size_t>(big));
    EXPECT_EQ(outer.pooled_floats(), static_cast<std::size_t>(big));
}

TEST(Broadcast, ShapesFollowNumpyRules)
{
    EXPECT_EQ(broadcast_shapes({2, 3}, {2, 3}), (Shape{2, 3}));
    EXPECT_EQ(broadcast_shapes({2, 1}, {1, 3}), (Shape{2, 3}));
    EXPECT_EQ(broadcast_shapes({3}, {2, 3}), (Shape{2, 3}));
    EXPECT_EQ(broadcast_shapes({}, {4, 5}), (Shape{4, 5}));
    EXPECT_THROW(broadcast_shapes({2, 3}, {2, 4}), Contract_violation);
}

TEST(Ewise, AddSameShape)
{
    const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
    const Tensor b(Shape{2, 2}, {10, 20, 30, 40});
    const Tensor c = add(a, b);
    EXPECT_EQ(c.values(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(Ewise, AddBroadcastRow)
{
    const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor bias(Shape{3}, {10, 20, 30});
    const Tensor c = add(a, bias);
    EXPECT_EQ(c.values(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(Ewise, MulBroadcastColumn)
{
    const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor col(Shape{2, 1}, {2, 3});
    const Tensor c = mul(a, col);
    EXPECT_EQ(c.values(), (std::vector<float>{2, 4, 6, 12, 15, 18}));
}

TEST(Ewise, SubAndDiv)
{
    const Tensor a(Shape{2}, {6, 9});
    const Tensor b(Shape{2}, {2, 3});
    EXPECT_EQ(sub(a, b).values(), (std::vector<float>{4, 6}));
    EXPECT_EQ(div(a, b).values(), (std::vector<float>{3, 3}));
}

TEST(Ewise, UnaryFunctions)
{
    const Tensor a(Shape{3}, {-1.0F, 0.0F, 2.0F});
    EXPECT_EQ(relu(a).values(), (std::vector<float>{0, 0, 2}));
    EXPECT_FLOAT_EQ(leaky_relu(a, 0.1F).at(0), -0.1F);
    EXPECT_FLOAT_EQ(sigmoid(Tensor::scalar(0.0F)).at(0), 0.5F);
    EXPECT_NEAR(tanh_op(Tensor::scalar(1.0F)).at(0), std::tanh(1.0F), 1e-6F);
    EXPECT_NEAR(exp_op(Tensor::scalar(1.0F)).at(0), std::exp(1.0F), 1e-5F);
    EXPECT_FLOAT_EQ(sqrt_op(Tensor::scalar(9.0F)).at(0), 3.0F);
    EXPECT_NEAR(gelu(Tensor::scalar(0.0F)).at(0), 0.0F, 1e-6F);
    EXPECT_FLOAT_EQ(scale(a, 2.0F).at(2), 4.0F);
}

TEST(Matmul, TwoByTwo)
{
    const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
    const Tensor b(Shape{2, 2}, {5, 6, 7, 8});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.values(), (std::vector<float>{19, 22, 43, 50}));
}

TEST(Matmul, RectangularShapes)
{
    const Tensor a(Shape{1, 3}, {1, 2, 3});
    const Tensor b(Shape{3, 2}, {1, 0, 0, 1, 1, 1});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{1, 2}));
    EXPECT_EQ(c.values(), (std::vector<float>{4, 5}));
}

TEST(Matmul, BatchedBothSides)
{
    const Tensor a(Shape{2, 1, 2}, {1, 2, 3, 4});
    const Tensor b(Shape{2, 2, 1}, {1, 1, 2, 2});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 1, 1}));
    EXPECT_EQ(c.values(), (std::vector<float>{3, 14}));
}

TEST(Matmul, BatchedBroadcastRhs)
{
    const Tensor a(Shape{2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
    const Tensor b(Shape{2, 2}, {1, 2, 3, 4});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
    EXPECT_EQ(c.values(), (std::vector<float>{1, 2, 3, 4, 2, 4, 6, 8}));
}

TEST(Matmul, MismatchedInnerDimThrows)
{
    const Tensor a(Shape{2, 3});
    const Tensor b(Shape{2, 2});
    EXPECT_THROW(matmul(a, b), Contract_violation);
}

TEST(Transpose, PermutesAxes)
{
    const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor t = transpose(a, {1, 0});
    EXPECT_EQ(t.shape(), (Shape{3, 2}));
    EXPECT_EQ(t.values(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(Transpose, Last2OnRank3)
{
    const Tensor a(Shape{2, 2, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
    const Tensor t = transpose_last2(a);
    EXPECT_EQ(t.shape(), (Shape{2, 3, 2}));
    EXPECT_EQ(t.at(0), 1.0F);
    EXPECT_EQ(t.at(1), 4.0F);
}

TEST(Transpose, DoubleTransposeIsIdentity)
{
    Rng rng(5);
    const Tensor a = Tensor::random_uniform({3, 4, 5}, rng);
    const Tensor round_trip = transpose(transpose(a, {2, 0, 1}), {1, 2, 0});
    EXPECT_TRUE(Tensor::all_close(a, round_trip, 0.0F));
}

TEST(ConcatSplit, RoundTripAxis0)
{
    Rng rng(6);
    const Tensor a = Tensor::random_uniform({2, 3}, rng);
    const Tensor b = Tensor::random_uniform({4, 3}, rng);
    const Tensor joined = concat({a, b}, 0);
    EXPECT_EQ(joined.shape(), (Shape{6, 3}));
    const auto parts = split(joined, 0, {2, 4});
    EXPECT_TRUE(Tensor::all_close(parts[0], a, 0.0F));
    EXPECT_TRUE(Tensor::all_close(parts[1], b, 0.0F));
}

TEST(ConcatSplit, RoundTripInnerAxis)
{
    Rng rng(8);
    const Tensor a = Tensor::random_uniform({2, 2, 3}, rng);
    const Tensor b = Tensor::random_uniform({2, 5, 3}, rng);
    const Tensor joined = concat({a, b}, 1);
    EXPECT_EQ(joined.shape(), (Shape{2, 7, 3}));
    const auto parts = split(joined, 1, {2, 5});
    EXPECT_TRUE(Tensor::all_close(parts[0], a, 0.0F));
    EXPECT_TRUE(Tensor::all_close(parts[1], b, 0.0F));
}

TEST(ConcatSplit, MismatchedSizesThrow)
{
    const Tensor a(Shape{2, 3});
    const Tensor b(Shape{2, 4});
    EXPECT_THROW(concat({a, b}, 0), Contract_violation);
    EXPECT_THROW(split(a, 0, {1, 2}), Contract_violation);
}

TEST(Slice, ExtractsHalfOpenRange)
{
    const Tensor a(Shape{4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
    const Tensor s = slice(a, 0, 1, 3);
    EXPECT_EQ(s.shape(), (Shape{2, 2}));
    EXPECT_EQ(s.values(), (std::vector<float>{3, 4, 5, 6}));
}

TEST(Pad, ZeroPadsSpatially)
{
    const Tensor a(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    const Tensor p = pad(a, {0, 0, 1, 1}, {0, 0, 1, 1});
    EXPECT_EQ(p.shape(), (Shape{1, 1, 4, 4}));
    EXPECT_EQ(p.at(0), 0.0F);
    EXPECT_EQ(p.at(5), 1.0F);
    EXPECT_EQ(p.at(10), 4.0F);
}

TEST(Conv2d, IdentityKernelPreservesInput)
{
    Rng rng(9);
    const Tensor x = Tensor::random_uniform({1, 1, 4, 4}, rng);
    Tensor w(Shape{1, 1, 3, 3});
    w.at(4) = 1.0F; // centre tap
    Conv2d_spec spec;
    spec.pad_h = 1;
    spec.pad_w = 1;
    const Tensor y = conv2d(x, w, spec);
    EXPECT_TRUE(Tensor::all_close(x, y, 1e-6F));
}

TEST(Conv2d, HandComputedValues)
{
    const Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    const Tensor w(Shape{1, 1, 2, 2}, {1, 1, 1, 1});
    Conv2d_spec spec; // stride 1, no padding
    const Tensor y = conv2d(x, w, spec);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_EQ(y.at(0), 10.0F);
}

TEST(Conv2d, StrideReducesOutput)
{
    const Tensor x = Tensor::full({1, 1, 4, 4}, 1.0F);
    const Tensor w = Tensor::full({1, 1, 2, 2}, 1.0F);
    Conv2d_spec spec;
    spec.stride_h = 2;
    spec.stride_w = 2;
    const Tensor y = conv2d(x, w, spec);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    for (std::int64_t i = 0; i < y.volume(); ++i) EXPECT_EQ(y.at(i), 4.0F);
}

TEST(Conv2d, GroupedConvPartitionsChannels)
{
    // Two groups, each a 1x1 identity kernel: output equals input.
    const Tensor x(Shape{1, 2, 1, 1}, {3, 5});
    const Tensor w(Shape{2, 1, 1, 1}, {1, 1});
    Conv2d_spec spec;
    spec.groups = 2;
    const Tensor y = conv2d(x, w, spec);
    EXPECT_EQ(y.values(), (std::vector<float>{3, 5}));
}

TEST(Conv2d, GroupedEqualsConcatOfPerGroupConvs)
{
    Rng rng(21);
    const Tensor x = Tensor::random_uniform({1, 4, 5, 5}, rng);
    const Tensor w = Tensor::random_uniform({6, 2, 3, 3}, rng);
    Conv2d_spec grouped;
    grouped.groups = 2;
    grouped.pad_h = grouped.pad_w = 1;
    const Tensor whole = conv2d(x, w, grouped);

    Conv2d_spec dense;
    dense.pad_h = dense.pad_w = 1;
    const auto xs = split(x, 1, {2, 2});
    const auto ws = split(w, 0, {3, 3});
    const Tensor part = concat({conv2d(xs[0], ws[0], dense), conv2d(xs[1], ws[1], dense)}, 1);
    EXPECT_TRUE(Tensor::all_close(whole, part, 1e-4F));
}

TEST(Pool, MaxPoolPicksMaxima)
{
    const Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
    Pool2d_spec spec;
    const Tensor y = max_pool2d(x, spec);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_EQ(y.at(0), 5.0F);
}

TEST(Pool, AvgPoolAverages)
{
    const Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 3});
    Pool2d_spec spec;
    const Tensor y = avg_pool2d(x, spec);
    EXPECT_EQ(y.at(0), 3.0F);
}

TEST(Pool, GlobalAvgPool)
{
    const Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
    const Tensor y = global_avg_pool(x);
    EXPECT_EQ(y.shape(), (Shape{1, 2, 1, 1}));
    EXPECT_FLOAT_EQ(y.at(0), 2.5F);
    EXPECT_FLOAT_EQ(y.at(1), 10.0F);
}

TEST(Norm, BatchNormMatchesFormula)
{
    const Tensor x(Shape{1, 1, 1, 2}, {2.0F, 4.0F});
    const Tensor gamma(Shape{1}, {2.0F});
    const Tensor beta(Shape{1}, {1.0F});
    const Tensor mean(Shape{1}, {3.0F});
    const Tensor variance(Shape{1}, {4.0F});
    const Tensor y = batch_norm(x, gamma, beta, mean, variance, 0.0F);
    EXPECT_NEAR(y.at(0), (2.0F - 3.0F) / 2.0F * 2.0F + 1.0F, 1e-5F);
    EXPECT_NEAR(y.at(1), (4.0F - 3.0F) / 2.0F * 2.0F + 1.0F, 1e-5F);
}

TEST(Norm, LayerNormNormalisesRows)
{
    Rng rng(31);
    const Tensor x = Tensor::random_uniform({4, 8}, rng);
    const Tensor gamma = Tensor::full({8}, 1.0F);
    const Tensor beta(Shape{8});
    const Tensor y = layer_norm(x, gamma, beta, 1e-6F);
    for (std::int64_t row = 0; row < 4; ++row) {
        float mean = 0.0F;
        for (std::int64_t i = 0; i < 8; ++i) mean += y.at(row * 8 + i);
        EXPECT_NEAR(mean / 8.0F, 0.0F, 1e-4F);
    }
}

TEST(Softmax, RowsSumToOne)
{
    Rng rng(33);
    const Tensor x = Tensor::random_uniform({5, 7}, rng, -4.0F, 4.0F);
    const Tensor y = softmax(x);
    for (std::int64_t row = 0; row < 5; ++row) {
        float total = 0.0F;
        for (std::int64_t i = 0; i < 7; ++i) {
            EXPECT_GT(y.at(row * 7 + i), 0.0F);
            total += y.at(row * 7 + i);
        }
        EXPECT_NEAR(total, 1.0F, 1e-5F);
    }
}

TEST(Softmax, InvariantToRowShift)
{
    const Tensor x(Shape{1, 3}, {1, 2, 3});
    const Tensor shifted(Shape{1, 3}, {101, 102, 103});
    EXPECT_TRUE(Tensor::all_close(softmax(x), softmax(shifted), 1e-5F));
}

TEST(Reduce, SumAndMeanAlongAxis)
{
    const Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor s0 = reduce_sum(x, 0, false);
    EXPECT_EQ(s0.shape(), (Shape{3}));
    EXPECT_EQ(s0.values(), (std::vector<float>{5, 7, 9}));
    const Tensor m1 = reduce_mean(x, 1, true);
    EXPECT_EQ(m1.shape(), (Shape{2, 1}));
    EXPECT_EQ(m1.values(), (std::vector<float>{2, 5}));
}

TEST(Embedding, GathersRows)
{
    const Tensor table(Shape{3, 2}, {0, 1, 10, 11, 20, 21});
    const Tensor ids(Shape{2}, {2, 0});
    const Tensor y = embedding(ids, table);
    EXPECT_EQ(y.shape(), (Shape{2, 2}));
    EXPECT_EQ(y.values(), (std::vector<float>{20, 21, 0, 1}));
}

TEST(Embedding, OutOfRangeThrows)
{
    const Tensor table(Shape{3, 2});
    const Tensor ids(Shape{1}, {3});
    EXPECT_THROW(embedding(ids, table), Contract_violation);
}

TEST(Enlarge, PadsKernelCentred)
{
    const Tensor w(Shape{1, 1, 1, 1}, {7});
    const Tensor e = enlarge_kernel(w, 3, 3);
    EXPECT_EQ(e.shape(), (Shape{1, 1, 3, 3}));
    EXPECT_EQ(e.at(4), 7.0F);
    EXPECT_EQ(e.at(0), 0.0F);
}

TEST(Enlarge, EnlargedConvMatchesPaddedConv)
{
    // conv(x, w_1x1) == conv(x, enlarge(w, 3, 3)) with one extra pad.
    Rng rng(41);
    const Tensor x = Tensor::random_uniform({1, 2, 5, 5}, rng);
    const Tensor w = Tensor::random_uniform({3, 2, 1, 1}, rng);
    Conv2d_spec small;
    const Tensor y_small = conv2d(x, w, small);
    Conv2d_spec big;
    big.pad_h = big.pad_w = 1;
    const Tensor y_big = conv2d(x, enlarge_kernel(w, 3, 3), big);
    EXPECT_TRUE(Tensor::all_close(y_small, y_big, 1e-4F));
}

// Parameterised sweep: matmul and the backward pass's transposed product
// match the naive triple loop bit for bit across a family of shapes that
// reaches every kernel path (matrix-vector, column tiles and their tail).
class Matmul_shapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Matmul_shapes, MatchesNaiveTripleLoop)
{
    const auto [m, k, n] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
    const Tensor a = random_with_zeros({m, k}, rng);
    const Tensor b = random_with_zeros({k, n}, rng);
    const Tensor expected = naive_matmul(a, b);
    expect_bit_identical(matmul(a, b), expected);
    expect_bit_identical(matmul_tn(transpose_last2(a), b), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Matmul_shapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4}, std::tuple{5, 1, 7},
                      std::tuple{8, 8, 8}, std::tuple{3, 16, 2}, std::tuple{13, 7, 5},
                      std::tuple{1, 9, 1}, std::tuple{7, 32, 1},   // n == 1: attention score
                      std::tuple{37, 6, 1},                        // n == 1, row-tile tail
                      std::tuple{1, 5, 16}, std::tuple{1, 3, 40},  // m == 1
                      std::tuple{9, 16, 16}, std::tuple{5, 40, 16}, // one column tile
                      std::tuple{6, 16, 40}, std::tuple{3, 7, 33}, // column tiles + tail
                      std::tuple{11, 1, 32}, std::tuple{2, 0, 3}));

// Parameterised sweep: concat/split round-trips along every axis of a rank-3
// tensor.
class Concat_axis : public ::testing::TestWithParam<int> {};

TEST_P(Concat_axis, SplitOfConcatIsIdentity)
{
    const int axis = GetParam();
    Rng rng(static_cast<std::uint64_t>(axis + 100));
    Shape sa{2, 3, 4};
    Shape sb{2, 3, 4};
    sa[static_cast<std::size_t>(axis)] = 2;
    sb[static_cast<std::size_t>(axis)] = 5;
    const Tensor a = Tensor::random_uniform(sa, rng);
    const Tensor b = Tensor::random_uniform(sb, rng);
    const auto parts = split(concat({a, b}, axis), axis, {2, 5});
    EXPECT_TRUE(Tensor::all_close(parts[0], a, 0.0F));
    EXPECT_TRUE(Tensor::all_close(parts[1], b, 0.0F));
}

INSTANTIATE_TEST_SUITE_P(Axes, Concat_axis, ::testing::Values(0, 1, 2));

class Broadcast_paths : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(Broadcast_paths, EveryBinaryOpMatchesTheGenericWalk)
{
    const auto& [sa, sb] = GetParam();
    Rng rng(static_cast<std::uint64_t>(shape_volume(sa) * 31 + shape_volume(sb)));
    const Tensor a = random_with_zeros(sa, rng);
    const Tensor b = random_with_zeros(sb, rng);
    expect_bit_identical(add(a, b), reference_broadcast(a, b, [](float x, float y) { return x + y; }));
    expect_bit_identical(sub(a, b), reference_broadcast(a, b, [](float x, float y) { return x - y; }));
    expect_bit_identical(mul(a, b), reference_broadcast(a, b, [](float x, float y) { return x * y; }));
    expect_bit_identical(div(a, b), reference_broadcast(a, b, [](float x, float y) { return x / y; }));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Broadcast_paths,
    ::testing::Values(std::pair{Shape{5, 7}, Shape{5, 7}},       // same shape
                      std::pair{Shape{5, 7}, Shape{1, 7}},       // bias row
                      std::pair{Shape{1, 7}, Shape{5, 7}},       // row on the left
                      std::pair{Shape{6, 16}, Shape{6, 1}},      // GAT column
                      std::pair{Shape{6, 1}, Shape{6, 16}},      // column on the left
                      std::pair{Shape{5, 1}, Shape{1, 7}},       // outer product shape
                      std::pair{Shape{9, 1}, Shape{1, 1}},       // log-sum-exp shift
                      std::pair{Shape{4, 3}, Shape{1, 1}},       // 2-D scalar
                      std::pair{Shape{1, 7}, Shape{1, 1}},       // m == 1
                      std::pair{Shape{2, 3, 4}, Shape{3, 1}},    // rank 3: generic walk
                      std::pair{Shape{2, 3, 4}, Shape{1, 3, 4}}, // rank 3: generic walk
                      std::pair{Shape{5, 7}, Shape{7}}));        // mixed rank: generic walk

TEST(Broadcast_paths, ZeroRowOperandStillRejected)
{
    // [0,n] against [1,n]: the 2-D path must not read the empty operand.
    const Tensor empty(Shape{0, 4});
    const Tensor row(Shape{1, 4}, {1, 2, 3, 4});
    EXPECT_THROW(add(empty, row), Contract_violation);
}

TEST(Ewise, UnaryOpsMatchPerElementFunctions)
{
    Rng rng(40);
    const Tensor a = random_with_zeros({7, 9}, rng);
    const auto reference = [&a](const std::function<float(float)>& f) {
        Tensor out(a.shape());
        for (std::int64_t i = 0; i < a.volume(); ++i) out.at(i) = f(a.at(i));
        return out;
    };
    expect_bit_identical(relu(a), reference([](float x) { return x > 0.0F ? x : 0.0F; }));
    expect_bit_identical(leaky_relu(a, 0.2F), reference([](float x) { return x > 0.0F ? x : 0.2F * x; }));
    expect_bit_identical(exp_op(a), reference([](float x) { return std::exp(x); }));
    expect_bit_identical(scale(a, -1.5F), reference([](float x) { return -1.5F * x; }));
}

TEST(Matmul, BatchedMatchesNaivePerBatch)
{
    Rng rng(41);
    const Tensor a = random_with_zeros({3, 4, 5}, rng);
    const Tensor b = random_with_zeros({3, 5, 17}, rng);
    const Tensor shared = random_with_zeros({5, 1}, rng);
    const Tensor both = matmul(a, b);
    const Tensor broadcast = matmul(a, shared);
    for (std::int64_t bi = 0; bi < 3; ++bi) {
        const Tensor ai = slice(a, 0, bi, bi + 1).reshaped({4, 5});
        const Tensor bi_rhs = slice(b, 0, bi, bi + 1).reshaped({5, 17});
        expect_bit_identical(slice(both, 0, bi, bi + 1).reshaped({4, 17}), naive_matmul(ai, bi_rhs));
        expect_bit_identical(slice(broadcast, 0, bi, bi + 1).reshaped({4, 1}), naive_matmul(ai, shared));
    }
}

TEST(Matmul, ZeroTermsAreSkippedNotAdded)
{
    // 0 * inf would be NaN: a zero left factor must drop its term entirely,
    // on every path (tiled, remainder, matrix-vector, transposed).
    const float inf = std::numeric_limits<float>::infinity();
    const Tensor a(Shape{5, 2}, {0.0F, 1.0F, 2.0F, 0.0F, 0.0F, 3.0F, -0.0F, 1.0F, 1.0F, 1.0F});
    for (const std::int64_t n : {std::int64_t{1}, std::int64_t{3}, std::int64_t{17}}) {
        Tensor b(Shape{2, n});
        for (std::int64_t j = 0; j < n; ++j) {
            b.at(j) = inf;
            b.at(n + j) = 0.5F;
        }
        const Tensor expected = naive_matmul(a, b);
        EXPECT_FALSE(std::isnan(expected.at(0)));
        expect_bit_identical(matmul(a, b), expected);
        expect_bit_identical(matmul_tn(transpose_last2(a), b), expected);
    }
}

TEST(Matmul, TransposedFormChecksShapes)
{
    const Tensor a(Shape{2, 3});
    const Tensor b(Shape{4, 2});
    EXPECT_THROW(matmul_tn(a, b), Contract_violation);
    EXPECT_THROW(matmul_tn(Tensor(Shape{4, 3, 1}), b), Contract_violation);
}

TEST(Transpose, Last2MatchesGenericPermutation)
{
    Rng rng(42);
    const Tensor m2 = random_with_zeros({5, 3}, rng);
    expect_bit_identical(transpose_last2(m2), transpose(m2, {1, 0}));
    const Tensor m3 = random_with_zeros({2, 4, 3}, rng);
    expect_bit_identical(transpose_last2(m3), transpose(m3, {0, 2, 1}));
    EXPECT_EQ(transpose_last2(Tensor(Shape{3, 0})).shape(), (Shape{0, 3}));
}

TEST(Reduce, SumMatchesNaiveLoopOnEveryAxis)
{
    Rng rng(43);
    const Tensor t = random_with_zeros({3, 4, 5}, rng);
    for (std::int64_t axis = 0; axis < 3; ++axis) {
        const Tensor got = reduce_sum(t, axis, /*keep_dim=*/true);
        Shape out_shape = t.shape();
        out_shape[static_cast<std::size_t>(axis)] = 1;
        Tensor expected(out_shape);
        for (std::int64_t flat = 0; flat < t.volume(); ++flat) {
            const std::int64_t i2 = flat % 5;
            const std::int64_t i1 = (flat / 5) % 4;
            const std::int64_t i0 = flat / 20;
            const std::int64_t o0 = axis == 0 ? 0 : i0;
            const std::int64_t o1 = axis == 1 ? 0 : i1;
            const std::int64_t o2 = axis == 2 ? 0 : i2;
            expected.at((o0 * out_shape[1] + o1) * out_shape[2] + o2) += t.at(flat);
        }
        expect_bit_identical(got, expected);
    }
}

} // namespace
} // namespace xrl
