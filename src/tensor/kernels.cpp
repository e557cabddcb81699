#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.h"

namespace xrl {

namespace {

// Strides of a row-major shape.
std::vector<std::int64_t> strides_of(const Shape& shape)
{
    std::vector<std::int64_t> strides(shape.size(), 1);
    for (std::int64_t i = static_cast<std::int64_t>(shape.size()) - 2; i >= 0; --i)
        strides[static_cast<std::size_t>(i)] =
            strides[static_cast<std::size_t>(i + 1)] * shape[static_cast<std::size_t>(i + 1)];
    return strides;
}

// Flat index into a tensor broadcast up to `out_shape`, given the
// multi-index `index` into the output.
std::int64_t broadcast_flat_index(const Shape& in_shape, const std::vector<std::int64_t>& in_strides,
                                  const std::vector<std::int64_t>& index, std::size_t out_rank)
{
    const std::size_t offset = out_rank - in_shape.size();
    std::int64_t flat = 0;
    for (std::size_t axis = 0; axis < in_shape.size(); ++axis) {
        const std::int64_t extent = in_shape[axis];
        const std::int64_t i = extent == 1 ? 0 : index[axis + offset];
        flat += i * in_strides[axis];
    }
    return flat;
}

void advance_index(std::vector<std::int64_t>& index, const Shape& shape)
{
    for (std::int64_t axis = static_cast<std::int64_t>(shape.size()) - 1; axis >= 0; --axis) {
        auto& i = index[static_cast<std::size_t>(axis)];
        if (++i < shape[static_cast<std::size_t>(axis)]) return;
        i = 0;
    }
}

} // namespace

Shape broadcast_shapes(const Shape& a, const Shape& b)
{
    const std::size_t rank = std::max(a.size(), b.size());
    Shape out(rank, 1);
    for (std::size_t i = 0; i < rank; ++i) {
        const std::int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
        const std::int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
        XRL_EXPECTS(da == db || da == 1 || db == 1);
        out[i] = std::max(da, db);
    }
    return out;
}

namespace {

// The one elementwise driver behind every binary op. Each output element is
// f(a[ia], b[ib]) on exactly the operands the generic broadcast walk picks;
// the flat paths only drop the index bookkeeping, so results are identical
// bit for bit whichever path runs.
template <typename F>
Tensor broadcast_binary(const Tensor& a, const Tensor& b, F f)
{
    const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
    Tensor out(out_shape);
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    if (a.shape() == b.shape()) {
        for (std::int64_t i = 0; i < out.volume(); ++i) po[i] = f(pa[i], pb[i]);
        return out;
    }
    if (a.rank() == 2 && b.rank() == 2 && a.volume() > 0 && b.volume() > 0) {
        // Any 2-D broadcast: an operand of extent 1 along an axis gets
        // stride 0 there. Covers the bias row [1,n] and the GAT column [m,1].
        const std::int64_t m = out_shape[0];
        const std::int64_t n = out_shape[1];
        const std::int64_t a_row = a.dim(0) == 1 ? 0 : a.dim(1);
        const std::int64_t b_row = b.dim(0) == 1 ? 0 : b.dim(1);
        const bool a_cols = a.dim(1) != 1;
        const bool b_cols = b.dim(1) != 1;
        for (std::int64_t i = 0; i < m; ++i) {
            const float* ra = pa + i * a_row;
            const float* rb = pb + i * b_row;
            float* ro = po + i * n;
            if (a_cols && b_cols) {
                for (std::int64_t j = 0; j < n; ++j) ro[j] = f(ra[j], rb[j]);
            } else if (a_cols) {
                const float y = rb[0];
                for (std::int64_t j = 0; j < n; ++j) ro[j] = f(ra[j], y);
            } else if (b_cols) {
                const float x = ra[0];
                for (std::int64_t j = 0; j < n; ++j) ro[j] = f(x, rb[j]);
            } else { // both [m,1] or [1,1]: n == 1
                ro[0] = f(ra[0], rb[0]);
            }
        }
        return out;
    }
    // Generic multi-index walk for every other broadcast.
    const auto sa = strides_of(a.shape());
    const auto sb = strides_of(b.shape());
    std::vector<std::int64_t> index(out_shape.size(), 0);
    for (std::int64_t flat = 0; flat < out.volume(); ++flat) {
        const std::int64_t ia = broadcast_flat_index(a.shape(), sa, index, out_shape.size());
        const std::int64_t ib = broadcast_flat_index(b.shape(), sb, index, out_shape.size());
        po[flat] = f(a.at(ia), b.at(ib));
        advance_index(index, out_shape);
    }
    return out;
}

template <typename F>
Tensor map_unary(const Tensor& a, F f)
{
    Tensor out(a.shape());
    const float* pa = a.data();
    float* po = out.data();
    for (std::int64_t i = 0; i < a.volume(); ++i) po[i] = f(pa[i]);
    return out;
}

} // namespace

Tensor add(const Tensor& a, const Tensor& b) { return broadcast_binary(a, b, [](float x, float y) { return x + y; }); }
Tensor sub(const Tensor& a, const Tensor& b) { return broadcast_binary(a, b, [](float x, float y) { return x - y; }); }
Tensor mul(const Tensor& a, const Tensor& b) { return broadcast_binary(a, b, [](float x, float y) { return x * y; }); }
Tensor div(const Tensor& a, const Tensor& b) { return broadcast_binary(a, b, [](float x, float y) { return x / y; }); }

Tensor relu(const Tensor& a) { return map_unary(a, [](float x) { return x > 0.0F ? x : 0.0F; }); }

Tensor leaky_relu(const Tensor& a, float negative_slope)
{
    return map_unary(a, [negative_slope](float x) { return x > 0.0F ? x : negative_slope * x; });
}

Tensor gelu(const Tensor& a)
{
    return map_unary(a, [](float x) {
        return 0.5F * x * (1.0F + std::erf(x / 1.41421356237F));
    });
}

Tensor sigmoid(const Tensor& a)
{
    return map_unary(a, [](float x) { return 1.0F / (1.0F + std::exp(-x)); });
}

Tensor tanh_op(const Tensor& a) { return map_unary(a, [](float x) { return std::tanh(x); }); }
Tensor exp_op(const Tensor& a) { return map_unary(a, [](float x) { return std::exp(x); }); }
Tensor sqrt_op(const Tensor& a) { return map_unary(a, [](float x) { return std::sqrt(x); }); }
Tensor erf_op(const Tensor& a) { return map_unary(a, [](float x) { return std::erf(x); }); }

Tensor scale(const Tensor& a, float factor)
{
    return map_unary(a, [factor](float x) { return factor * x; });
}

namespace {

// A row-major operand read through strides: element (i, kk) of the left
// factor is at[i * row + kk * col]. matmul reads a as stored (row = k,
// col = 1); matmul_tn reads the transpose of its stored a (row = 1,
// col = m) without copying it.
struct Strided {
    const float* at;
    std::int64_t row;
    std::int64_t col;
};

// Writes to `index` each kk < k where a(i, kk) != 0 and returns how many,
// without a data-dependent branch (relu outputs are zero at random, which
// a branch would mispredict).
std::int64_t gather_nonzero(const Strided& a, std::int64_t i, std::int64_t k, std::int64_t* index)
{
    std::int64_t count = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
        index[count] = kk;
        count += a.at[i * a.row + kk * a.col] != 0.0F ? 1 : 0;
    }
    return count;
}

// `sum` where av != 0, else `old`: the term of a zero av never enters the
// sum. A bitwise select rather than ?: so that loops over it vectorise (the
// compiler keeps a float ?: as a branch).
float keep_if_nonzero(float av, float sum, float old)
{
    const std::uint32_t keep = av != 0.0F ? ~0U : 0U;
    return std::bit_cast<float>((std::bit_cast<std::uint32_t>(sum) & keep) |
                                (std::bit_cast<std::uint32_t>(old) & ~keep));
}

// Register tile width (output columns, or rows for a matrix-vector product).
constexpr std::int64_t tile = 16;

// out (m x n) = a (m x k) * b (k x n), b and out row-major. Every output
// element sums av * bv over kk in ascending order, skipping av == 0,
// starting from +0.0F — the order of the naive i-k-j loop. A skipped term
// is never added (not even as a zero), so the result is the same for every
// input, inf and NaN included.
void matmul_block(const Strided& a, const float* b, float* out, std::int64_t m, std::int64_t k,
                  std::int64_t n)
{
    if (n == 1) { // matrix-vector (the GAT attention score and its gradient)
        // A tile of rows copied column by column, so their running sums sit
        // side by side and the sweep over k vectorises across them. The
        // scratch is a Tensor so that, in the backward pass (k rows of an
        // activation, k x 16 floats), a thread with a Storage_recycler
        // installed reuses it rather than mapping it fresh on every call.
        Tensor column_scratch(Shape{k * tile});
        float* const columns = column_scratch.data();
        for (std::int64_t i0 = 0; i0 < m; i0 += tile) {
            const std::int64_t rows = std::min(tile, m - i0);
            for (std::int64_t kk = 0; kk < k; ++kk)
                for (std::int64_t r = 0; r < rows; ++r)
                    columns[kk * tile + r] = a.at[(i0 + r) * a.row + kk * a.col];
            float acc[tile] = {};
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float* col = columns + kk * tile;
                for (std::int64_t r = 0; r < rows; ++r)
                    acc[r] = keep_if_nonzero(col[r], acc[r] + col[r] * b[kk], acc[r]);
            }
            std::copy(acc, acc + rows, out + i0);
        }
        return;
    }
    // Per row of a: gather the nonzero columns, then sweep them over output
    // tiles of `tile` columns held in registers (the remainder goes straight
    // to memory).
    std::vector<std::int64_t> nonzero(static_cast<std::size_t>(k));
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int64_t count = gather_nonzero(a, i, k, nonzero.data());
        const float* arow = a.at + i * a.row;
        float* orow = out + i * n;
        std::int64_t j0 = 0;
        for (; j0 + tile <= n; j0 += tile) {
            float acc[tile] = {};
            for (std::int64_t c = 0; c < count; ++c) {
                const std::int64_t kk = nonzero[static_cast<std::size_t>(c)];
                const float av = arow[kk * a.col];
                const float* brow = b + kk * n + j0;
                for (std::int64_t j = 0; j < tile; ++j) acc[j] += av * brow[j];
            }
            std::copy(acc, acc + tile, orow + j0);
        }
        for (std::int64_t c = 0; c < count && j0 < n; ++c) {
            const std::int64_t kk = nonzero[static_cast<std::size_t>(c)];
            const float av = arow[kk * a.col];
            const float* brow = b + kk * n;
            for (std::int64_t j = j0; j < n; ++j) orow[j] += av * brow[j];
        }
    }
}

} // namespace

Tensor matmul(const Tensor& a, const Tensor& b)
{
    XRL_EXPECTS(a.rank() >= 2 && b.rank() >= 2);
    if (a.rank() == 2 && b.rank() == 2) {
        const std::int64_t m = a.dim(0);
        const std::int64_t k = a.dim(1);
        XRL_EXPECTS(b.dim(0) == k);
        const std::int64_t n = b.dim(1);
        Tensor out(Shape{m, n});
        matmul_block({a.data(), k, 1}, b.data(), out.data(), m, k, n);
        return out;
    }
    // Batched: flatten leading axes of `a` into a batch; `b` is either
    // batched identically or broadcast.
    XRL_EXPECTS(a.rank() == 3);
    const std::int64_t batch = a.dim(0);
    const std::int64_t m = a.dim(1);
    const std::int64_t k = a.dim(2);
    std::int64_t n = 0;
    const bool b_batched = b.rank() == 3;
    if (b_batched) {
        XRL_EXPECTS(b.dim(0) == batch && b.dim(1) == k);
        n = b.dim(2);
    } else {
        XRL_EXPECTS(b.rank() == 2 && b.dim(0) == k);
        n = b.dim(1);
    }
    Tensor out(Shape{batch, m, n});
    for (std::int64_t bi = 0; bi < batch; ++bi)
        matmul_block({a.data() + bi * m * k, k, 1}, b.data() + (b_batched ? bi * k * n : 0),
                     out.data() + bi * m * n, m, k, n);
    return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b)
{
    XRL_EXPECTS(a.rank() == 2 && b.rank() == 2);
    const std::int64_t k = a.dim(0);
    const std::int64_t m = a.dim(1);
    XRL_EXPECTS(b.dim(0) == k);
    const std::int64_t n = b.dim(1);
    Tensor out(Shape{m, n});
    matmul_block({a.data(), 1, m}, b.data(), out.data(), m, k, n);
    return out;
}

Tensor transpose(const Tensor& a, const std::vector<std::int64_t>& perm)
{
    XRL_EXPECTS(static_cast<std::int64_t>(perm.size()) == a.rank());
    Shape out_shape(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        out_shape[i] = a.dim(perm[i]);
    Tensor out(out_shape);
    const auto in_strides = strides_of(a.shape());
    std::vector<std::int64_t> index(out_shape.size(), 0);
    for (std::int64_t flat = 0; flat < out.volume(); ++flat) {
        std::int64_t src = 0;
        for (std::size_t i = 0; i < perm.size(); ++i)
            src += index[i] * in_strides[static_cast<std::size_t>(perm[i])];
        out.at(flat) = a.at(src);
        advance_index(index, out_shape);
    }
    return out;
}

Tensor transpose_last2(const Tensor& a)
{
    XRL_EXPECTS(a.rank() >= 2);
    Shape out_shape = a.shape();
    std::swap(out_shape[out_shape.size() - 1], out_shape[out_shape.size() - 2]);
    Tensor out(out_shape);
    const std::int64_t m = a.dim(a.rank() - 2);
    const std::int64_t n = a.dim(a.rank() - 1);
    const std::int64_t batch = m * n == 0 ? 0 : a.volume() / (m * n);
    for (std::int64_t bi = 0; bi < batch; ++bi) {
        const float* src = a.data() + bi * m * n;
        float* dst = out.data() + bi * m * n;
        for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
    }
    return out;
}

Tensor concat(const std::vector<Tensor>& parts, std::int64_t axis)
{
    XRL_EXPECTS(!parts.empty());
    const std::int64_t rank = parts.front().rank();
    XRL_EXPECTS(axis >= 0 && axis < rank);
    Shape out_shape = parts.front().shape();
    std::int64_t total = 0;
    for (const Tensor& p : parts) {
        XRL_EXPECTS(p.rank() == rank);
        for (std::int64_t d = 0; d < rank; ++d)
            if (d != axis) XRL_EXPECTS(p.dim(d) == out_shape[static_cast<std::size_t>(d)]);
        total += p.dim(axis);
    }
    out_shape[static_cast<std::size_t>(axis)] = total;

    // Views as (outer, axis_extent, inner).
    std::int64_t outer = 1;
    for (std::int64_t d = 0; d < axis; ++d) outer *= out_shape[static_cast<std::size_t>(d)];
    std::int64_t inner = 1;
    for (std::int64_t d = axis + 1; d < rank; ++d) inner *= out_shape[static_cast<std::size_t>(d)];

    Tensor out(out_shape);
    std::int64_t axis_offset = 0;
    for (const Tensor& p : parts) {
        const std::int64_t extent = p.dim(axis);
        for (std::int64_t o = 0; o < outer; ++o) {
            const float* src = p.data() + o * extent * inner;
            float* dst = out.data() + (o * total + axis_offset) * inner;
            std::copy(src, src + extent * inner, dst);
        }
        axis_offset += extent;
    }
    return out;
}

std::vector<Tensor> split(const Tensor& a, std::int64_t axis, const std::vector<std::int64_t>& sizes)
{
    XRL_EXPECTS(axis >= 0 && axis < a.rank());
    std::int64_t total = 0;
    for (const std::int64_t s : sizes) total += s;
    XRL_EXPECTS(total == a.dim(axis));

    std::vector<Tensor> out;
    out.reserve(sizes.size());
    std::int64_t begin = 0;
    for (const std::int64_t s : sizes) {
        out.push_back(slice(a, axis, begin, begin + s));
        begin += s;
    }
    return out;
}

Tensor slice(const Tensor& a, std::int64_t axis, std::int64_t begin, std::int64_t end)
{
    XRL_EXPECTS(axis >= 0 && axis < a.rank());
    XRL_EXPECTS(begin >= 0 && begin <= end && end <= a.dim(axis));
    Shape out_shape = a.shape();
    out_shape[static_cast<std::size_t>(axis)] = end - begin;

    std::int64_t outer = 1;
    for (std::int64_t d = 0; d < axis; ++d) outer *= a.dim(d);
    std::int64_t inner = 1;
    for (std::int64_t d = axis + 1; d < a.rank(); ++d) inner *= a.dim(d);
    const std::int64_t in_extent = a.dim(axis);
    const std::int64_t out_extent = end - begin;

    Tensor out(out_shape);
    for (std::int64_t o = 0; o < outer; ++o) {
        const float* src = a.data() + (o * in_extent + begin) * inner;
        float* dst = out.data() + o * out_extent * inner;
        std::copy(src, src + out_extent * inner, dst);
    }
    return out;
}

Tensor pad(const Tensor& a, const std::vector<std::int64_t>& before, const std::vector<std::int64_t>& after)
{
    XRL_EXPECTS(static_cast<std::int64_t>(before.size()) == a.rank());
    XRL_EXPECTS(static_cast<std::int64_t>(after.size()) == a.rank());
    Shape out_shape = a.shape();
    for (std::size_t i = 0; i < out_shape.size(); ++i) {
        XRL_EXPECTS(before[i] >= 0 && after[i] >= 0);
        out_shape[i] += before[i] + after[i];
    }
    Tensor out(out_shape);
    const auto out_strides = strides_of(out_shape);
    std::vector<std::int64_t> index(a.shape().size(), 0);
    for (std::int64_t flat = 0; flat < a.volume(); ++flat) {
        std::int64_t dst = 0;
        for (std::size_t i = 0; i < index.size(); ++i) dst += (index[i] + before[i]) * out_strides[i];
        out.at(dst) = a.at(flat);
        advance_index(index, a.shape());
    }
    return out;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Conv2d_spec& spec)
{
    XRL_EXPECTS(input.rank() == 4 && weight.rank() == 4);
    const std::int64_t n = input.dim(0);
    const std::int64_t c = input.dim(1);
    const std::int64_t h = input.dim(2);
    const std::int64_t w = input.dim(3);
    const std::int64_t k = weight.dim(0);
    const std::int64_t cg = weight.dim(1);
    const std::int64_t r = weight.dim(2);
    const std::int64_t s = weight.dim(3);
    const std::int64_t groups = spec.groups;
    XRL_EXPECTS(groups >= 1 && c % groups == 0 && k % groups == 0);
    XRL_EXPECTS(cg == c / groups);

    const std::int64_t oh = (h + 2 * spec.pad_h - r) / spec.stride_h + 1;
    const std::int64_t ow = (w + 2 * spec.pad_w - s) / spec.stride_w + 1;
    XRL_EXPECTS(oh > 0 && ow > 0);

    Tensor out(Shape{n, k, oh, ow});
    const std::int64_t k_per_group = k / groups;
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ki = 0; ki < k; ++ki) {
            const std::int64_t g = ki / k_per_group;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    float acc = 0.0F;
                    for (std::int64_t ci = 0; ci < cg; ++ci) {
                        const std::int64_t in_c = g * cg + ci;
                        for (std::int64_t ry = 0; ry < r; ++ry) {
                            const std::int64_t iy = oy * spec.stride_h + ry - spec.pad_h;
                            if (iy < 0 || iy >= h) continue;
                            for (std::int64_t sx = 0; sx < s; ++sx) {
                                const std::int64_t ix = ox * spec.stride_w + sx - spec.pad_w;
                                if (ix < 0 || ix >= w) continue;
                                const float iv = input.at(((ni * c + in_c) * h + iy) * w + ix);
                                const float wv = weight.at(((ki * cg + ci) * r + ry) * s + sx);
                                acc += iv * wv;
                            }
                        }
                    }
                    out.at(((ni * k + ki) * oh + oy) * ow + ox) = acc;
                }
            }
        }
    }
    return out;
}

namespace {

template <typename Reduce>
Tensor pool2d(const Tensor& input, const Pool2d_spec& spec, float init, Reduce reduce, bool average)
{
    XRL_EXPECTS(input.rank() == 4);
    const std::int64_t n = input.dim(0);
    const std::int64_t c = input.dim(1);
    const std::int64_t h = input.dim(2);
    const std::int64_t w = input.dim(3);
    const std::int64_t oh = (h + 2 * spec.pad_h - spec.kernel_h) / spec.stride_h + 1;
    const std::int64_t ow = (w + 2 * spec.pad_w - spec.kernel_w) / spec.stride_w + 1;
    XRL_EXPECTS(oh > 0 && ow > 0);

    Tensor out(Shape{n, c, oh, ow});
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
            for (std::int64_t oy = 0; oy < oh; ++oy) {
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    float acc = init;
                    std::int64_t count = 0;
                    for (std::int64_t ry = 0; ry < spec.kernel_h; ++ry) {
                        const std::int64_t iy = oy * spec.stride_h + ry - spec.pad_h;
                        if (iy < 0 || iy >= h) continue;
                        for (std::int64_t sx = 0; sx < spec.kernel_w; ++sx) {
                            const std::int64_t ix = ox * spec.stride_w + sx - spec.pad_w;
                            if (ix < 0 || ix >= w) continue;
                            acc = reduce(acc, input.at(((ni * c + ci) * h + iy) * w + ix));
                            ++count;
                        }
                    }
                    if (average && count > 0) acc /= static_cast<float>(count);
                    out.at(((ni * c + ci) * oh + oy) * ow + ox) = acc;
                }
            }
        }
    }
    return out;
}

} // namespace

Tensor max_pool2d(const Tensor& input, const Pool2d_spec& spec)
{
    return pool2d(
        input, spec, -std::numeric_limits<float>::infinity(),
        [](float a, float b) { return std::max(a, b); }, /*average=*/false);
}

Tensor avg_pool2d(const Tensor& input, const Pool2d_spec& spec)
{
    return pool2d(
        input, spec, 0.0F, [](float a, float b) { return a + b; }, /*average=*/true);
}

Tensor global_avg_pool(const Tensor& input)
{
    XRL_EXPECTS(input.rank() == 4);
    const std::int64_t n = input.dim(0);
    const std::int64_t c = input.dim(1);
    const std::int64_t spatial = input.dim(2) * input.dim(3);
    Tensor out(Shape{n, c, 1, 1});
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
            float acc = 0.0F;
            const float* base = input.data() + (ni * c + ci) * spatial;
            for (std::int64_t i = 0; i < spatial; ++i) acc += base[i];
            out.at(ni * c + ci) = acc / static_cast<float>(spatial);
        }
    }
    return out;
}

Tensor batch_norm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                  const Tensor& mean, const Tensor& variance, float epsilon)
{
    XRL_EXPECTS(input.rank() == 4);
    const std::int64_t c = input.dim(1);
    XRL_EXPECTS(gamma.volume() == c && beta.volume() == c && mean.volume() == c && variance.volume() == c);
    Tensor out(input.shape());
    const std::int64_t n = input.dim(0);
    const std::int64_t spatial = input.dim(2) * input.dim(3);
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
            const float inv = 1.0F / std::sqrt(variance.at(ci) + epsilon);
            const float g = gamma.at(ci) * inv;
            const float b = beta.at(ci) - mean.at(ci) * g;
            const float* src = input.data() + (ni * c + ci) * spatial;
            float* dst = out.data() + (ni * c + ci) * spatial;
            for (std::int64_t i = 0; i < spatial; ++i) dst[i] = src[i] * g + b;
        }
    }
    return out;
}

Tensor layer_norm(const Tensor& input, const Tensor& gamma, const Tensor& beta, float epsilon)
{
    XRL_EXPECTS(input.rank() >= 1);
    const std::int64_t width = input.dim(input.rank() - 1);
    XRL_EXPECTS(gamma.volume() == width && beta.volume() == width);
    const std::int64_t rows = input.volume() / width;
    Tensor out(input.shape());
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* src = input.data() + row * width;
        float* dst = out.data() + row * width;
        float mean = 0.0F;
        for (std::int64_t i = 0; i < width; ++i) mean += src[i];
        mean /= static_cast<float>(width);
        float var = 0.0F;
        for (std::int64_t i = 0; i < width; ++i) var += (src[i] - mean) * (src[i] - mean);
        var /= static_cast<float>(width);
        const float inv = 1.0F / std::sqrt(var + epsilon);
        for (std::int64_t i = 0; i < width; ++i)
            dst[i] = (src[i] - mean) * inv * gamma.at(i) + beta.at(i);
    }
    return out;
}

Tensor softmax(const Tensor& input)
{
    XRL_EXPECTS(input.rank() >= 1);
    const std::int64_t width = input.dim(input.rank() - 1);
    const std::int64_t rows = input.volume() / width;
    Tensor out(input.shape());
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* src = input.data() + row * width;
        float* dst = out.data() + row * width;
        float max_v = -std::numeric_limits<float>::infinity();
        for (std::int64_t i = 0; i < width; ++i) max_v = std::max(max_v, src[i]);
        float total = 0.0F;
        for (std::int64_t i = 0; i < width; ++i) {
            dst[i] = std::exp(src[i] - max_v);
            total += dst[i];
        }
        for (std::int64_t i = 0; i < width; ++i) dst[i] /= total;
    }
    return out;
}

namespace {

Tensor reduce_axis(const Tensor& input, std::int64_t axis, bool keep_dim, bool mean)
{
    XRL_EXPECTS(axis >= 0 && axis < input.rank());
    Shape out_shape;
    for (std::int64_t d = 0; d < input.rank(); ++d) {
        if (d == axis) {
            if (keep_dim) out_shape.push_back(1);
        } else {
            out_shape.push_back(input.dim(d));
        }
    }
    std::int64_t outer = 1;
    for (std::int64_t d = 0; d < axis; ++d) outer *= input.dim(d);
    std::int64_t inner = 1;
    for (std::int64_t d = axis + 1; d < input.rank(); ++d) inner *= input.dim(d);
    const std::int64_t extent = input.dim(axis);

    Tensor out(out_shape);
    const float* src = input.data();
    float* dst = out.data();
    for (std::int64_t o = 0; o < outer; ++o) {
        for (std::int64_t i = 0; i < inner; ++i) {
            float acc = 0.0F;
            for (std::int64_t e = 0; e < extent; ++e) acc += src[(o * extent + e) * inner + i];
            if (mean) acc /= static_cast<float>(extent);
            dst[o * inner + i] = acc;
        }
    }
    return out;
}

} // namespace

Tensor reduce_sum(const Tensor& input, std::int64_t axis, bool keep_dim)
{
    return reduce_axis(input, axis, keep_dim, /*mean=*/false);
}

Tensor reduce_mean(const Tensor& input, std::int64_t axis, bool keep_dim)
{
    return reduce_axis(input, axis, keep_dim, /*mean=*/true);
}

Tensor embedding(const Tensor& ids, const Tensor& table)
{
    XRL_EXPECTS(table.rank() == 2);
    const std::int64_t rows = table.dim(0);
    const std::int64_t width = table.dim(1);
    Shape out_shape = ids.shape();
    out_shape.push_back(width);
    Tensor out(out_shape);
    for (std::int64_t i = 0; i < ids.volume(); ++i) {
        const auto row = static_cast<std::int64_t>(ids.at(i));
        XRL_EXPECTS(row >= 0 && row < rows);
        const float* src = table.data() + row * width;
        std::copy(src, src + width, out.data() + i * width);
    }
    return out;
}

Tensor enlarge_kernel(const Tensor& weight, std::int64_t target_r, std::int64_t target_s)
{
    XRL_EXPECTS(weight.rank() == 4);
    const std::int64_t r = weight.dim(2);
    const std::int64_t s = weight.dim(3);
    XRL_EXPECTS(target_r >= r && target_s >= s);
    XRL_EXPECTS((target_r - r) % 2 == 0 && (target_s - s) % 2 == 0);
    const std::int64_t pr = (target_r - r) / 2;
    const std::int64_t ps = (target_s - s) / 2;
    return pad(weight, {0, 0, pr, ps}, {0, 0, pr, ps});
}

} // namespace xrl
