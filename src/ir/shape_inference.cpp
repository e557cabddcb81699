#include "ir/shape_inference.h"

#include <algorithm>

#include "support/check.h"
#include "tensor/kernels.h"

namespace xrl {

namespace {

const Shape& in_shape(const Graph_reader& g, const Node& n, std::size_t slot)
{
    XRL_EXPECTS(slot < n.inputs.size());
    return g.shape_of(n.inputs[slot]);
}

std::vector<Shape> infer_matmul(const Graph_reader& g, const Node& n)
{
    XRL_EXPECTS(n.inputs.size() == 2);
    const Shape& a = in_shape(g, n, 0);
    const Shape& b = in_shape(g, n, 1);
    if (a.size() == 2 && b.size() == 2) {
        XRL_EXPECTS(a[1] == b[0]);
        return {Shape{a[0], b[1]}};
    }
    XRL_EXPECTS(a.size() == 3);
    if (b.size() == 3) {
        XRL_EXPECTS(a[0] == b[0] && a[2] == b[1]);
        return {Shape{a[0], a[1], b[2]}};
    }
    XRL_EXPECTS(b.size() == 2 && a[2] == b[0]);
    return {Shape{a[0], a[1], b[1]}};
}

std::vector<Shape> infer_conv2d(const Graph_reader& g, const Node& n)
{
    XRL_EXPECTS(n.inputs.size() == 2);
    const Shape& x = in_shape(g, n, 0);
    const Shape& w = in_shape(g, n, 1);
    XRL_EXPECTS(x.size() == 4 && w.size() == 4);
    const Op_params& p = *n.params;
    XRL_EXPECTS(p.groups >= 1);
    XRL_EXPECTS(x[1] % p.groups == 0);
    XRL_EXPECTS(w[1] == x[1] / p.groups);
    XRL_EXPECTS(w[0] % p.groups == 0);
    const std::int64_t oh = (x[2] + 2 * p.pad_h - w[2]) / p.stride_h + 1;
    const std::int64_t ow = (x[3] + 2 * p.pad_w - w[3]) / p.stride_w + 1;
    XRL_EXPECTS(oh > 0 && ow > 0);
    return {Shape{x[0], w[0], oh, ow}};
}

std::vector<Shape> infer_pool(const Graph_reader& g, const Node& n)
{
    XRL_EXPECTS(n.inputs.size() == 1);
    const Shape& x = in_shape(g, n, 0);
    XRL_EXPECTS(x.size() == 4);
    const Op_params& p = *n.params;
    XRL_EXPECTS(p.kernel_h > 0 && p.kernel_w > 0);
    const std::int64_t oh = (x[2] + 2 * p.pad_h - p.kernel_h) / p.stride_h + 1;
    const std::int64_t ow = (x[3] + 2 * p.pad_w - p.kernel_w) / p.stride_w + 1;
    XRL_EXPECTS(oh > 0 && ow > 0);
    return {Shape{x[0], x[1], oh, ow}};
}

} // namespace

bool keeps_existing_shapes(const Node& n)
{
    return (n.kind == Op_kind::input || n.kind == Op_kind::weight) && !n.output_shapes.empty();
}

std::vector<Shape> infer_output_shapes(const Graph_reader& g, Node_id id)
{
    const Node& n = g.node(id);
    switch (n.kind) {
    case Op_kind::input:
    case Op_kind::weight:
        // Source shapes are assigned at construction time.
        XRL_EXPECTS(!n.output_shapes.empty());
        return n.output_shapes.to_vector();

    case Op_kind::constant:
        XRL_EXPECTS(n.payload != nullptr);
        return {n.payload->shape()};

    case Op_kind::matmul:
        return infer_matmul(g, n);

    case Op_kind::conv2d:
        return infer_conv2d(g, n);

    case Op_kind::relu:
    case Op_kind::leaky_relu:
    case Op_kind::gelu:
    case Op_kind::sigmoid:
    case Op_kind::tanh:
    case Op_kind::exp:
    case Op_kind::sqrt:
    case Op_kind::erf:
    case Op_kind::identity:
    case Op_kind::dropout:
    case Op_kind::scale:
    case Op_kind::softmax:
        XRL_EXPECTS(n.inputs.size() == 1);
        return {in_shape(g, n, 0)};

    case Op_kind::add:
    case Op_kind::sub:
    case Op_kind::mul:
    case Op_kind::div:
        XRL_EXPECTS(n.inputs.size() == 2);
        return {broadcast_shapes(in_shape(g, n, 0), in_shape(g, n, 1))};

    case Op_kind::max_pool2d:
    case Op_kind::avg_pool2d:
        return infer_pool(g, n);

    case Op_kind::global_avg_pool: {
        XRL_EXPECTS(n.inputs.size() == 1);
        const Shape& x = in_shape(g, n, 0);
        XRL_EXPECTS(x.size() == 4);
        return {Shape{x[0], x[1], 1, 1}};
    }

    case Op_kind::batch_norm: {
        XRL_EXPECTS(n.inputs.size() == 5);
        const Shape& x = in_shape(g, n, 0);
        XRL_EXPECTS(x.size() == 4);
        for (std::size_t slot = 1; slot < 5; ++slot)
            XRL_EXPECTS(shape_volume(in_shape(g, n, slot)) == x[1]);
        return {x};
    }

    case Op_kind::layer_norm: {
        XRL_EXPECTS(n.inputs.size() == 3);
        const Shape& x = in_shape(g, n, 0);
        XRL_EXPECTS(!x.empty());
        const std::int64_t width = x.back();
        XRL_EXPECTS(shape_volume(in_shape(g, n, 1)) == width);
        XRL_EXPECTS(shape_volume(in_shape(g, n, 2)) == width);
        return {x};
    }

    case Op_kind::concat: {
        XRL_EXPECTS(!n.inputs.empty());
        Shape out = in_shape(g, n, 0);
        const std::int64_t axis = n.params->axis;
        XRL_EXPECTS(axis >= 0 && axis < static_cast<std::int64_t>(out.size()));
        for (std::size_t slot = 1; slot < n.inputs.size(); ++slot) {
            const Shape& s = in_shape(g, n, slot);
            XRL_EXPECTS(s.size() == out.size());
            for (std::size_t d = 0; d < s.size(); ++d)
                if (static_cast<std::int64_t>(d) != axis) XRL_EXPECTS(s[d] == out[d]);
            out[static_cast<std::size_t>(axis)] += s[static_cast<std::size_t>(axis)];
        }
        return {out};
    }

    case Op_kind::split: {
        XRL_EXPECTS(n.inputs.size() == 1);
        const Shape& x = in_shape(g, n, 0);
        const std::int64_t axis = n.params->axis;
        XRL_EXPECTS(axis >= 0 && axis < static_cast<std::int64_t>(x.size()));
        XRL_EXPECTS(!n.params->split_sizes.empty());
        std::int64_t total = 0;
        std::vector<Shape> out;
        for (const std::int64_t piece : n.params->split_sizes) {
            XRL_EXPECTS(piece > 0);
            Shape s = x;
            s[static_cast<std::size_t>(axis)] = piece;
            out.push_back(std::move(s));
            total += piece;
        }
        XRL_EXPECTS(total == x[static_cast<std::size_t>(axis)]);
        return out;
    }

    case Op_kind::slice: {
        XRL_EXPECTS(n.inputs.size() == 1);
        Shape x = in_shape(g, n, 0);
        const std::int64_t axis = n.params->axis;
        XRL_EXPECTS(axis >= 0 && axis < static_cast<std::int64_t>(x.size()));
        XRL_EXPECTS(n.params->begin >= 0 && n.params->begin < n.params->end);
        XRL_EXPECTS(n.params->end <= x[static_cast<std::size_t>(axis)]);
        x[static_cast<std::size_t>(axis)] = n.params->end - n.params->begin;
        return {x};
    }

    case Op_kind::reshape: {
        XRL_EXPECTS(n.inputs.size() == 1);
        const Shape& x = in_shape(g, n, 0);
        XRL_EXPECTS(shape_volume(n.params->target_shape) == shape_volume(x));
        return {n.params->target_shape};
    }

    case Op_kind::transpose: {
        XRL_EXPECTS(n.inputs.size() == 1);
        const Shape& x = in_shape(g, n, 0);
        std::vector<std::int64_t> perm = n.params->perm;
        if (perm.empty()) {
            XRL_EXPECTS(x.size() >= 2);
            perm.resize(x.size());
            for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::int64_t>(i);
            std::swap(perm[perm.size() - 1], perm[perm.size() - 2]);
        }
        XRL_EXPECTS(perm.size() == x.size());
        Shape out(x.size());
        for (std::size_t i = 0; i < perm.size(); ++i) {
            XRL_EXPECTS(perm[i] >= 0 && perm[i] < static_cast<std::int64_t>(x.size()));
            out[i] = x[static_cast<std::size_t>(perm[i])];
        }
        return {out};
    }

    case Op_kind::pad: {
        XRL_EXPECTS(n.inputs.size() == 1);
        Shape x = in_shape(g, n, 0);
        XRL_EXPECTS(n.params->pads_before.size() == x.size());
        XRL_EXPECTS(n.params->pads_after.size() == x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] += n.params->pads_before[i] + n.params->pads_after[i];
        return {x};
    }

    case Op_kind::reduce_sum:
    case Op_kind::reduce_mean: {
        XRL_EXPECTS(n.inputs.size() == 1);
        const Shape& x = in_shape(g, n, 0);
        const std::int64_t axis = n.params->axis;
        XRL_EXPECTS(axis >= 0 && axis < static_cast<std::int64_t>(x.size()));
        Shape out;
        for (std::size_t d = 0; d < x.size(); ++d) {
            if (static_cast<std::int64_t>(d) == axis) {
                if (n.params->keep_dim) out.push_back(1);
            } else {
                out.push_back(x[d]);
            }
        }
        return {out};
    }

    case Op_kind::embedding: {
        XRL_EXPECTS(n.inputs.size() == 2);
        Shape ids = in_shape(g, n, 0);
        const Shape& table = in_shape(g, n, 1);
        XRL_EXPECTS(table.size() == 2);
        ids.push_back(table[1]);
        return {ids};
    }

    case Op_kind::enlarge: {
        XRL_EXPECTS(n.inputs.size() == 1);
        const Shape& w = in_shape(g, n, 0);
        XRL_EXPECTS(w.size() == 4);
        XRL_EXPECTS(n.params->target_r >= w[2] && n.params->target_s >= w[3]);
        XRL_EXPECTS((n.params->target_r - w[2]) % 2 == 0);
        XRL_EXPECTS((n.params->target_s - w[3]) % 2 == 0);
        return {Shape{w[0], w[1], n.params->target_r, n.params->target_s}};
    }

    case Op_kind::count_:
        break;
    }
    XRL_EXPECTS(false && "unhandled op kind in shape inference");
    return {};
}

} // namespace xrl
