#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.h"
#include "tensor/kernels.h"

namespace xrl {

namespace {

/// Sum `grad` down to `shape` (inverse of NumPy broadcasting).
Tensor reduce_to_shape(const Tensor& grad, const Shape& shape)
{
    if (grad.shape() == shape) return grad;
    Tensor current = grad;
    // Collapse extra leading axes.
    while (current.rank() > static_cast<std::int64_t>(shape.size()))
        current = reduce_sum(current, 0, /*keep_dim=*/false);
    // Sum axes broadcast from extent 1.
    for (std::int64_t axis = 0; axis < current.rank(); ++axis) {
        if (shape[static_cast<std::size_t>(axis)] == 1 && current.dim(axis) != 1)
            current = reduce_sum(current, axis, /*keep_dim=*/true);
    }
    XRL_ENSURES(current.shape() == shape);
    return current;
}

void accumulate(Tensor& into, const Tensor& delta)
{
    XRL_EXPECTS(into.shape() == delta.shape());
    float* dst = into.data();
    const float* src = delta.data();
    for (std::int64_t i = 0; i < into.volume(); ++i) dst[i] += src[i];
}

/// accumulate(into, reduce_to_shape(grad, into.shape())) without the copy
/// when no reduction is needed.
void accumulate_reduced(Tensor& into, const Tensor& grad)
{
    if (grad.shape() == into.shape())
        accumulate(into, grad);
    else
        accumulate(into, reduce_to_shape(grad, into.shape()));
}

} // namespace

void accumulate_parameter_grads(const std::vector<Parameter_grad>& grads)
{
    for (const Parameter_grad& entry : grads) accumulate(entry.parameter->grad, entry.grad);
}

Var Tape::push(Tensor value, std::initializer_list<Var> inputs)
{
    Node n;
    n.value = std::move(value);
    for (const Var input : inputs) n.requires_grad = n.requires_grad || node(input).requires_grad;
    nodes_.push_back(std::move(n));
    return Var{static_cast<int>(nodes_.size() - 1)};
}

Tape::Node& Tape::node(Var v)
{
    XRL_EXPECTS(v.valid() && v.index < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<std::size_t>(v.index)];
}

const Tape::Node& Tape::node(Var v) const
{
    XRL_EXPECTS(v.valid() && v.index < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<std::size_t>(v.index)];
}

const Tensor& Tape::value(Var v) const
{
    return node(v).value;
}

const Tensor& Tape::grad(Var v) const
{
    return node(v).grad;
}

Tensor* Tape::input_grad(int index)
{
    Node& n = nodes_[static_cast<std::size_t>(index)];
    if (!n.requires_grad) return nullptr;
    if (n.grad.shape() != n.value.shape()) n.grad = Tensor(n.value.shape()); // first write
    return &n.grad;
}

const Tensor& Tape::node_grad(int index) const
{
    return nodes_[static_cast<std::size_t>(index)].grad;
}

const Tensor& Tape::node_value(int index) const
{
    return nodes_[static_cast<std::size_t>(index)].value;
}

Var Tape::constant(Tensor value)
{
    return push(std::move(value), {});
}

Var Tape::param(Parameter& p)
{
    const Var v = push(p.value, {});
    node(v).parameter = &p;
    node(v).requires_grad = true;
    return v;
}

Var Tape::add(Var a, Var b)
{
    const Var out = push(xrl::add(value(a), value(b)), {a, b});
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = node_grad(io);
        if (Tensor* ga = input_grad(ia)) accumulate_reduced(*ga, g);
        if (Tensor* gb = input_grad(ib)) accumulate_reduced(*gb, g);
    };
    return out;
}

Var Tape::sub(Var a, Var b)
{
    const Var out = push(xrl::sub(value(a), value(b)), {a, b});
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = node_grad(io);
        if (Tensor* ga = input_grad(ia)) accumulate_reduced(*ga, g);
        if (Tensor* gb = input_grad(ib)) accumulate_reduced(*gb, xrl::scale(g, -1.0F));
    };
    return out;
}

Var Tape::mul(Var a, Var b)
{
    const Var out = push(xrl::mul(value(a), value(b)), {a, b});
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = node_grad(io);
        if (Tensor* ga = input_grad(ia)) accumulate_reduced(*ga, xrl::mul(g, node_value(ib)));
        if (Tensor* gb = input_grad(ib)) accumulate_reduced(*gb, xrl::mul(g, node_value(ia)));
    };
    return out;
}

Var Tape::scale(Var a, float factor)
{
    const Var out = push(xrl::scale(value(a), factor), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, factor] {
        if (Tensor* ga = input_grad(ia)) accumulate(*ga, xrl::scale(node_grad(io), factor));
    };
    return out;
}

Var Tape::matmul(Var a, Var b)
{
    XRL_EXPECTS(value(a).rank() == 2 && value(b).rank() == 2);
    const Var out = push(xrl::matmul(value(a), value(b)), {a, b});
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = node_grad(io);
        // vb is weight-sized, so its transpose is a cheap copy; va is
        // activation-sized and matmul_tn reads it transposed in place. A
        // constant left factor (the GNN's one-hot input) gets no gradient.
        if (Tensor* ga = input_grad(ia))
            accumulate(*ga, xrl::matmul(g, transpose_last2(node_value(ib))));
        if (Tensor* gb = input_grad(ib)) accumulate(*gb, matmul_tn(node_value(ia), g));
    };
    return out;
}

Var Tape::relu(Var a)
{
    const Var out = push(xrl::relu(value(a)), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        Tensor* grad_a = input_grad(ia);
        if (grad_a == nullptr) return;
        const float* g = node_grad(io).data();
        const Tensor& va = node_value(ia);
        const float* x = va.data();
        float* ga = grad_a->data();
        for (std::int64_t i = 0; i < va.volume(); ++i) {
            const float gi = g[i]; // loaded unconditionally so the select vectorises
            ga[i] += x[i] > 0.0F ? gi : 0.0F;
        }
    };
    return out;
}

Var Tape::leaky_relu(Var a, float slope)
{
    const Var out = push(xrl::leaky_relu(value(a), slope), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, slope] {
        Tensor* grad_a = input_grad(ia);
        if (grad_a == nullptr) return;
        const float* g = node_grad(io).data();
        const Tensor& va = node_value(ia);
        const float* x = va.data();
        float* ga = grad_a->data();
        for (std::int64_t i = 0; i < va.volume(); ++i) ga[i] += x[i] > 0.0F ? g[i] : slope * g[i];
    };
    return out;
}

Var Tape::tanh(Var a)
{
    const Var out = push(tanh_op(value(a)), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        Tensor* ga = input_grad(ia);
        if (ga == nullptr) return;
        const Tensor& g = node_grad(io);
        const Tensor& y = node_value(io);
        Tensor delta(y.shape());
        for (std::int64_t i = 0; i < y.volume(); ++i)
            delta.at(i) = g.at(i) * (1.0F - y.at(i) * y.at(i));
        accumulate(*ga, delta);
    };
    return out;
}

Var Tape::exp(Var a)
{
    const Var out = push(exp_op(value(a)), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        if (Tensor* ga = input_grad(ia)) accumulate(*ga, xrl::mul(node_grad(io), node_value(io)));
    };
    return out;
}

Var Tape::log(Var a)
{
    const Tensor& va = value(a);
    Tensor out_value(va.shape());
    for (std::int64_t i = 0; i < va.volume(); ++i) {
        XRL_EXPECTS(va.at(i) > 0.0F);
        out_value.at(i) = std::log(va.at(i));
    }
    const Var out = push(std::move(out_value), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        Tensor* ga = input_grad(ia);
        if (ga == nullptr) return;
        const Tensor& g = node_grad(io);
        const Tensor& va2 = node_value(ia);
        Tensor delta(va2.shape());
        for (std::int64_t i = 0; i < va2.volume(); ++i) delta.at(i) = g.at(i) / va2.at(i);
        accumulate(*ga, delta);
    };
    return out;
}

Var Tape::minimum(Var a, Var b)
{
    const Tensor& va = value(a);
    const Tensor& vb = value(b);
    XRL_EXPECTS(va.shape() == vb.shape());
    Tensor out_value(va.shape());
    for (std::int64_t i = 0; i < va.volume(); ++i) out_value.at(i) = std::min(va.at(i), vb.at(i));
    const Var out = push(std::move(out_value), {a, b});
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = node_grad(io);
        const Tensor& va2 = node_value(ia);
        const Tensor& vb2 = node_value(ib);
        Tensor da(va2.shape());
        Tensor db(vb2.shape());
        for (std::int64_t i = 0; i < va2.volume(); ++i) {
            if (va2.at(i) <= vb2.at(i))
                da.at(i) = g.at(i);
            else
                db.at(i) = g.at(i);
        }
        if (Tensor* ga = input_grad(ia)) accumulate(*ga, da);
        if (Tensor* gb = input_grad(ib)) accumulate(*gb, db);
    };
    return out;
}

Var Tape::clamp(Var a, float lo, float hi)
{
    const Tensor& va = value(a);
    Tensor out_value(va.shape());
    for (std::int64_t i = 0; i < va.volume(); ++i)
        out_value.at(i) = std::clamp(va.at(i), lo, hi);
    const Var out = push(std::move(out_value), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, lo, hi] {
        Tensor* ga = input_grad(ia);
        if (ga == nullptr) return;
        const Tensor& g = node_grad(io);
        const Tensor& va2 = node_value(ia);
        Tensor delta(va2.shape());
        for (std::int64_t i = 0; i < va2.volume(); ++i)
            delta.at(i) = (va2.at(i) >= lo && va2.at(i) <= hi) ? g.at(i) : 0.0F;
        accumulate(*ga, delta);
    };
    return out;
}

Var Tape::concat_cols(Var a, Var b)
{
    const Tensor& va = value(a);
    const Tensor& vb = value(b);
    XRL_EXPECTS(va.rank() == 2 && vb.rank() == 2 && va.dim(0) == vb.dim(0));
    // Sizes must be read before push(): pushing may reallocate the node
    // storage and invalidate va/vb.
    const std::int64_t ca = va.dim(1);
    const std::int64_t cb = vb.dim(1);
    const Var out = push(concat({va, vb}, 1), {a, b});
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io, ca, cb] {
        // Each side's column block is added straight into its gradient; a
        // constant side (the GNN's zero globals) is skipped.
        const Tensor& g = node_grad(io);
        const std::int64_t rows = g.dim(0);
        const auto add_columns = [&g, rows, width = ca + cb](Tensor& into, std::int64_t first,
                                                             std::int64_t count) {
            const float* src = g.data() + first;
            float* dst = into.data();
            for (std::int64_t r = 0; r < rows; ++r)
                for (std::int64_t c = 0; c < count; ++c) dst[r * count + c] += src[r * width + c];
        };
        if (Tensor* ga = input_grad(ia)) add_columns(*ga, 0, ca);
        if (Tensor* gb = input_grad(ib)) add_columns(*gb, ca, cb);
    };
    return out;
}

Var Tape::concat_rows(Var a, Var b)
{
    const Tensor& va = value(a);
    const Tensor& vb = value(b);
    XRL_EXPECTS(va.rank() == 2 && vb.rank() == 2 && va.dim(1) == vb.dim(1));
    // Read sizes before push() (reallocation invalidates va/vb).
    const std::int64_t split_at = va.volume();
    const Var out = push(concat({va, vb}, 0), {a, b});
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io, split_at] {
        // Row-major: a's rows are the first `split_at` floats of g.
        const float* g = node_grad(io).data();
        if (Tensor* ga = input_grad(ia))
            for (std::int64_t i = 0; i < ga->volume(); ++i) ga->data()[i] += g[i];
        if (Tensor* gb = input_grad(ib))
            for (std::int64_t i = 0; i < gb->volume(); ++i) gb->data()[i] += g[split_at + i];
    };
    return out;
}

Var Tape::gather_rows(Var a, std::vector<std::int64_t> rows)
{
    const Tensor& va = value(a);
    XRL_EXPECTS(va.rank() == 2);
    const std::int64_t width = va.dim(1);
    Tensor out_value(Shape{static_cast<std::int64_t>(rows.size()), width});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        XRL_EXPECTS(rows[r] >= 0 && rows[r] < va.dim(0));
        std::copy(va.data() + rows[r] * width, va.data() + (rows[r] + 1) * width,
                  out_value.data() + static_cast<std::int64_t>(r) * width);
    }
    const Var out = push(std::move(out_value), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, rows = std::move(rows), width] {
        Tensor* grad_a = input_grad(ia);
        if (grad_a == nullptr) return;
        const Tensor& g = node_grad(io);
        Tensor& ga = *grad_a;
        for (std::size_t r = 0; r < rows.size(); ++r) {
            const float* src = g.data() + static_cast<std::int64_t>(r) * width;
            float* dst = ga.data() + rows[r] * width;
            for (std::int64_t c = 0; c < width; ++c) dst[c] += src[c];
        }
    };
    return out;
}

Var Tape::segment_sum(Var a, std::vector<std::int64_t> segments, std::int64_t num_segments)
{
    const Tensor& va = value(a);
    XRL_EXPECTS(va.rank() == 2);
    XRL_EXPECTS(static_cast<std::int64_t>(segments.size()) == va.dim(0));
    const std::int64_t width = va.dim(1);
    Tensor out_value(Shape{num_segments, width});
    for (std::size_t r = 0; r < segments.size(); ++r) {
        XRL_EXPECTS(segments[r] >= 0 && segments[r] < num_segments);
        const float* src = va.data() + static_cast<std::int64_t>(r) * width;
        float* dst = out_value.data() + segments[r] * width;
        for (std::int64_t c = 0; c < width; ++c) dst[c] += src[c];
    }
    const Var out = push(std::move(out_value), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, segments = std::move(segments), width] {
        Tensor* grad_a = input_grad(ia);
        if (grad_a == nullptr) return;
        const Tensor& g = node_grad(io);
        Tensor& ga = *grad_a;
        for (std::size_t r = 0; r < segments.size(); ++r) {
            const float* src = g.data() + segments[r] * width;
            float* dst = ga.data() + static_cast<std::int64_t>(r) * width;
            for (std::int64_t c = 0; c < width; ++c) dst[c] += src[c];
        }
    };
    return out;
}

Var Tape::segment_softmax(Var scores, std::vector<std::int64_t> segments, std::int64_t num_segments)
{
    const Tensor& vs = value(scores);
    XRL_EXPECTS(vs.rank() == 2 && vs.dim(1) == 1);
    XRL_EXPECTS(static_cast<std::int64_t>(segments.size()) == vs.dim(0));

    std::vector<float> seg_max(static_cast<std::size_t>(num_segments),
                               -std::numeric_limits<float>::infinity());
    for (std::size_t r = 0; r < segments.size(); ++r)
        seg_max[static_cast<std::size_t>(segments[r])] =
            std::max(seg_max[static_cast<std::size_t>(segments[r])], vs.at(static_cast<std::int64_t>(r)));

    Tensor out_value(vs.shape());
    std::vector<float> seg_sum(static_cast<std::size_t>(num_segments), 0.0F);
    for (std::size_t r = 0; r < segments.size(); ++r) {
        const float e = std::exp(vs.at(static_cast<std::int64_t>(r)) -
                                 seg_max[static_cast<std::size_t>(segments[r])]);
        out_value.at(static_cast<std::int64_t>(r)) = e;
        seg_sum[static_cast<std::size_t>(segments[r])] += e;
    }
    for (std::size_t r = 0; r < segments.size(); ++r)
        out_value.at(static_cast<std::int64_t>(r)) /= seg_sum[static_cast<std::size_t>(segments[r])];

    const Var out = push(std::move(out_value), {scores});
    const int ia = scores.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, segments = std::move(segments), num_segments] {
        Tensor* ga = input_grad(ia);
        if (ga == nullptr) return;
        const Tensor& g = node_grad(io);
        const Tensor& y = node_value(io);
        // grad_x = y * (g - sum_seg(g*y))
        std::vector<float> seg_dot(static_cast<std::size_t>(num_segments), 0.0F);
        for (std::size_t r = 0; r < segments.size(); ++r)
            seg_dot[static_cast<std::size_t>(segments[r])] +=
                g.at(static_cast<std::int64_t>(r)) * y.at(static_cast<std::int64_t>(r));
        Tensor delta(y.shape());
        for (std::size_t r = 0; r < segments.size(); ++r)
            delta.at(static_cast<std::int64_t>(r)) =
                y.at(static_cast<std::int64_t>(r)) *
                (g.at(static_cast<std::int64_t>(r)) - seg_dot[static_cast<std::size_t>(segments[r])]);
        accumulate(*ga, delta);
    };
    return out;
}

Var Tape::sum_all(Var a)
{
    const Tensor& va = value(a);
    float total = 0.0F;
    for (std::int64_t i = 0; i < va.volume(); ++i) total += va.at(i);
    const Var out = push(Tensor(Shape{1, 1}, {total}), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        Tensor* ga = input_grad(ia);
        if (ga == nullptr) return;
        const float g = node_grad(io).at(0);
        float* dst = ga->data();
        for (std::int64_t i = 0; i < ga->volume(); ++i) dst[i] += g;
    };
    return out;
}

Var Tape::mean_all(Var a)
{
    const auto n = static_cast<float>(value(a).volume());
    return scale(sum_all(a), 1.0F / n);
}

Var Tape::pick(Var a, std::int64_t flat_index)
{
    const Tensor& va = value(a);
    XRL_EXPECTS(flat_index >= 0 && flat_index < va.volume());
    const Var out = push(Tensor(Shape{1, 1}, {va.at(flat_index)}), {a});
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, flat_index] {
        if (Tensor* ga = input_grad(ia)) ga->at(flat_index) += node_grad(io).at(0);
    };
    return out;
}

std::vector<Parameter_grad> Tape::sweep(Var loss)
{
    Node& l = node(loss);
    XRL_EXPECTS(l.value.volume() == 1);
    std::vector<Parameter_grad> parameter_grads;
    if (!l.requires_grad) return parameter_grads;
    // A gradient buffer is allocated when the first consumer writes into it
    // and released once the node has passed it on, so a forward-only tape
    // (behaviour-time action selection) allocates none and a sweep holds
    // only the gradients still in flight.
    input_grad(loss.index)->at(0) = 1.0F;
    for (int i = loss.index; i >= 0; --i) {
        Node& n = nodes_[static_cast<std::size_t>(i)];
        if (!n.requires_grad) continue;
        input_grad(i); // a node nothing consumed still passes on its zeros
        if (n.backprop) n.backprop();
        // Every consumer of a node comes later on the tape, so its gradient
        // is final once the sweep reaches it.
        if (n.parameter != nullptr)
            parameter_grads.push_back({n.parameter, n.grad});
        else
            n.grad = Tensor();
    }
    return parameter_grads;
}

void Tape::backward(Var loss)
{
    accumulate_parameter_grads(sweep(loss));
}

} // namespace xrl
