#include "ir/executor.h"

#include "support/check.h"
#include "tensor/kernels.h"

namespace xrl {

namespace {

Tensor apply_activation(Tensor t, Activation activation)
{
    switch (activation) {
    case Activation::none: return t;
    case Activation::relu: return relu(t);
    case Activation::gelu: return gelu(t);
    case Activation::tanh: return tanh_op(t);
    case Activation::sigmoid: return sigmoid(t);
    }
    return t;
}

} // namespace

Tensor materialise_weight(const Shape& shape, Node_id id, std::uint64_t weight_seed)
{
    Rng rng(weight_seed ^ (0x9e3779b9ULL * static_cast<std::uint64_t>(id + 1)));
    // Small magnitudes keep deep graphs numerically tame for equivalence
    // checking.
    return Tensor::random_uniform(shape, rng, -0.5F, 0.5F);
}

Binding_map random_bindings(const Graph& graph, Rng& rng, float lo, float hi)
{
    Binding_map bindings;
    for (const Node_id id : graph.node_ids()) {
        const Node& n = graph.node(id);
        if (n.kind != Op_kind::input) continue;
        XRL_EXPECTS(!n.output_shapes.empty());
        bindings.emplace(id, Tensor::random_uniform(n.output_shapes.front(), rng, lo, hi));
    }
    return bindings;
}

std::vector<Tensor> execute(const Graph& graph, const Binding_map& bindings, std::uint64_t weight_seed)
{
    // Values per (node, port).
    std::vector<std::vector<Tensor>> values(graph.capacity());

    auto in = [&](const Node& n, std::size_t slot) -> const Tensor& {
        const Edge& e = n.inputs[slot];
        return values[static_cast<std::size_t>(e.node)][static_cast<std::size_t>(e.port)];
    };

    for (const Node_id id : graph.topo_order()) {
        const Node& n = graph.node(id);
        std::vector<Tensor>& out = values[static_cast<std::size_t>(id)];
        switch (n.kind) {
        case Op_kind::input: {
            const auto it = bindings.find(id);
            XRL_EXPECTS(it != bindings.end());
            XRL_EXPECTS(it->second.shape() == n.output_shapes.front());
            out = {it->second};
            break;
        }
        case Op_kind::weight:
            out = {materialise_weight(n.output_shapes.front(), id, weight_seed)};
            break;
        case Op_kind::constant:
            XRL_EXPECTS(n.payload != nullptr);
            out = {*n.payload};
            break;
        case Op_kind::matmul:
            out = {apply_activation(matmul(in(n, 0), in(n, 1)), n.params->activation)};
            break;
        case Op_kind::conv2d: {
            Conv2d_spec spec;
            spec.stride_h = n.params->stride_h;
            spec.stride_w = n.params->stride_w;
            spec.pad_h = n.params->pad_h;
            spec.pad_w = n.params->pad_w;
            spec.groups = n.params->groups;
            out = {apply_activation(conv2d(in(n, 0), in(n, 1), spec), n.params->activation)};
            break;
        }
        case Op_kind::relu: out = {relu(in(n, 0))}; break;
        case Op_kind::leaky_relu: out = {leaky_relu(in(n, 0), n.params->scalar)}; break;
        case Op_kind::gelu: out = {gelu(in(n, 0))}; break;
        case Op_kind::sigmoid: out = {sigmoid(in(n, 0))}; break;
        case Op_kind::tanh: out = {tanh_op(in(n, 0))}; break;
        case Op_kind::exp: out = {exp_op(in(n, 0))}; break;
        case Op_kind::sqrt: out = {sqrt_op(in(n, 0))}; break;
        case Op_kind::erf: out = {erf_op(in(n, 0))}; break;
        case Op_kind::identity:
        case Op_kind::dropout:
            out = {in(n, 0)};
            break;
        case Op_kind::scale: out = {scale(in(n, 0), n.params->scalar)}; break;
        case Op_kind::add: out = {add(in(n, 0), in(n, 1))}; break;
        case Op_kind::sub: out = {sub(in(n, 0), in(n, 1))}; break;
        case Op_kind::mul: out = {mul(in(n, 0), in(n, 1))}; break;
        case Op_kind::div: out = {div(in(n, 0), in(n, 1))}; break;
        case Op_kind::max_pool2d:
        case Op_kind::avg_pool2d: {
            Pool2d_spec spec;
            spec.kernel_h = n.params->kernel_h;
            spec.kernel_w = n.params->kernel_w;
            spec.stride_h = n.params->stride_h;
            spec.stride_w = n.params->stride_w;
            spec.pad_h = n.params->pad_h;
            spec.pad_w = n.params->pad_w;
            out = {n.kind == Op_kind::max_pool2d ? max_pool2d(in(n, 0), spec)
                                                 : avg_pool2d(in(n, 0), spec)};
            break;
        }
        case Op_kind::global_avg_pool: out = {global_avg_pool(in(n, 0))}; break;
        case Op_kind::batch_norm:
            out = {batch_norm(in(n, 0), in(n, 1), in(n, 2), in(n, 3), in(n, 4), n.params->epsilon)};
            break;
        case Op_kind::layer_norm:
            out = {layer_norm(in(n, 0), in(n, 1), in(n, 2), n.params->epsilon)};
            break;
        case Op_kind::softmax: out = {softmax(in(n, 0))}; break;
        case Op_kind::concat: {
            std::vector<Tensor> parts;
            parts.reserve(n.inputs.size());
            for (std::size_t slot = 0; slot < n.inputs.size(); ++slot) parts.push_back(in(n, slot));
            out = {concat(parts, n.params->axis)};
            break;
        }
        case Op_kind::split:
            out = split(in(n, 0), n.params->axis, n.params->split_sizes);
            break;
        case Op_kind::slice:
            out = {slice(in(n, 0), n.params->axis, n.params->begin, n.params->end)};
            break;
        case Op_kind::reshape: out = {in(n, 0).reshaped(n.params->target_shape)}; break;
        case Op_kind::transpose: {
            if (n.params->perm.empty()) {
                out = {transpose_last2(in(n, 0))};
            } else {
                out = {transpose(in(n, 0), n.params->perm)};
            }
            break;
        }
        case Op_kind::pad: out = {pad(in(n, 0), n.params->pads_before, n.params->pads_after)}; break;
        case Op_kind::reduce_sum: out = {reduce_sum(in(n, 0), n.params->axis, n.params->keep_dim)}; break;
        case Op_kind::reduce_mean: out = {reduce_mean(in(n, 0), n.params->axis, n.params->keep_dim)}; break;
        case Op_kind::embedding: out = {embedding(in(n, 0), in(n, 1))}; break;
        case Op_kind::enlarge:
            out = {enlarge_kernel(in(n, 0), n.params->target_r, n.params->target_s)};
            break;
        case Op_kind::count_:
            XRL_EXPECTS(false);
        }
    }

    std::vector<Tensor> results;
    results.reserve(graph.outputs().size());
    for (const Edge& e : graph.outputs())
        results.push_back(values[static_cast<std::size_t>(e.node)][static_cast<std::size_t>(e.port)]);
    return results;
}

} // namespace xrl
