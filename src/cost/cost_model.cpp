#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace xrl {

namespace {

std::int64_t volume_of(const Graph_reader& g, Edge e)
{
    return shape_volume(g.shape_of(e));
}

std::int64_t output_volume(const Graph_reader& g, Node_id id)
{
    std::int64_t total = 0;
    for (const Shape& s : g.node(id).output_shapes) total += shape_volume(s);
    return total;
}

std::int64_t input_volume(const Graph_reader& g, Node_id id)
{
    std::int64_t total = 0;
    for (const Edge& e : g.node(id).inputs) total += volume_of(g, e);
    return total;
}

/// Extra elementwise flops contributed by a fused activation.
std::int64_t activation_flops(Activation act, std::int64_t volume)
{
    switch (act) {
    case Activation::none: return 0;
    case Activation::relu: return volume;
    case Activation::gelu: return 8 * volume;
    case Activation::tanh: return 4 * volume;
    case Activation::sigmoid: return 4 * volume;
    }
    return 0;
}

/// Cost_model's integer unit: 1e-12 ms.
constexpr double units_per_ms = 1e12;

/// The walk's per-thread scratch: a graph cost can run once per candidate,
/// on every thread that runs a search, so the mask and worklist must not
/// be fresh allocations.
struct Walk_scratch {
    std::vector<std::uint8_t> reached;
    std::vector<Node_id> stack;
};

Walk_scratch& walk_scratch()
{
    thread_local Walk_scratch scratch;
    return scratch;
}

} // namespace

double Additive_cost::graph_cost_ms(const Graph& graph) const
{
    return finish(reachable_sum(graph, *this));
}

Kind_sums reachable_sum(const Graph& g, const Additive_cost& cost, std::vector<std::int64_t>* terms)
{
    Walk_scratch& scratch = walk_scratch();
    std::vector<std::uint8_t>& reached = scratch.reached;
    std::vector<Node_id>& stack = scratch.stack;
    reached.assign(g.capacity(), 0);
    stack.clear();
    if (terms != nullptr) terms->assign(g.capacity(), unreached_term);
    const auto visit = [&](Node_id id) {
        std::uint8_t& flag = reached[static_cast<std::size_t>(id)];
        if (flag != 0) return;
        flag = 1;
        stack.push_back(id);
    };
    for (const Edge& e : g.outputs()) visit(e.node);
    Kind_sums sums{};
    while (!stack.empty()) {
        const Node_id id = stack.back();
        stack.pop_back();
        const Node& n = g.node(id);
        for (const Edge& e : n.inputs) visit(e.node);
        const std::int64_t term = n.kind == Op_kind::input ? 0 : cost.term(g, id);
        sums[static_cast<std::size_t>(n.kind)] += term;
        if (terms != nullptr) (*terms)[static_cast<std::size_t>(id)] = term;
    }
    return sums;
}

bool is_free_op(Op_kind kind)
{
    switch (kind) {
    case Op_kind::input:
    case Op_kind::weight:
    case Op_kind::constant:
    case Op_kind::reshape:
    case Op_kind::identity:
    case Op_kind::dropout:
    case Op_kind::split:
    case Op_kind::slice:
        // Views: runtimes return strided views for splits/slices, so no
        // kernel executes (the contiguous-copy cost, when needed, is borne
        // by the consumer's memory traffic, already counted).
        return true;
    default:
        return false;
    }
}

std::int64_t node_flops(const Graph_reader& g, Node_id id)
{
    const Node& n = g.node(id);
    const std::int64_t out_volume = output_volume(g, id);
    switch (n.kind) {
    case Op_kind::matmul: {
        const Shape& a = g.shape_of(n.inputs[0]);
        const std::int64_t k = a.back();
        return 2 * out_volume * k + activation_flops(n.params->activation, out_volume);
    }
    case Op_kind::conv2d: {
        const Shape& w = g.shape_of(n.inputs[1]);
        // 2 * N*K*OH*OW * (C/g)*R*S
        return 2 * out_volume * w[1] * w[2] * w[3] +
               activation_flops(n.params->activation, out_volume);
    }
    case Op_kind::add:
    case Op_kind::sub:
    case Op_kind::mul:
    case Op_kind::div:
    case Op_kind::relu:
    case Op_kind::leaky_relu:
    case Op_kind::scale:
        return out_volume;
    case Op_kind::gelu:
    case Op_kind::erf:
        return 8 * out_volume;
    case Op_kind::sigmoid:
    case Op_kind::tanh:
    case Op_kind::exp:
    case Op_kind::sqrt:
        return 4 * out_volume;
    case Op_kind::max_pool2d:
    case Op_kind::avg_pool2d:
        return out_volume * n.params->kernel_h * n.params->kernel_w;
    case Op_kind::global_avg_pool:
        return input_volume(g, id);
    case Op_kind::batch_norm:
        return 2 * out_volume;
    case Op_kind::layer_norm:
        return 8 * out_volume;
    case Op_kind::softmax:
        return 5 * out_volume;
    case Op_kind::reduce_sum:
    case Op_kind::reduce_mean:
        return input_volume(g, id);
    default:
        return 0; // data movement / sources
    }
}

std::int64_t node_bytes(const Graph_reader& g, Node_id id)
{
    const Node& n = g.node(id);
    if (is_free_op(n.kind)) return 0;
    return 4 * (input_volume(g, id) + output_volume(g, id));
}

double Cost_model::op_cost_ms(const Graph_reader& g, Node_id id) const
{
    const Node& n = g.node(id);
    if (is_free_op(n.kind)) return 0.0;
    const std::int64_t flops = node_flops(g, id);
    // Grouped convolutions launch one kernel per group (pre-Volta CuDNN
    // loops over groups), and each group's kernel is small: utilisation is
    // judged per group.
    const std::int64_t launches = n.kind == Op_kind::conv2d ? n.params->groups : 1;
    const double util = device_.utilisation(n.kind, flops / launches);
    const double effective_rate = device_.efficiency(n.kind) * util * device_.flops_per_ms;
    const double compute_ms = static_cast<double>(flops) / effective_rate;
    const double memory_ms = static_cast<double>(node_bytes(g, id)) / device_.bytes_per_ms;
    return static_cast<double>(launches) * device_.kernel_launch_ms +
           std::max(compute_ms, memory_ms);
}

std::int64_t Cost_model::term(const Graph_reader& g, Node_id id) const
{
    return std::llround(op_cost_ms(g, id) * units_per_ms);
}

double Cost_model::finish(const Kind_sums& sums) const
{
    std::int64_t total = 0;
    for (const std::int64_t sum : sums) total += sum;
    return static_cast<double>(total) / units_per_ms;
}

} // namespace xrl
