#include "cost/e2e_simulator.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace xrl {

namespace {

/// analyse's per-thread buffers: only their capacity outlives a call.
struct Analyse_scratch {
    std::vector<std::uint8_t> reachable;
    std::vector<std::uint8_t> foldable;
    std::vector<std::uint8_t> fused;
};

Analyse_scratch& analyse_scratch()
{
    thread_local Analyse_scratch scratch;
    return scratch;
}

} // namespace

E2e_breakdown E2e_simulator::analyse(const Graph& g) const
{
    const Device_profile& device = cost_model_.device();
    Analyse_scratch& scratch = analyse_scratch();
    std::vector<std::uint8_t>& reachable = scratch.reachable;
    g.reachable_mask(reachable);
    const auto is_reachable = [&](Node_id id) {
        return reachable[static_cast<std::size_t>(id)] != 0;
    };
    const Topo_walk& walk = topo_walk(g);
    const std::vector<Node_id>& order = walk.order;

    // Number of *reachable* consumers per node (fusion needs single-consumer
    // producers).
    auto reachable_consumers = [&](Node_id id) {
        int count = 0;
        for (const Edge_use& use : walk.users(id))
            if (is_reachable(use.user)) ++count;
        for (const Edge& e : g.outputs())
            if (e.node == id) ++count;
        return count;
    };

    // Pass 1: constant folding. A node is foldable when it has inputs and
    // every operand comes from a weight/constant or another foldable node —
    // it can be evaluated once offline and cached.
    std::vector<std::uint8_t>& foldable = scratch.foldable;
    foldable.assign(g.capacity(), 0);
    for (const Node_id id : order) {
        const Node& n = g.node(id);
        if (n.kind == Op_kind::input) continue;
        if (n.kind == Op_kind::weight || n.kind == Op_kind::constant) {
            foldable[static_cast<std::size_t>(id)] = 1;
            continue;
        }
        if (n.inputs.empty()) continue;
        bool all_static = true;
        for (const Edge& e : n.inputs)
            all_static = all_static && foldable[static_cast<std::size_t>(e.node)] != 0;
        foldable[static_cast<std::size_t>(id)] = all_static ? 1 : 0;
    }

    // Pass 2: runtime elementwise fusion. An elementwise op fuses into its
    // producer kernel when that producer is a runtime kernel feeding only
    // this op. Binary elementwise ops fuse when their *other* operand is
    // static (e.g. folded bias tensors).
    auto is_runtime_kernel = [&](Node_id id) {
        return is_reachable(id) && !is_free_op(g.node(id).kind) &&
               foldable[static_cast<std::size_t>(id)] == 0;
    };

    std::vector<std::uint8_t>& fused = scratch.fused;
    fused.assign(g.capacity(), 0);
    for (const Node_id id : order) {
        if (!is_runtime_kernel(id)) continue;
        const Node& n = g.node(id);
        Node_id producer = invalid_node;
        if (is_elementwise_unary(n.kind)) {
            producer = n.inputs[0].node;
        } else if (is_elementwise_binary(n.kind)) {
            const bool lhs_static = foldable[static_cast<std::size_t>(n.inputs[0].node)] != 0 ||
                                    is_source(g.node(n.inputs[0].node).kind);
            const bool rhs_static = foldable[static_cast<std::size_t>(n.inputs[1].node)] != 0 ||
                                    is_source(g.node(n.inputs[1].node).kind);
            if (lhs_static == rhs_static) continue; // need exactly one dynamic side
            producer = lhs_static ? n.inputs[1].node : n.inputs[0].node;
        } else {
            continue;
        }
        if (!is_runtime_kernel(producer)) continue;
        if (reachable_consumers(producer) != 1) continue;
        fused[static_cast<std::size_t>(id)] = 1;
    }

    // Pass 3: accumulate the schedule.
    E2e_breakdown b;
    for (const Node_id id : order) {
        if (!is_reachable(id)) continue;
        const Node& n = g.node(id);
        if (is_free_op(n.kind)) continue;
        if (foldable[static_cast<std::size_t>(id)] != 0) {
            ++b.nodes_folded;
            continue;
        }
        const std::int64_t flops = node_flops(g, id);
        const std::int64_t launches = n.kind == Op_kind::conv2d ? n.params->groups : 1;
        const double util = device.utilisation(n.kind, flops / launches);
        const double compute_ms =
            static_cast<double>(flops) / (device.efficiency(n.kind) * util * device.flops_per_ms);
        if (fused[static_cast<std::size_t>(id)] != 0) {
            // Applied in-register inside the producer kernel: compute time
            // only, no launch, no memory round-trip.
            b.compute_ms += compute_ms;
            ++b.kernels_fused;
            continue;
        }
        const double memory_ms = static_cast<double>(node_bytes(g, id)) / device.bytes_per_ms;
        b.compute_ms += std::max(compute_ms, memory_ms);
        b.launch_ms += static_cast<double>(launches) * device.kernel_launch_ms;
        b.scheduler_ms += static_cast<double>(launches) * device.scheduler_overhead_ms;
        b.kernels_launched += static_cast<int>(launches);
    }
    b.total_ms = b.compute_ms + b.launch_ms + b.scheduler_ms;
    return b;
}

double E2e_simulator::measure_ms(const Graph& g)
{
    const double base = noiseless_ms(g);
    const Lock_guard lock(rng_mutex_);
    const double noisy = base * (1.0 + device().measurement_noise * rng_.normal());
    return std::max(noisy, 1e-9);
}

Latency_stats E2e_simulator::measure_repeated(const Graph& g, int repeats)
{
    XRL_EXPECTS(repeats >= 1);
    const double base = noiseless_ms(g);
    const Lock_guard lock(rng_mutex_);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < repeats; ++i) {
        const double m = std::max(base * (1.0 + device().measurement_noise * rng_.normal()), 1e-9);
        sum += m;
        sum_sq += m * m;
    }
    Latency_stats stats;
    stats.repeats = repeats;
    stats.mean_ms = sum / repeats;
    const double var = std::max(sum_sq / repeats - stats.mean_ms * stats.mean_ms, 0.0);
    stats.std_ms = std::sqrt(var);
    return stats;
}

} // namespace xrl
