// TASO-style sum-of-operators cost model.
//
// Ranks candidate graphs by summing per-operator kernel times measured in
// isolation — the assumption the paper shows to be inaccurate (Table 1):
// "the cost model ... assumes the summation of individual operator runtime
// is the same as the end-to-end inference latency."
//
// Graph costs are exact and order-free: every node the outputs reach
// contributes one integer term, the terms are summed per op kind, and one
// `finish` step turns the per-kind sums into ms. Integer sums do not depend
// on the order they are taken in, so a candidate's cost can also be priced
// as its host's sums minus the terms of the nodes it removed plus the terms
// of the nodes it added (TASO and PET do, from each candidate's
// Rewrite_delta) and still equal the full walk bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cost/device.h"
#include "ir/graph.h"
#include "ir/graph_overlay.h"

namespace xrl {

/// Floating point operations performed by a node (0 for data movement).
std::int64_t node_flops(const Graph_reader& graph, Node_id id);

/// Bytes moved by a node (inputs read + outputs written, 4 B/element).
std::int64_t node_bytes(const Graph_reader& graph, Node_id id);

/// Ops with no kernel at all (views / erased at runtime).
bool is_free_op(Op_kind kind);

/// Per-op-kind sums of a cost's integer node terms.
using Kind_sums = std::array<std::int64_t, static_cast<std::size_t>(Op_kind::count_)>;

/// A graph cost that is a sum of one exact integer term per node reachable
/// from the outputs. Source inputs are free: the walk never asks for their
/// term (dead-node elimination keeps them alive whether or not the outputs
/// reach them). Implementations are const and safe to call concurrently.
class Additive_cost {
public:
    virtual ~Additive_cost() = default;

    /// The node's term; never negative. `graph` is a Graph or a candidate's
    /// overlay (Delta_pricer prices added nodes without materialising).
    virtual std::int64_t term(const Graph_reader& graph, Node_id id) const = 0;

    /// The cost in ms of a node set whose terms sum to `sums` per kind.
    virtual double finish(const Kind_sums& sums) const = 0;

    /// finish() of the sums over every node reachable from the outputs.
    double graph_cost_ms(const Graph& graph) const;

protected:
    // Copyable as the derived type only (Cost_model is held by value).
    Additive_cost() = default;
    Additive_cost(const Additive_cost&) = default;
    Additive_cost& operator=(const Additive_cost&) = default;
    Additive_cost(Additive_cost&&) = default;
    Additive_cost& operator=(Additive_cost&&) = default;
};

/// reachable_sum's mark for a node the outputs do not reach.
inline constexpr std::int64_t unreached_term = -1;

/// Sum `cost`'s terms per kind over the nodes reachable from `graph`'s
/// outputs: one walk over a flat mask in thread-local scratch. With
/// `terms`, also record each node's term by id (unreached_term where the
/// outputs do not reach; 0 for reached source inputs).
Kind_sums reachable_sum(const Graph& graph, const Additive_cost& cost,
                        std::vector<std::int64_t>* terms = nullptr);

class Cost_model final : public Additive_cost {
public:
    explicit Cost_model(Device_profile device) : device_(std::move(device)) {}

    const Device_profile& device() const { return device_; }

    /// Kernel time for one operator in isolation: launch overhead plus the
    /// roofline max of compute and memory time.
    double op_cost_ms(const Graph_reader& graph, Node_id id) const;

    /// op_cost_ms in integer units of 1e-12 ms: fine enough that a graph's
    /// quantised sum stays within a few 1e-12 ms of the double sum.
    std::int64_t term(const Graph_reader& graph, Node_id id) const override;

    /// The summed units, divided once.
    double finish(const Kind_sums& sums) const override;

private:
    Device_profile device_;
};

} // namespace xrl
