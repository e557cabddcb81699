// PET-style optimiser (Wang et al., OSDI'21), simplified.
//
// Reproduces the two properties of PET the paper leans on in §2.2.2 and
// Table 2:
//   1. PET's cost model "ignores all element-wise operators' runtime" —
//      implemented as an element-wise-and-data-movement-blind graph cost.
//   2. PET performs *partially equivalent* transformations. Our stand-in is
//      spatial splitting of convolutions with halo recomputation: the split
//      introduces correction work (pad/slice/concat kernels) that PET's
//      cost model believes is free, so PET over-applies it on branch-heavy
//      graphs (ResNeXt) and pays at end-to-end time — the paper's observed
//      shape sensitivity.
//
// make_optimizer serves optimise_pet as "pet" (core/optimizer_api.h), with
// one option: "pet.budget".
#pragma once

#include <memory>

#include "cost/cost_model.h"
#include "optimizers/taso/taso_optimizer.h"
#include "rules/rule.h"

namespace xrl {

/// PET's cost model: flop counts of the compute-heavy kernels only;
/// element-wise and data-movement operators are free. A node's term is its
/// exact node_flops (0 for kinds PET does not count), and finish() divides
/// each kind's flop sum by that kind's effective rate, in kind order — so
/// equal flops tie exactly, wherever they sit in the graph.
class Pet_cost final : public Additive_cost {
public:
    /// `device` must outlive this cost.
    explicit Pet_cost(const Device_profile& device) : device_(&device) {}

    std::int64_t term(const Graph_reader& graph, Node_id id) const override;
    double finish(const Kind_sums& sums) const override;

private:
    const Device_profile* device_;
};

/// PET's graph cost on `cost`'s device: Pet_cost(cost.device()).
double pet_graph_cost_ms(const Cost_model& cost, const Graph& graph);

/// Spatial-split transform: conv2d(x) -> concat_h(conv2d(top+halo),
/// conv2d(bottom+halo)). Exact on values; "partially equivalent" in PET's
/// sense because the halo rows are recomputed and corrected via explicit
/// pad/slice kernels. Reports its Rewrite_delta like every corpus rule.
std::unique_ptr<Rewrite_rule> make_pet_spatial_split_rule();

/// TASO-style backtracking search driven by PET's blind cost model over the
/// standard corpus plus the spatial-split transform: optimise_taso with
/// Pet_cost, so candidates (splits included) are priced from their deltas.
/// The heartbeat in `config` is honoured exactly as in optimise_taso.
/// `initial_ms` and `final_ms` are `cost`'s honest costs of the input and
/// the best graph; `metadata` holds only "pet_believed_ms" (what PET's own
/// model believes it achieved) and "honest_ms". `rule_counts` covers the
/// corpus and the spatial split. `backend` and `device` are left to the
/// caller.
Optimize_result optimise_pet(const Graph& input, const Cost_model& cost,
                             const Taso_config& config = {});

} // namespace xrl
