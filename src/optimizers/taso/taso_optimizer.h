// TASO's cost-based backtracking search (Jia et al., SOSP'19).
//
// The greedy baseline of the paper's evaluation: a priority queue of
// candidate graphs ordered by cost-model estimate; at each step the
// cheapest graph is dequeued, every rewrite rule is applied at every
// location, and candidates within `alpha` of the best cost are enqueued.
// Backtracking tolerance alpha > 1 admits slightly-worse intermediates but
// (as the paper argues, §2.2.2) cannot plan for long-term gains.
//
// The queue holds rewrite recipes, not graphs: each entry is its parent's
// index among the popped graphs, the rule, the rewrite site and the
// candidate's canonical hash. A popped entry is rebuilt from its parent
// (Candidate_engine::rebuild, hash-checked), and so is the best graph once
// at the end, so a search holds at most budget + 1 graphs however many
// candidates it admits.
//
// Each pop costs its novel candidates — those whose canonical hash the
// search has not seen — and admits them in candidate order. optimise_taso
// (TASO's cost model, and PET's through optimise_pet) prices each
// candidate from its Rewrite_delta (Delta_pricer): the host is walked once
// per pop, and a candidate costs O(|delta|), exactly what the full walk
// would give, read from the candidate's overlay with no graph copied.
// optimise_taso_with_cost materialises every candidate and calls its
// Graph_cost_fn on it. Both run on the caller's thread and admit in
// candidate order, so both return the same result for the same cost.
//
// make_optimizer serves this search as "taso" (core/optimizer_api.h), with
// one option: "taso.budget". The other Taso_config fields keep their
// defaults there.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/optimizer_api.h"
#include "cost/cost_model.h"
#include "ir/graph.h"
#include "rules/rule.h"

namespace xrl {

struct Taso_config {
    double alpha = 1.05;          ///< Backtracking threshold.
    int budget = 100;             ///< Queue pops before giving up.
    std::size_t max_candidates_per_step = 1000;
    std::size_t max_queue = 10000;
    Search_heartbeat heartbeat;   ///< Checked once per queue pop; false stops the search.
};

/// Run the search; `cost` supplies the ranking signal (TASO's Cost_model,
/// or PET's Pet_cost). Candidates are priced from their deltas. The result
/// reports `cost`'s ms; `steps` counts queue pops, `rule_counts` the novel
/// candidates admitted per rule, and `metadata` holds
/// "candidates_generated" and "alpha". `backend` and `device` are left to
/// the caller.
Optimize_result optimise_taso(const Graph& input, const Rule_set& rules,
                              const Additive_cost& cost, const Taso_config& config = {});

/// Generic cost callback variant. `cost` is called on every graph —
/// serially on the caller's thread, input first and then in admission
/// order — so it need not be thread-safe (a timing probe around a cost
/// model may count and clock each call). For an additive cost it returns
/// optimise_taso's result exactly.
using Graph_cost_fn = std::function<double(const Graph&)>;
Optimize_result optimise_taso_with_cost(const Graph& input, const Rule_set& rules,
                                        const Graph_cost_fn& cost, const Taso_config& config);

/// Prices one host's candidates from their Rewrite_delta. reset() walks the
/// host once, keeping every reachable node's term and the per-kind sums; a
/// candidate's cost is then those sums minus the terms of the nodes it
/// removed plus the terms of the nodes it added, read from its overlay —
/// O(|delta|) work with no graph copied, and bit-identical to the full walk
/// because the terms are integers. It falls back to the full walk of the
/// materialised candidate whenever the delta cannot prove the result: no
/// delta, shapes that changed beyond the added nodes, or an added node (or
/// a splice) reading a host node the host's outputs did not reach. Debug
/// builds check every delta price against the full walk.
class Delta_pricer {
public:
    /// `cost` must outlive the pricer.
    explicit Delta_pricer(const Additive_cost& cost) : cost_(&cost) {}

    /// Walk `host` (which must outlive its use here) and return its cost.
    double reset(const Graph& host);

    /// The cost of `candidate`, an overlay on the host, with `delta` (null
    /// when its rule reported none); `from_delta` reports which path priced
    /// it. Const: safe to call concurrently between resets.
    double cost_ms(const Graph_overlay& candidate, const Rewrite_delta* delta,
                   bool* from_delta = nullptr) const;

private:
    /// The delta price; empty when the delta cannot prove it.
    std::optional<double> price(const Graph_overlay& candidate, const Rewrite_delta& delta) const;

    const Additive_cost* cost_;
    const Graph* host_ = nullptr;
    std::vector<std::int64_t> terms_; ///< The host's terms by id (reachable_sum).
    Kind_sums sums_{};
};

} // namespace xrl
