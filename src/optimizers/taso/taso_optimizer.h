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
// search has not seen — as one batch, then admits them in candidate order:
// optimise_taso and PET cost the batch in parallel on the shared thread
// pool; optimise_taso_with_cost costs it serially on the caller's thread.
// Admission reads the costs in candidate order either way, so every entry
// point returns the same result for the same cost.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
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

struct Taso_result {
    Graph best_graph;
    double initial_cost_ms = 0.0;
    double best_cost_ms = 0.0;
    int iterations = 0;
    int candidates_generated = 0;
    double optimisation_seconds = 0.0;
    bool stopped_early = false;       ///< Heartbeat asked the search to stop.
    std::vector<int> rule_candidates; ///< Novel candidates admitted per rule index.
};

/// Run the search; `cost` supplies the ranking signal (the TASO cost
/// model). Each pop's costs fan out on the shared pool.
Taso_result optimise_taso(const Graph& input, const Rule_set& rules, const Cost_model& cost,
                          const Taso_config& config = {});

/// Generic cost callback variant. `cost` is called serially on the
/// caller's thread, input first and then in admission order, so it need
/// not be thread-safe (a timing probe around a cost model may count and
/// clock each call).
using Graph_cost_fn = std::function<double(const Graph&)>;
Taso_result optimise_taso_with_cost(const Graph& input, const Rule_set& rules,
                                    const Graph_cost_fn& cost, const Taso_config& config);

/// As optimise_taso_with_cost, but `cost` must be pure and safe to call
/// concurrently (Cost_model's and PET's graph costs are: const, no
/// caches): each pop's novel candidates are costed on the shared pool.
/// optimise_taso and optimise_pet run through it.
Taso_result optimise_taso_with_pure_cost(const Graph& input, const Rule_set& rules,
                                         const Graph_cost_fn& cost, const Taso_config& config);

/// Register the "taso" backend. Options: "taso.alpha", "taso.budget",
/// "taso.max_candidates_per_step", "taso.max_queue".
void register_taso_backend(Optimizer_registry& registry);

} // namespace xrl
