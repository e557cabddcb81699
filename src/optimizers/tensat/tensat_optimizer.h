// Tensat-style equality-saturation optimiser (the paper's Figure 8
// baseline).
//
// Single-output declarative patterns are applied as e-graph rewrites until
// saturation, an iteration cap, or the node limit (10000 in Tensat's
// default setting, which the paper notes keeps the e-graph far from
// saturated on real models). Multi-output rules — Tensat's "multi-pattern
// rewrite rules" — are limited to k applications (k = 1 by default, the
// setting the paper identifies as the reason Tensat under-performs on
// BERT-style attention stacks).
//
// make_optimizer serves this search as "tensat" (core/optimizer_api.h):
// the curated patterns plus the bespoke multi-output merges as k-limited
// multi-pattern rewrites, with one option: "tensat.max_iterations". The
// other Tensat_config fields keep their defaults there.
#pragma once

#include <vector>

#include "core/optimizer_api.h"
#include "cost/cost_model.h"
#include "optimizers/tensat/egraph.h"
#include "rules/rule.h"

namespace xrl {

struct Tensat_config {
    int max_iterations = 10;
    std::size_t node_limit = 10000;
    int multi_pattern_limit_k = 1;        ///< Tensat's k (§4.6).
    std::size_t match_limit_per_rule = 2000;
    /// Checked per saturation iteration. Equality saturation has no running
    /// best (extraction happens once at the end), so the cost argument
    /// reports the initial cost on every call.
    Search_heartbeat heartbeat;
};

/// Find all matches of a single-output pattern in the e-graph and splice in
/// the target, merging it with each matched class. Returns the number of
/// unions performed. (Exposed for tests.)
int apply_pattern_to_egraph(E_graph& egraph, const Pattern& pattern, std::size_t match_limit);

/// True when the pattern can run as an e-graph rewrite (single output, no
/// multi-output operators in either side).
bool is_egraph_compatible(const Pattern& pattern);

/// Saturate, then extract the best graph under `cost`. `steps` counts
/// saturation iterations, `rule_counts` the e-graph unions per pattern
/// name, and `metadata` holds "egraph_nodes", "egraph_classes", "saturated"
/// (0 or 1) and "multi_pattern_k". `backend` and `device` are left to the
/// caller.
Optimize_result optimise_tensat(const Graph& input, const std::vector<Pattern>& patterns,
                                const Rule_set& multi_pattern_rules, const Cost_model& cost,
                                const Tensat_config& config = {});

} // namespace xrl
