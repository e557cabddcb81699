#include "optimizers/tensat/tensat_optimizer.h"

#include <chrono>
#include <functional>
#include <unordered_map>
#include <utility>

#include "optimizers/taso/taso_optimizer.h"
#include "rules/bespoke_rules.h"
#include "rules/candidate_engine.h"
#include "rules/corpus.h"
#include "support/check.h"

namespace xrl {

namespace {

bool is_pattern_variable(const Graph& g, Node_id id)
{
    return g.node(id).kind == Op_kind::input;
}

/// A successful e-match. Matched operator parameters are kept as their shared
/// blocks, not as pointers into e-nodes: the e-graph is mutated after
/// matching, so those would dangle.
struct Ematch {
    std::unordered_map<Node_id, Eclass_id> vars;        // pattern var -> class
    std::unordered_map<Node_id, Eclass_id> node_class;  // pattern node -> class
    std::unordered_map<Node_id, Shared_params> node_params; // pattern node -> matched params
};

/// Recursive e-matching with continuations: pattern DAGs are explored
/// depth-first; every e-node of a class is a branch point.
class E_matcher {
public:
    E_matcher(const E_graph& eg, const Pattern& pattern, std::size_t limit)
        : eg_(eg), pattern_(pattern), limit_(limit)
    {
    }

    std::vector<Ematch> run()
    {
        const Edge root = pattern_.source.outputs().front();
        XRL_EXPECTS(!is_pattern_variable(pattern_.source, root.node));
        for (const Eclass_id cls : eg_.canonical_classes()) {
            if (results_.size() >= limit_) break;
            match_pattern_node(root.node, cls, Ematch{},
                               [this](Ematch done) { complete(std::move(done)); });
        }
        return std::move(results_);
    }

private:
    using Continuation = std::function<void(Ematch)>;

    bool params_ok(const Node& pattern_node, const E_node& enode, Node_id pattern_id) const
    {
        const auto mode_it = pattern_.param_modes.find(pattern_id);
        const Param_match mode =
            mode_it == pattern_.param_modes.end() ? Param_match::exact : mode_it->second;
        if (mode == Param_match::exact) return pattern_node.params == enode.params;
        const auto act_it = pattern_.required_activation.find(pattern_id);
        if (act_it != pattern_.required_activation.end())
            return enode.params->activation == act_it->second;
        return true;
    }

    void match_pattern_node(Node_id pid, Eclass_id cls, Ematch state, const Continuation& k)
    {
        if (results_.size() >= limit_) return;
        cls = eg_.find(cls);
        const auto bound = state.node_class.find(pid);
        if (bound != state.node_class.end()) {
            if (eg_.find(bound->second) == cls) k(std::move(state));
            return;
        }
        const Node& pn = pattern_.source.node(pid);
        for (const E_node& enode : eg_.class_nodes(cls)) {
            if (results_.size() >= limit_) return;
            if (enode.proj_port >= 0) continue;
            if (enode.kind != pn.kind) continue;
            if (enode.children.size() != pn.inputs.size()) continue;
            if (!params_ok(pn, enode, pid)) continue;

            Ematch next = state;
            next.node_class[pid] = cls;
            next.node_params[pid] = enode.params;

            if (is_commutative(pn.kind) && pn.inputs.size() == 2) {
                match_slots(pid, {enode.children[0], enode.children[1]}, 0, next, k);
                match_slots(pid, {enode.children[1], enode.children[0]}, 0, next, k);
            } else {
                match_slots(pid, enode.children, 0, next, k);
            }
        }
    }

    void match_slots(Node_id pid, const std::vector<Eclass_id>& children, std::size_t slot,
                     Ematch state, const Continuation& k)
    {
        const Node& pn = pattern_.source.node(pid);
        if (slot == pn.inputs.size()) {
            k(std::move(state));
            return;
        }
        const Edge pedge = pn.inputs[slot];
        const Eclass_id child_cls = eg_.find(children[slot]);
        if (is_pattern_variable(pattern_.source, pedge.node)) {
            const auto it = state.vars.find(pedge.node);
            if (it != state.vars.end() && eg_.find(it->second) != child_cls) return;
            state.vars[pedge.node] = child_cls;
            match_slots(pid, children, slot + 1, std::move(state), k);
            return;
        }
        match_pattern_node(pedge.node, child_cls, std::move(state),
                           [this, pid, &children, slot, &k](Ematch done) {
                               match_slots(pid, children, slot + 1, std::move(done), k);
                           });
    }

    void complete(Ematch state)
    {
        if (results_.size() >= limit_) return;
        for (const Node_id pid : pattern_.source.node_ids()) {
            if (is_pattern_variable(pattern_.source, pid)) continue;
            if (!state.node_class.contains(pid)) return;
        }
        for (const auto& [a, b] : pattern_.equal_params)
            if (!(state.node_params.at(a) == state.node_params.at(b))) return;
        results_.push_back(std::move(state));
    }

    const E_graph& eg_;
    const Pattern& pattern_;
    std::size_t limit_;
    std::vector<Ematch> results_;
};

} // namespace

bool is_egraph_compatible(const Pattern& pattern)
{
    if (pattern.source.outputs().size() != 1) return false;
    for (const Graph* g : {&pattern.source, &pattern.target})
        for (const Node_id id : g->node_ids())
            if (g->node(id).kind == Op_kind::split || g->node(id).kind == Op_kind::constant)
                return false;
    return true;
}

int apply_pattern_to_egraph(E_graph& eg, const Pattern& pattern, std::size_t match_limit)
{
    const std::vector<Ematch> matches = E_matcher(eg, pattern, match_limit).run();
    int unions = 0;
    for (const Ematch& m : matches) {
        std::unordered_map<Node_id, Eclass_id> instantiated;
        Eclass_id root_cls = -1;
        try {
            for (const Node_id tid : pattern.target.topo_order()) {
                const Node& tn = pattern.target.node(tid);
                if (tn.kind == Op_kind::input) {
                    for (std::size_t i = 0; i < pattern.target_variables.size(); ++i) {
                        if (pattern.target_variables[i] != tid) continue;
                        const auto it = m.vars.find(pattern.source_variables[i]);
                        if (it != m.vars.end()) instantiated[tid] = it->second;
                    }
                    continue;
                }
                E_node enode;
                enode.kind = tn.kind;
                enode.params = tn.params;
                const auto transfer = pattern.param_transfers.find(tid);
                if (transfer != pattern.param_transfers.end()) {
                    enode.params = m.node_params.at(transfer->second.from_source_node);
                    if (transfer->second.set_activation.has_value())
                        enode.params =
                            enode.params.with_activation(*transfer->second.set_activation);
                }
                for (const Edge& e : tn.inputs) {
                    const auto it = instantiated.find(e.node);
                    XRL_EXPECTS(it != instantiated.end());
                    enode.children.push_back(it->second);
                }
                instantiated[tid] = eg.add(std::move(enode));
            }
            const Edge target_out = pattern.target.outputs().front();
            if (is_pattern_variable(pattern.target, target_out.node)) {
                // Target collapses to a variable (elimination rules).
                const auto it = instantiated.find(target_out.node);
                if (it == instantiated.end()) continue;
                root_cls = it->second;
            } else {
                root_cls = instantiated.at(target_out.node);
            }
        } catch (const Contract_violation&) {
            continue; // shape inference rejected this instantiation
        }
        const Edge source_out = pattern.source.outputs().front();
        const Eclass_id matched_cls = m.node_class.at(source_out.node);
        if (eg.merge(matched_cls, root_cls)) ++unions;
    }
    return unions;
}

Optimize_result optimise_tensat(const Graph& input, const std::vector<Pattern>& patterns,
                                const Rule_set& multi_pattern_rules, const Cost_model& cost,
                                const Tensat_config& config)
{
    const auto start = std::chrono::steady_clock::now();
    Optimize_result result;
    result.initial_ms = cost.graph_cost_ms(input);

    // Multi-pattern rules: Tensat bounds their application to k rounds
    // (k = 1 by default); we apply them greedily up to k times before
    // encoding, which reproduces the BERT-vs-convnet behaviour of §4.6.
    // Candidates come from the shared engine (deduped, deterministic
    // order), which cannot change the greedy winner: duplicates tie on
    // cost and the strict comparison keeps the first occurrence. Each is
    // priced from its overlay and delta (bit-identical to the full walk),
    // and only the round's winner is materialised.
    Candidate_engine seed_engine(multi_pattern_rules, Candidate_engine_config{64});
    Delta_pricer pricer(cost);
    Graph seeded = input;
    Graph winner;
    for (int round = 0; round < config.multi_pattern_limit_k; ++round) {
        double best_cost = pricer.reset(seeded);
        const Graph_overlay* best = nullptr;
        for (const Candidate_engine::Step_candidate& candidate :
             seed_engine.generate_step(seeded).candidates) {
            const double c = pricer.cost_ms(*candidate.graph, candidate.delta);
            if (c < best_cost) {
                best_cost = c;
                best = candidate.graph;
            }
        }
        if (best == nullptr) break;
        best->materialise(winner);
        std::swap(seeded, winner);
    }

    Egraph_encoding enc = encode_graph(seeded);

    std::vector<Pattern> usable;
    for (const Pattern& p : patterns)
        if (is_egraph_compatible(p)) usable.push_back(p);

    bool saturated = false;
    for (int iter = 0; iter < config.max_iterations; ++iter) {
        if (config.heartbeat && !config.heartbeat(result.steps, result.initial_ms)) {
            result.cancelled = true;
            break;
        }
        ++result.steps;
        const std::size_t nodes_before = enc.egraph.num_nodes();
        int unions = 0;
        for (const Pattern& p : usable) {
            const int made = apply_pattern_to_egraph(enc.egraph, p, config.match_limit_per_rule);
            if (made > 0) result.rule_counts[p.name] += made;
            unions += made;
            if (enc.egraph.num_nodes() > config.node_limit) break;
        }
        enc.egraph.rebuild();
        if (enc.egraph.num_nodes() > config.node_limit) break;
        if (unions == 0 && enc.egraph.num_nodes() == nodes_before) {
            saturated = true;
            break;
        }
    }

    result.metadata["egraph_nodes"] = static_cast<double>(enc.egraph.num_nodes());
    result.metadata["egraph_classes"] = static_cast<double>(enc.egraph.num_classes());
    result.metadata["saturated"] = saturated ? 1.0 : 0.0;
    result.metadata["multi_pattern_k"] = config.multi_pattern_limit_k;

    auto extracted = extract_best(enc.egraph, enc.roots, cost);
    XRL_ENSURES(extracted.has_value());
    result.best_graph = std::move(*extracted);
    result.final_ms = cost.graph_cost_ms(result.best_graph);
    // Defensive: extraction should never lose to its own seed.
    if (result.final_ms > cost.graph_cost_ms(seeded)) {
        result.best_graph = std::move(seeded);
        result.final_ms = cost.graph_cost_ms(result.best_graph);
    }
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

} // namespace xrl
