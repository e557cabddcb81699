#include "optimizers/taso/taso_optimizer.h"

#include <chrono>
#include <deque>
#include <optional>
#include <queue>
#include <unordered_set>

#include "rules/candidate_engine.h"
#include "support/check.h"

namespace xrl {

namespace {

/// A queued candidate, held as the recipe that rebuilds it from its parent
/// (an index into the popped graphs; -1 = the input graph) rather than as
/// a graph: thousands are admitted, only `budget` are ever popped.
struct Queued_recipe {
    double cost;
    std::size_t order; // FIFO tie-break for determinism
    std::ptrdiff_t parent;
    Candidate_engine::Recipe recipe;
    std::uint64_t hash; // canonical_hash of the candidate, checked on rebuild
};

struct Cost_greater {
    bool operator()(const Queued_recipe& a, const Queued_recipe& b) const
    {
        if (a.cost != b.cost) return a.cost > b.cost;
        return a.order > b.order;
    }
};

/// The search loop behind both entry points, on the caller's thread. With
/// `serial_cost` set, every graph is costed through it, in admission order;
/// otherwise through `additive`, each candidate priced from its delta.
Optimize_result search(const Graph& input, const Rule_set& rules, const Graph_cost_fn* serial_cost,
                       const Additive_cost* additive, const Taso_config& config)
{
    const auto start = std::chrono::steady_clock::now();

    Optimize_result result;
    result.initial_ms =
        serial_cost != nullptr ? (*serial_cost)(input) : additive->graph_cost_ms(input);
    result.best_graph = input;
    result.final_ms = result.initial_ms;

    std::priority_queue<Queued_recipe, std::vector<Queued_recipe>, Cost_greater> queue;
    std::unordered_set<std::uint64_t> seen;
    std::size_t order = 0;
    queue.push({result.initial_ms, order++, -1, {}, input.canonical_hash()});
    seen.insert(queue.top().hash);
    std::vector<int> admitted_per_rule(rules.size(), 0); // novel candidates per rule index
    int candidates_generated = 0;

    // Every popped graph, rebuilt from its parent's entry here. Deque
    // elements never move, so a child's rebuild reads its parent in place;
    // with the best graph's final rebuild, at most budget + 1 graphs exist.
    std::deque<Graph> popped;
    std::optional<Queued_recipe> best; // the best candidate so far; empty = the input

    std::optional<Delta_pricer> pricer;
    if (serial_cost == nullptr) pricer.emplace(*additive);
    Graph costed; // the serial cost's view of each candidate, recycled

    // One engine for the whole search: every rule lists its sites against a
    // shared op-kind index, a candidate is only built after its site
    // fingerprint survived dedup, builds fan out on the shared pool, and
    // candidates stay overlays in the engine's recycled slots (the queue
    // keeps recipes; only pops and the best graph are materialised). The
    // cross-iteration `seen` cache stays here — it spans queue pops.
    Candidate_engine engine(rules, Candidate_engine_config{config.max_candidates_per_step});
    const auto rebuild_into = [&](const Queued_recipe& entry, Graph& out) {
        const std::uint64_t hash =
            engine.rebuild(popped[static_cast<std::size_t>(entry.parent)], entry.recipe, out);
        XRL_ENSURES(hash == entry.hash);
    };

    while (!queue.empty() && result.steps < config.budget) {
        if (config.heartbeat && !config.heartbeat(result.steps, result.final_ms)) {
            result.cancelled = true;
            break;
        }
        const Queued_recipe current = queue.top(); // a recipe: a few hundred bytes
        queue.pop();
        ++result.steps;

        const auto parent = static_cast<std::ptrdiff_t>(popped.size());
        Graph& host = popped.emplace_back();
        if (current.parent < 0)
            host = input;
        else
            rebuild_into(current, host);

        // Cost each novel candidate and admit it, in candidate order:
        // admission reads the running best cost. Pricing from a delta is
        // O(|delta|) once the host is walked, so it runs on this thread.
        const Candidate_engine::Step_generated& generated = engine.generate_step(host);
        candidates_generated += static_cast<int>(generated.candidates.size());
        if (pricer.has_value() && !generated.candidates.empty()) pricer->reset(host);
        for (const Candidate_engine::Step_candidate& candidate : generated.candidates) {
            if (!seen.insert(candidate.hash).second) continue;
            ++admitted_per_rule[static_cast<std::size_t>(candidate.rule_index)];
            double candidate_cost = 0.0;
            if (serial_cost != nullptr) {
                candidate.graph->materialise(costed);
                candidate_cost = (*serial_cost)(costed);
            } else {
                candidate_cost = pricer->cost_ms(*candidate.graph, candidate.delta);
            }
            const bool improves = candidate_cost < result.final_ms;
            if (improves) result.final_ms = candidate_cost;
            const bool admitted = candidate_cost < config.alpha * result.final_ms &&
                                  queue.size() < config.max_queue;
            if (!improves && !admitted) continue;
            Queued_recipe entry{candidate_cost, order, parent, candidate.recipe(), candidate.hash};
            if (improves) best = entry;
            if (admitted) {
                ++order;
                queue.push(std::move(entry));
            }
        }
    }
    if (best.has_value()) rebuild_into(*best, result.best_graph);

    for (std::size_t i = 0; i < rules.size(); ++i)
        if (admitted_per_rule[i] > 0) result.rule_counts[rules[i]->name()] = admitted_per_rule[i];
    result.metadata["candidates_generated"] = candidates_generated;
    result.metadata["alpha"] = config.alpha;
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

} // namespace

Optimize_result optimise_taso(const Graph& input, const Rule_set& rules,
                              const Additive_cost& cost, const Taso_config& config)
{
    return search(input, rules, nullptr, &cost, config);
}

Optimize_result optimise_taso_with_cost(const Graph& input, const Rule_set& rules,
                                        const Graph_cost_fn& cost, const Taso_config& config)
{
    return search(input, rules, &cost, nullptr, config);
}

double Delta_pricer::reset(const Graph& host)
{
    host_ = &host;
    sums_ = reachable_sum(host, *cost_, &terms_);
    return cost_->finish(sums_);
}

double Delta_pricer::cost_ms(const Graph_overlay& candidate, const Rewrite_delta* delta,
                             bool* from_delta) const
{
    XRL_EXPECTS(&candidate.host() == host_);
    const std::optional<double> priced =
        delta != nullptr ? price(candidate, *delta) : std::nullopt;
    if (from_delta != nullptr) *from_delta = priced.has_value();
    if (!priced.has_value()) return cost_->graph_cost_ms(Graph(candidate));
#ifndef NDEBUG
    XRL_ENSURES(*priced == cost_->graph_cost_ms(Graph(candidate)));
#endif
    return *priced;
}

std::optional<double> Delta_pricer::price(const Graph_overlay& candidate,
                                          const Rewrite_delta& delta) const
{
    // With local shapes every node the host and the candidate share keeps
    // its term. The candidate's reachable set is then the host's minus
    // `removed` plus `added`, provided nothing new reads a host node the
    // host's outputs did not reach (ids past the host's are added nodes).
    if (!delta.valid || !delta.shapes_local) return std::nullopt;
    const auto reached = [&](Node_id id) {
        const auto i = static_cast<std::size_t>(id);
        return i >= terms_.size() || terms_[i] != unreached_term;
    };
    for (const Rewired_edge& rw : delta.rewired)
        if (!reached(rw.after.node)) return std::nullopt;
    Kind_sums sums = sums_;
    for (const Node_id id : delta.removed) {
        const std::int64_t term = terms_[static_cast<std::size_t>(id)];
        if (term != unreached_term)
            sums[static_cast<std::size_t>(host_->node(id).kind)] -= term;
    }
    for (const Node_id id : delta.added) {
        const Node& n = candidate.node(id);
        for (const Edge& e : n.inputs)
            if (!reached(e.node)) return std::nullopt;
        if (n.kind != Op_kind::input)
            sums[static_cast<std::size_t>(n.kind)] += cost_->term(candidate, id);
    }
    return cost_->finish(sums);
}

} // namespace xrl
