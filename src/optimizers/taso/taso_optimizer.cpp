#include "optimizers/taso/taso_optimizer.h"

#include <chrono>
#include <deque>
#include <optional>
#include <queue>
#include <unordered_set>

#include "rules/candidate_engine.h"
#include "support/check.h"
#include "support/thread_pool.h"

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

/// The search loop behind every entry point. With `pool` null, `cost` is
/// called serially on the caller's thread, in admission order; otherwise
/// each pop's novel candidates are costed on `pool`.
Taso_result search(const Graph& input, const Rule_set& rules, const Graph_cost_fn& cost,
                   Thread_pool* pool, const Taso_config& config)
{
    const auto start = std::chrono::steady_clock::now();

    Taso_result result;
    result.initial_cost_ms = cost(input);
    result.best_graph = input;
    result.best_cost_ms = result.initial_cost_ms;

    std::priority_queue<Queued_recipe, std::vector<Queued_recipe>, Cost_greater> queue;
    std::unordered_set<std::uint64_t> seen;
    std::size_t order = 0;
    queue.push({result.initial_cost_ms, order++, -1, {}, input.canonical_hash()});
    seen.insert(queue.top().hash);
    result.rule_candidates.assign(rules.size(), 0);

    // Every popped graph, rebuilt from its parent's entry here. Deque
    // elements never move, so a child's rebuild reads its parent in place;
    // with the best graph's final rebuild, at most budget + 1 graphs exist.
    std::deque<Graph> popped;
    std::optional<Queued_recipe> best; // the best candidate so far; empty = the input

    // One pop's novel candidates and their costs.
    std::vector<const Candidate_engine::Step_candidate*> novel;
    std::vector<double> costs;

    // One engine for the whole search: every rule lists its sites against a
    // shared op-kind index, a candidate is only built after its site
    // fingerprint survived dedup, builds fan out on the shared pool, and
    // candidate graphs stay in the engine's recycled slots (the queue keeps
    // recipes). The cross-iteration `seen` cache stays here — it spans
    // queue pops.
    Candidate_engine engine(rules, Candidate_engine_config{config.max_candidates_per_step, 0});
    const auto rebuild_into = [&](const Queued_recipe& entry, Graph& out) {
        const std::uint64_t hash =
            engine.rebuild(popped[static_cast<std::size_t>(entry.parent)], entry.recipe, out);
        XRL_ENSURES(hash == entry.hash);
    };

    while (!queue.empty() && result.iterations < config.budget) {
        if (config.heartbeat && !config.heartbeat(result.iterations, result.best_cost_ms)) {
            result.stopped_early = true;
            break;
        }
        const Queued_recipe current = queue.top(); // a recipe: a few hundred bytes
        queue.pop();
        ++result.iterations;

        const auto parent = static_cast<std::ptrdiff_t>(popped.size());
        Graph& host = popped.emplace_back();
        if (current.parent < 0)
            host = input;
        else
            rebuild_into(current, host);

        // Cost the pop's novel candidates as one batch, then admit them in
        // candidate order: admission reads the running best cost, so the
        // order — not how the batch was costed — decides the result.
        const Candidate_engine::Step_generated& generated = engine.generate_step(host);
        result.candidates_generated += static_cast<int>(generated.candidates.size());
        novel.clear();
        for (const Candidate_engine::Step_candidate& candidate : generated.candidates)
            if (seen.insert(candidate.hash).second) novel.push_back(&candidate);
        costs.resize(novel.size());
        const auto cost_one = [&](std::size_t i) { costs[i] = cost(*novel[i]->graph); };
        if (pool != nullptr) {
            pool->run(novel.size(), cost_one);
        } else {
            for (std::size_t i = 0; i < novel.size(); ++i) cost_one(i);
        }

        for (std::size_t i = 0; i < novel.size(); ++i) {
            const Candidate_engine::Step_candidate& candidate = *novel[i];
            ++result.rule_candidates[static_cast<std::size_t>(candidate.rule_index)];
            const double candidate_cost = costs[i];
            const bool improves = candidate_cost < result.best_cost_ms;
            if (improves) result.best_cost_ms = candidate_cost;
            const bool admitted = candidate_cost < config.alpha * result.best_cost_ms &&
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

    result.optimisation_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

} // namespace

Taso_result optimise_taso(const Graph& input, const Rule_set& rules, const Cost_model& cost,
                          const Taso_config& config)
{
    return optimise_taso_with_pure_cost(
        input, rules, [&cost](const Graph& g) { return cost.graph_cost_ms(g); }, config);
}

Taso_result optimise_taso_with_cost(const Graph& input, const Rule_set& rules,
                                    const Graph_cost_fn& cost, const Taso_config& config)
{
    return search(input, rules, cost, nullptr, config);
}

Taso_result optimise_taso_with_pure_cost(const Graph& input, const Rule_set& rules,
                                         const Graph_cost_fn& cost, const Taso_config& config)
{
    return search(input, rules, cost, &Thread_pool::shared(), config);
}

namespace {

class Taso_backend final : public Optimizer {
public:
    explicit Taso_backend(const Optimizer_context& context) : context_(context)
    {
        base_.alpha = context.option_or("taso.alpha", base_.alpha);
        base_.budget = static_cast<int>(context.option_or("taso.budget", base_.budget));
        base_.max_candidates_per_step = static_cast<std::size_t>(
            context.option_or("taso.max_candidates_per_step",
                              static_cast<double>(base_.max_candidates_per_step)));
        base_.max_queue = static_cast<std::size_t>(
            context.option_or("taso.max_queue", static_cast<double>(base_.max_queue)));
    }

    std::string name() const override { return "taso"; }

    Optimize_result optimize(const Graph& graph, const Optimize_request& request) override
    {
        Taso_config config = base_;
        if (request.iteration_budget > 0) config.budget = request.iteration_budget;
        const Progress_driver driver(name(), request);
        config.heartbeat = driver.heartbeat();

        // The cost model is per request, not per backend instance: the same
        // instance serves every device in the fleet.
        const Cost_model& cost = context_.cost_for(request);
        const Taso_result inner = optimise_taso(graph, *context_.rules, cost, config);

        Optimize_result result;
        result.backend = name();
        result.device = cost.device().name;
        result.best_graph = inner.best_graph;
        result.initial_ms = inner.initial_cost_ms;
        result.final_ms = inner.best_cost_ms;
        result.steps = inner.iterations;
        result.wall_seconds = inner.optimisation_seconds;
        result.cancelled = inner.stopped_early;
        for (std::size_t i = 0; i < inner.rule_candidates.size(); ++i)
            if (inner.rule_candidates[i] > 0)
                result.rule_counts[(*context_.rules)[i]->name()] = inner.rule_candidates[i];
        result.metadata["candidates_generated"] = inner.candidates_generated;
        result.metadata["alpha"] = config.alpha;
        return result;
    }

private:
    Optimizer_context context_;
    Taso_config base_;
};

} // namespace

void register_taso_backend(Optimizer_registry& registry)
{
    registry.add("taso", [](const Optimizer_context& context) -> std::unique_ptr<Optimizer> {
        return std::make_unique<Taso_backend>(context);
    });
}

} // namespace xrl
