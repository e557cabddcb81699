#include "optimizers/taso/taso_optimizer.h"

#include <chrono>
#include <queue>
#include <unordered_set>

#include "rules/candidate_engine.h"
#include "support/check.h"

namespace xrl {

namespace {

struct Queued_graph {
    double cost;
    std::size_t order; // FIFO tie-break for determinism
    Graph graph;
};

struct Cost_greater {
    bool operator()(const Queued_graph& a, const Queued_graph& b) const
    {
        if (a.cost != b.cost) return a.cost > b.cost;
        return a.order > b.order;
    }
};

} // namespace

Taso_result optimise_taso_with_cost(const Graph& input, const Rule_set& rules,
                                    const Graph_cost_fn& cost, const Taso_config& config)
{
    const auto start = std::chrono::steady_clock::now();

    Taso_result result;
    result.initial_cost_ms = cost(input);
    result.best_graph = input;
    result.best_cost_ms = result.initial_cost_ms;

    std::priority_queue<Queued_graph, std::vector<Queued_graph>, Cost_greater> queue;
    std::unordered_set<std::uint64_t> seen;
    std::size_t order = 0;
    queue.push({result.initial_cost_ms, order++, input});
    seen.insert(input.canonical_hash());
    result.rule_candidates.assign(rules.size(), 0);

    // One engine for the whole search: matching fans out across the rule
    // corpus with a shared op-kind index, a candidate is only materialised
    // after its match-site fingerprint survived dedup, and candidate graphs
    // land in the engine's recycled slots. The cross-iteration `seen` cache
    // stays here — it spans queue pops.
    Candidate_engine engine(rules, Candidate_engine_config{config.max_candidates_per_step, 0});

    while (!queue.empty() && result.iterations < config.budget) {
        if (config.heartbeat && !config.heartbeat(result.iterations, result.best_cost_ms)) {
            result.stopped_early = true;
            break;
        }
        Queued_graph current = queue.top();
        queue.pop();
        ++result.iterations;

        for (const Candidate_engine::Step_candidate& candidate :
             engine.generate_step(current.graph).candidates) {
            ++result.candidates_generated;
            if (!seen.insert(candidate.hash).second) continue;
            ++result.rule_candidates[static_cast<std::size_t>(candidate.rule_index)];
            const double candidate_cost = cost(*candidate.graph);
            if (candidate_cost < result.best_cost_ms) {
                result.best_cost_ms = candidate_cost;
                result.best_graph = *candidate.graph;
            }
            // The queue takes the graph out of the engine's slot; the
            // engine refills the slot on its next use.
            if (candidate_cost < config.alpha * result.best_cost_ms &&
                queue.size() < config.max_queue)
                queue.push({candidate_cost, order++, std::move(*candidate.graph)});
        }
    }

    result.optimisation_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

Taso_result optimise_taso(const Graph& input, const Rule_set& rules, const Cost_model& cost,
                          const Taso_config& config)
{
    return optimise_taso_with_cost(
        input, rules, [&cost](const Graph& g) { return cost.graph_cost_ms(g); }, config);
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
