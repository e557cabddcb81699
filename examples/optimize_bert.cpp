// Transformer scenario: train an X-RLflow agent on BERT, optimise, and
// compare with TASO. Shows the rewrite sequence the agent discovered —
// including the Q/K/V projection merges and the embedding-projection fold
// that the cost model rejects but the end-to-end signal rewards.
//
//   ./examples/optimize_bert            # quick demo (8 episodes)
//   XRLFLOW_EPISODES=100 ./examples/optimize_bert
#include <cstdio>

#include "core/xrlflow.h"
#include "models/models.h"
#include "optimizers/taso/taso_optimizer.h"
#include "rules/corpus.h"
#include "support/config.h"

using namespace xrl;

int main()
{
    const int episodes = episodes_from_env() > 0 ? episodes_from_env() : 8;
    const Graph bert = make_bert(Scale::smoke, 32);
    std::printf("BERT graph: %zu nodes\n", bert.size());

    const Rule_set rules = standard_rule_corpus();
    E2e_simulator simulator(gtx1080_profile(), 3);
    const Latency_stats initial = simulator.measure_repeated(bert, 5);
    std::printf("initial latency: %.4f ms (±%.4f over 5 runs)\n\n", initial.mean_ms,
                initial.std_ms);

    // Baseline: TASO's cost-model-guided backtracking search.
    const Cost_model cost(gtx1080_profile());
    const Optimize_result taso = optimise_taso(bert, rules, cost);
    const Latency_stats taso_ms = simulator.measure_repeated(taso.best_graph, 5);
    std::printf("TASO   : %.4f ms (%.1f%% speedup, %.2f s)\n", taso_ms.mean_ms,
                (initial.mean_ms / taso_ms.mean_ms - 1.0) * 100.0, taso.wall_seconds);

    // X-RLflow: train briefly, then optimise greedily.
    Xrlflow_config config;
    config.agent.gnn.hidden_dim = 16;
    config.agent.gnn.global_dim = 16;
    config.agent.head_hidden = {64, 32};
    config.agent.max_candidates = 31;
    config.trainer.update_every_episodes = 4;
    config.trainer.ppo.minibatch_size = 8;
    config.inference_rollouts = 4;
    Xrlflow system(rules, config);
    std::printf("training X-RLflow for %d episodes...\n", episodes);
    system.train(bert, episodes);

    const Optimisation_outcome outcome = system.optimise(bert);
    const Latency_stats xrl_ms = simulator.measure_repeated(outcome.best_graph, 5);
    std::printf("X-RLflow: %.4f ms (%.1f%% speedup, %d steps)\n\n", xrl_ms.mean_ms,
                (initial.mean_ms / xrl_ms.mean_ms - 1.0) * 100.0, outcome.steps);

    std::printf("rewrites applied by the agent:\n");
    for (std::size_t r = 0; r < rules.size(); ++r)
        if (outcome.rule_counts[r] > 0)
            std::printf("  %3dx %s\n", outcome.rule_counts[r], rules[r]->name().c_str());
    return 0;
}
