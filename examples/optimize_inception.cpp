// Convnet scenario: InceptionV3. Demonstrates why the end-to-end feedback
// signal matters — batch-norm folding looks *worse* to the sum-of-kernels
// cost model (it adds weight-arithmetic kernels) but much better end to
// end (those kernels are constant-folded offline). TASO therefore skips
// it; the RL agent takes it.
//
//   ./examples/optimize_inception
#include <cstdio>

#include "core/xrlflow.h"
#include "models/models.h"
#include "optimizers/taso/taso_optimizer.h"
#include "rules/bespoke_rules.h"
#include "rules/corpus.h"
#include "support/config.h"

using namespace xrl;

int main()
{
    const int episodes = episodes_from_env() > 0 ? episodes_from_env() : 8;
    const Graph model = make_inception_v3(Scale::smoke);
    std::printf("InceptionV3 graph: %zu nodes\n", model.size());

    const Cost_model cost(gtx1080_profile());
    E2e_simulator simulator(gtx1080_profile(), 5);

    // Show the cost-model blind spot on one batch-norm fold.
    const auto fold_rule = make_fold_batch_norm_rule();
    const auto folded_once = fold_rule->apply_all(model, 1);
    if (!folded_once.empty()) {
        std::printf("\none batch-norm fold:\n");
        std::printf("  cost model : %.4f -> %.4f ms  (thinks it got WORSE)\n",
                    cost.graph_cost_ms(model), cost.graph_cost_ms(folded_once.front()));
        std::printf("  end-to-end : %.4f -> %.4f ms  (actually improved)\n\n",
                    simulator.noiseless_ms(model), simulator.noiseless_ms(folded_once.front()));
    }

    const Rule_set rules = standard_rule_corpus();
    const Optimize_result taso = optimise_taso(model, rules, cost);
    std::printf("TASO    : %.4f -> %.4f ms end-to-end\n", simulator.noiseless_ms(model),
                simulator.noiseless_ms(taso.best_graph));

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
    system.train(model, episodes);
    const Optimisation_outcome outcome = system.optimise(model);
    std::printf("X-RLflow: %.4f -> %.4f ms end-to-end (%.1f%% speedup)\n", outcome.initial_ms,
                outcome.final_ms, (outcome.speedup() - 1.0) * 100.0);

    int folds = 0;
    for (std::size_t r = 0; r < rules.size(); ++r)
        if (rules[r]->name() == "fold-batch-norm-into-conv") folds = outcome.rule_counts[r];
    std::printf("batch-norm folds taken by the agent: %d\n", folds);
    return 0;
}
