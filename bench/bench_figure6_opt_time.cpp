// Figure 6: optimisation wall-clock time — TASO's search vs X-RLflow's
// greedy inference episode (training time excluded, as in the paper).
//
// Paper shape: TASO < 75 s per model; X-RLflow longer (a forward pass per
// step) but < 200 s — "affordable before model deployment".
#include <cstdio>

#include "bench_common.h"
#include "rules/corpus.h"

using namespace xrlbench;

int main()
{
    const Bench_setup setup = setup_from_env();
    print_header("Figure 6: optimisation time (seconds)");

    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    const Taso_config taso_config = default_taso_config(setup);

    std::printf("%-14s %14s %18s\n", "DNN", "TASO (s)", "X-RLflow (s)");
    std::printf("------------------------------------------------\n");
    for (const Model_spec& spec : evaluation_models(setup.scale)) {
        const Graph model = spec.build();
        const Optimize_result taso = optimise_taso(model, rules, cost, taso_config);
        const auto system = trained_system(rules, spec, setup);
        const Optimisation_outcome outcome = system->optimise(model);
        std::printf("%-14s %14.2f %18.2f\n", spec.name.c_str(), taso.wall_seconds,
                    outcome.optimisation_seconds);
        std::fflush(stdout);
    }
    std::printf("\nPaper Figure 6: TASO < 75 s; X-RLflow < 200 s (the agent's forward\n"
                "pass per iteration dominates; CPU-bound in both reproductions).\n");
    return 0;
}
