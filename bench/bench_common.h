// Shared helpers for the table/figure reproduction benches.
//
// Scale handling: XRLFLOW_SCALE=smoke (default) runs reduced-width models
// and short training so the whole bench suite finishes in minutes on a
// CPU; XRLFLOW_SCALE=paper runs full-size models and long training.
// XRLFLOW_EPISODES overrides the per-model training episode count;
// XRLFLOW_SEED the master seed.
//
// Trained policies are cached in ./xrlflow_policies/ so the figure benches
// that share agents (4, 5, 6, 7) do not retrain: running
// bench_figure4_speedup first warms the cache for the rest.
#pragma once

#include <memory>
#include <string>

#include "core/optimization_service.h"
#include "core/xrlflow.h"
#include "models/models.h"
#include "optimizers/taso/taso_optimizer.h"
#include "support/config.h"

namespace xrlbench {

using namespace xrl;

struct Bench_setup {
    Scale scale = Scale::smoke;
    std::uint64_t seed = 7;
    int episodes = 10;
};

/// Resolve scale/seed/episodes from the environment.
Bench_setup setup_from_env(int smoke_episodes = 20, int paper_episodes = 600);

/// X-RLflow configuration used across all benches (paper Table 4 values
/// where applicable; reduced network width at smoke scale).
Xrlflow_config default_xrlflow_config(const Bench_setup& setup);

/// TASO search budget per scale.
Taso_config default_taso_config(const Bench_setup& setup);

/// Optimization_service configuration carrying the same per-scale search
/// budgets, for benches that drive backends through the unified API.
Service_config default_service_config(const Bench_setup& setup);

/// Train an agent for `spec`'s model — or load it from the policy cache if
/// a previous bench already trained it. Returns a ready system.
std::unique_ptr<Xrlflow> trained_system(const Rule_set& rules, const Model_spec& spec,
                                        const Bench_setup& setup);

/// ./xrlflow_policies/<model>_<scale>_<episodes>_seed<seed>.bin
std::string policy_cache_path(const std::string& model_name, const Bench_setup& setup);

/// Print an 80-column horizontal rule and a centred title.
void print_header(const std::string& title);

} // namespace xrlbench
