// X-RLflow facade: the end-to-end tensor-graph superoptimiser.
//
// Owns the rule corpus, device simulator, agent, and training loop; exposes
// the three operations the evaluation needs: train on a model, optimise a
// model with the trained policy (greedy inference), and optimise an unseen
// shape variant with the same policy (Figure 7 generalisation).
#pragma once

#include <memory>
#include <string>

#include "core/agent.h"
#include "core/optimizer_api.h"
#include "core/trainer.h"
#include "cost/device.h"
#include "env/environment.h"
#include "rules/corpus.h"

namespace xrl {

struct Xrlflow_config {
    Agent_config agent;
    Env_config env;
    Trainer_config trainer;
    Device_profile device = gtx1080_profile();
    std::uint64_t seed = 7;

    /// Transformation episodes run at inference: the first is greedy, the
    /// rest sample from the policy; the best graph seen wins. 1 reproduces
    /// the paper's single greedy episode (appropriate after full-scale
    /// training); the smoke-scale benches use a few stochastic roll-outs to
    /// compensate for their much shorter training budget.
    int inference_rollouts = 1;
};

struct Optimisation_outcome {
    Graph best_graph;
    double initial_ms = 0.0;
    double final_ms = 0.0;
    int steps = 0;
    double optimisation_seconds = 0.0;
    bool stopped_early = false;   ///< Heartbeat cut inference short.
    std::vector<int> rule_counts; ///< Applications per rule during inference.

    double speedup() const { return initial_ms / final_ms; }
};

/// Per-call overrides for Xrlflow::optimise (the unified-API adapter maps an
/// Optimize_request onto these; config defaults apply where fields are 0).
struct Inference_options {
    int rollouts = 0;                 ///< 0 = config.inference_rollouts.
    bool deterministic_only = false;  ///< Force a single greedy episode.
    std::uint64_t seed = 0;           ///< 0 = config.seed.
    Search_heartbeat heartbeat;       ///< Checked every environment step.
};

class Xrlflow {
public:
    /// `rules` must outlive the instance.
    Xrlflow(const Rule_set& rules, Xrlflow_config config = {});

    /// Train the agent on a model graph for `episodes` episodes. Can be
    /// called repeatedly (continues training the same policy).
    void train(const Graph& model, int episodes);

    /// Greedy inference: run one deterministic transformation episode and
    /// return the best graph seen (by deterministic latency).
    Optimisation_outcome optimise(const Graph& model) { return optimise(model, {}); }

    Optimisation_outcome optimise(const Graph& model, const Inference_options& options);

    Agent& agent() { return *agent_; }
    const std::vector<Episode_stats>& training_history() const { return history_; }

    void save_policy(const std::string& path) { agent_->save(path); }
    void load_policy(const std::string& path) { agent_->load(path); }

private:
    const Rule_set* rules_;
    Xrlflow_config config_;
    std::unique_ptr<Agent> agent_;
    std::vector<Episode_stats> history_;
    std::uint64_t episode_seed_ = 0;
};

/// The "xrlflow" backend, as make_optimizer serves it. The adapter trains a
/// policy per distinct (graph, seed, episodes, target device) on first use
/// and reuses it afterwards — the device is part of the key because the
/// simulator that produces the reward is device-specific. Training
/// counts against the request's wall clock but runs as one uninterruptible
/// phase (PPO needs whole update windows); cancellation is checked before
/// training starts and at every inference step. Options:
/// "xrlflow.episodes" (training episodes, default 8), "xrlflow.rollouts"
/// (sampled inference episodes when the request is non-deterministic),
/// "xrlflow.hidden_dim", "xrlflow.max_candidates", "xrlflow.max_steps".
std::unique_ptr<Optimizer> make_xrlflow_backend(const Optimizer_context& context);

} // namespace xrl
