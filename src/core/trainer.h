// PPO-clip training loop (§3.3.4, Eqs. 3-5).
//
// On-policy roll-outs accumulate transitions for `update_every_episodes`
// episodes (Table 4: update frequency 10), then several epochs of
// minibatch updates (Table 4: batch size 16) optimise the combined
// objective J = L_clip + c1 L_vf + c2 L_entropy end-to-end through the GNN
// and both heads. Each minibatch transition's forward pass, loss and
// backward sweep run on their own tape as a task on Thread_pool::shared();
// the caller then adds the per-transition parameter gradients in the
// order one tape over the whole minibatch would (docs/CONCURRENCY.md).
#pragma once

#include <vector>

#include "core/agent.h"
#include "env/environment.h"
#include "rl/gae.h"

namespace xrl {

struct Ppo_config {
    double clip = 0.2;
    double value_coef = 0.5;    ///< Table 4: c1.
    double entropy_coef = 0.01; ///< Table 4: c2.
    int epochs = 4;
    int minibatch_size = 16;    ///< Table 4.
    Gae_config gae;
    Adam_config adam;           ///< Table 4: learning rate 5e-4.
};

struct Trainer_config {
    int update_every_episodes = 10; ///< Table 4: update frequency.
    Ppo_config ppo;
    std::uint64_t seed = 7;
    bool verbose = false;
};

struct Episode_stats {
    double episode_return = 0.0;
    double final_latency_ms = 0.0;
    double best_latency_ms = 0.0;
    int steps = 0;
    bool ended_with_noop = false;
};

struct Update_stats {
    double mean_policy_loss = 0.0;
    double mean_value_loss = 0.0;
    double mean_entropy = 0.0;
    int minibatches = 0;
};

class Trainer {
public:
    Trainer(Agent& agent, Environment& env, Trainer_config config);

    /// Roll out one episode; when `record`, transitions land in the PPO
    /// buffer. Greedy mode argmaxes instead of sampling (inference).
    Episode_stats run_episode(bool greedy = false, bool record = true);

    /// Train for `episodes` episodes with periodic PPO updates. Returns the
    /// number of updates performed.
    int train(int episodes);

    const std::vector<Episode_stats>& history() const { return history_; }
    const Update_stats& last_update() const { return last_update_; }

private:
    struct Transition {
        Encoded_graph state;
        std::vector<std::uint8_t> mask;
        int action = 0;
        double log_prob = 0.0;
        double value = 0.0;
        double reward = 0.0;
        std::uint8_t done = 0;
    };

    /// One minibatch transition's share of an update: its parameter
    /// gradients, in the order they are accumulated, and its loss terms.
    struct Item_result {
        std::vector<Parameter_grad> grads;
        double policy_loss = 0.0;
        double value_loss = 0.0;
        double entropy = 0.0;
    };

    void update();
    /// Forward, PPO loss (scaled by `loss_scale`) and backward sweep for
    /// one transition on a tape of its own. Reads the agent's parameters
    /// and writes nothing shared, so tasks may run it concurrently.
    Item_result sweep_item(const Transition& t, float advantage, float target_return,
                           float loss_scale) const;

    Agent* agent_;
    Environment* env_;
    Trainer_config config_;
    Adam adam_;
    Rng rng_;
    std::vector<Transition> buffer_;
    /// Storage of the behaviour-time forward tapes, reused step to step
    /// for the trainer's lifetime (and by one update slot's tapes).
    Storage_recycler rollout_storage_;
    std::vector<Episode_stats> history_;
    Update_stats last_update_;
};

} // namespace xrl
