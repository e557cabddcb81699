// The X-RLflow actor-critic agent (§3.3.2, Figure 3).
//
// The GNN encodes the meta-graph (current graph + candidates) into one
// embedding per member graph; a policy head scores each candidate slot of
// the padded action space against the current graph's embedding (padded
// slots use a learned pad embedding, the final slot is the learned No-Op),
// and a value head estimates the state value from the current graph's
// embedding. Heads are two-layer MLPs (Table 4: [256, 64]).
#pragma once

#include <string>

#include "gnn/gnn.h"
#include "nn/adam.h"
#include "rl/categorical.h"

namespace xrl {

struct Agent_config {
    Gnn_config gnn;
    std::vector<std::int64_t> head_hidden = {256, 64}; ///< Table 4: MLP heads.
    int max_candidates = 63; ///< Action space = max_candidates + 1 (No-Op).
};

class Agent {
public:
    Agent(const Agent_config& config, std::uint64_t seed);

    /// Differentiable forward pass for one state.
    struct Forward {
        Var logits;  ///< (A x 1) where A = max_candidates + 1.
        Var value;   ///< 1x1 state value.
    };
    Forward forward(Tape& tape, const Encoded_graph& state);

    /// Behaviour-time action selection (no gradients retained). `state`
    /// may be either meta-graph encoding; the rollouts pass the compact one
    /// (Meta_encoder::encode_compact), whose logits and value are
    /// bit-identical to the full one's.
    struct Decision {
        int action = 0;
        double log_prob = 0.0;
        double value = 0.0;
    };
    Decision act(const Encoded_graph& state, const std::vector<std::uint8_t>& mask, Rng& rng,
                 bool greedy = false);

    int action_space() const { return config_.max_candidates + 1; }
    int max_candidates() const { return config_.max_candidates; }
    const Agent_config& config() const { return config_; }

    std::vector<Parameter*> parameters();

    void save(const std::string& path);
    void load(const std::string& path);

private:
    Agent_config config_;
    Gnn_encoder encoder_;
    Mlp policy_head_;
    Mlp value_head_;
    Parameter pad_embedding_;
    Parameter noop_embedding_;
};

} // namespace xrl
