// The OpenAI-Gym-style environment of §3.3.1.
//
// reset() returns to the unoptimised graph; step(action) applies the chosen
// candidate substitution and regenerates the candidate set. Candidates stay
// overlays on the current graph, in the candidate engine's slots, and the
// rollout encodes them so; step() materialises only the chosen one. The action
// space is padded to a constant (max_candidates) plus a final No-Op action,
// with a boolean mask marking the live entries (§3.3.2 invalid action
// masking). The reward is Eq. 2 — percentage latency improvement, measured
// by the end-to-end simulator every `feedback_frequency` steps and at
// termination; a small constant (0.1) rewards continued exploration in
// between (§3.3.3). A user callback can replace the default reward.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cost/e2e_simulator.h"
#include "ir/graph.h"
#include "ir/graph_overlay.h"
#include "rules/candidate_engine.h"
#include "rules/rule.h"

namespace xrl {

/// How the environment treats an action pointing at a padded slot.
enum class Invalid_action_policy {
    forbid,   ///< Caller masks; an invalid action is a contract violation.
    penalise, ///< Invalid action => reward -1 and episode termination
              ///< (the alternative the paper found slower to train).
};

struct Env_config {
    int max_candidates = 63;       ///< Padded action space is this + 1 (No-Op).
    int feedback_frequency = 5;    ///< Table 4: N.
    double exploration_reward = 0.1;
    int max_steps = 64;
    std::size_t per_rule_limit = 16;
    Invalid_action_policy invalid_policy = Invalid_action_policy::forbid;
};

/// One applicable substitution, materialised. `graph` points into the
/// environment's copies of its candidates and is invalidated by the next
/// step()/reset().
struct Candidate {
    const Graph* graph = nullptr;
    int rule_index = -1;
};

struct Env_step {
    double reward = 0.0;
    bool done = false;
    bool measured = false;       ///< True when the E2E simulator ran this step.
    double latency_ms = 0.0;     ///< Last measured latency (when measured).
};

struct Reward_context {
    double initial_latency_ms = 0.0;
    double previous_latency_ms = 0.0;
    double current_latency_ms = 0.0;
    bool measured = false;
    int step = 0;
};

using Reward_callback = std::function<double(const Reward_context&)>;

class Environment {
public:
    /// `rules` and `simulator` must outlive the environment.
    Environment(Graph initial, const Rule_set& rules, E2e_simulator& simulator,
                Env_config config = {});

    // -- episode control ------------------------------------------------------

    void reset();
    Env_step step(int action);
    bool done() const { return done_; }
    int steps_taken() const { return steps_; }

    // -- state ----------------------------------------------------------------

    const Graph& current_graph() const { return current_; }

    /// The candidates as graphs. The first call in a step materialises
    /// every candidate (a host copy each); the rollout loops read
    /// candidate_overlays() instead.
    const std::vector<Candidate>& candidates() const;

    /// The candidates as overlays on current_graph(), in candidates()
    /// order: what the engine built, read without a copy. Invalidated by
    /// the next step()/reset().
    const std::vector<Graph_reader>& candidate_overlays() const { return overlays_; }

    int action_space() const { return config_.max_candidates + 1; }
    int noop_action() const { return config_.max_candidates; }

    /// Boolean mask over the padded action space (candidates + No-Op).
    std::vector<std::uint8_t> action_mask() const;

    // -- measurement / stats ---------------------------------------------------

    double initial_latency_ms() const { return initial_latency_ms_; }
    double last_latency_ms() const { return last_latency_ms_; }

    /// Latency of the current graph right now (one noisy measurement).
    double measure_current();

    /// Count of applications per rule over the whole lifetime (Figure 5).
    const std::vector<int>& rule_application_counts() const { return rule_counts_; }

    /// Average candidates per step since construction (Table 3 "complexity").
    double mean_candidates_per_step() const;

    /// Candidate records left unbuilt because the set reached
    /// max_candidates (Candidate_engine's Step_generated::truncated).
    std::size_t truncated_candidates() const { return truncated_; }

    const Rule_set& rules() const { return *rules_; }

    /// Replace the default Eq. 2 reward.
    void register_reward_callback(Reward_callback callback);

private:
    /// `via`: the step candidate just applied to current_ (null on reset),
    /// enabling the engine's incremental index patch.
    void regenerate_candidates(const Candidate_engine::Step_candidate* via);
    double default_reward(const Reward_context& ctx) const;

    Graph initial_;
    Graph current_;
    const Rule_set* rules_;
    E2e_simulator* simulator_;
    Env_config config_;
    Candidate_engine engine_;

    /// The step's candidates: the engine's overlays on current_, in its
    /// build slots. Only the chosen one is materialised, into spare_.
    std::vector<Graph_reader> overlays_;
    /// The step candidates behind overlays_ (rules, deltas, the next
    /// step's `via`).
    const Candidate_engine::Step_generated* last_step_ = nullptr;
    /// Recycled storage for the next current_.
    Graph spare_;
    /// candidates()' copies of overlays_, made on its first call in a step.
    /// Recycled storage.
    mutable std::vector<Candidate> candidates_;
    mutable std::vector<Graph> graphs_;
    mutable bool materialised_ = false;
    std::vector<int> rule_counts_;
    Reward_callback reward_callback_;

    bool done_ = true;
    int steps_ = 0;
    double initial_latency_ms_ = 0.0;
    double last_latency_ms_ = 0.0;
    std::size_t truncated_ = 0;
    std::int64_t candidate_observations_ = 0;
    std::int64_t candidate_steps_ = 0;
};

} // namespace xrl
