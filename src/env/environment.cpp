#include "env/environment.h"

#include <utility>

#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace xrl {

Environment::Environment(Graph initial, const Rule_set& rules, E2e_simulator& simulator,
                         Env_config config)
    : initial_(std::move(initial)),
      current_(initial_),
      rules_(&rules),
      simulator_(&simulator),
      config_(std::move(config)),
      engine_(rules, Candidate_engine_config{config_.per_rule_limit}),
      rule_counts_(rules.size(), 0)
{
    XRL_EXPECTS(config_.max_candidates > 0);
    XRL_EXPECTS(config_.feedback_frequency >= 1);
    reset();
}

void Environment::reset()
{
    current_ = initial_;
    steps_ = 0;
    done_ = false;
    initial_latency_ms_ = simulator_->measure_ms(current_);
    last_latency_ms_ = initial_latency_ms_;
    regenerate_candidates(nullptr);
    if (overlays_.empty()) done_ = true;
}

void Environment::regenerate_candidates(const Candidate_engine::Step_candidate* via)
{
    // Candidates beyond the action-space cap are counted but never built
    // (the GNN only observes the capped set). The capped set stays in the
    // engine's slots as overlays on current_, until the next call.
    const Candidate_engine::Step_generated& generated =
        engine_.generate_step(current_, static_cast<std::size_t>(config_.max_candidates), via);
    last_step_ = &generated;
    truncated_ += generated.truncated;
    overlays_.clear();
    for (const Candidate_engine::Step_candidate& c : generated.candidates)
        overlays_.emplace_back(*c.graph);
    materialised_ = false;
    candidate_observations_ += static_cast<std::int64_t>(overlays_.size());
    ++candidate_steps_;
}

const std::vector<Candidate>& Environment::candidates() const
{
    if (!materialised_) {
        engine_.materialise(graphs_);
        candidates_.clear();
        for (std::size_t i = 0; i < graphs_.size(); ++i)
            candidates_.push_back({&graphs_[i], last_step_->candidates[i].rule_index});
        materialised_ = true;
    }
    return candidates_;
}

std::vector<std::uint8_t> Environment::action_mask() const
{
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(action_space()), 0);
    for (std::size_t i = 0; i < overlays_.size(); ++i) mask[i] = 1;
    mask.back() = 1; // No-Op is always legal
    return mask;
}

double Environment::default_reward(const Reward_context& ctx) const
{
    if (!ctx.measured) return config_.exploration_reward;
    // Eq. 2: percentage latency improvement against the previous
    // measurement, normalised by the initial latency.
    return (ctx.previous_latency_ms - ctx.current_latency_ms) / ctx.initial_latency_ms * 100.0;
}

void Environment::register_reward_callback(Reward_callback callback)
{
    reward_callback_ = std::move(callback);
}

double Environment::measure_current()
{
    return simulator_->measure_ms(current_);
}

Env_step Environment::step(int action)
{
    static Histogram& phase_histogram = Metrics_registry::global().histogram(
        "xrlflow_rollout_phase_us", "RL rollout time by phase", duration_us_buckets(),
        {{"phase", "env_step"}});
    const Scoped_timer_us timer(phase_histogram);
    const Span_scope span("rollout/env_step");
    XRL_EXPECTS(!done_);
    Env_step result;

    const bool is_noop = action == noop_action();
    const bool is_valid_candidate =
        action >= 0 && action < static_cast<int>(overlays_.size());

    if (!is_noop && !is_valid_candidate) {
        if (config_.invalid_policy == Invalid_action_policy::penalise) {
            // §3.3.2's alternative: punish and terminate.
            done_ = true;
            result.done = true;
            result.reward = -1.0;
            return result;
        }
        XRL_EXPECTS(false && "invalid action with masking enabled");
    }

    ++steps_;
    bool terminal = false;
    if (is_noop) {
        terminal = true;
    } else {
        // Materialise the chosen overlay and swap it in: the old host's
        // storage is recycled by the next step's materialisation.
        const Candidate_engine::Step_candidate& chosen =
            last_step_->candidates[static_cast<std::size_t>(action)];
        chosen.graph->materialise(spare_);
        std::swap(current_, spare_);
        ++rule_counts_[static_cast<std::size_t>(chosen.rule_index)];
        regenerate_candidates(&chosen);
        if (overlays_.empty()) terminal = true;
        if (steps_ >= config_.max_steps) terminal = true;
    }

    Reward_context ctx;
    ctx.initial_latency_ms = initial_latency_ms_;
    ctx.previous_latency_ms = last_latency_ms_;
    ctx.step = steps_;
    ctx.measured = terminal || (steps_ % config_.feedback_frequency == 0);
    if (ctx.measured) {
        ctx.current_latency_ms = simulator_->measure_ms(current_);
        last_latency_ms_ = ctx.current_latency_ms;
        result.measured = true;
        result.latency_ms = ctx.current_latency_ms;
    } else {
        ctx.current_latency_ms = last_latency_ms_;
    }

    result.reward = reward_callback_ ? reward_callback_(ctx) : default_reward(ctx);
    done_ = terminal;
    result.done = terminal;
    return result;
}

double Environment::mean_candidates_per_step() const
{
    if (candidate_steps_ == 0) return 0.0;
    return static_cast<double>(candidate_observations_) / static_cast<double>(candidate_steps_);
}

} // namespace xrl
