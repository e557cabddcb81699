#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "support/check.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace xrl {

namespace {

Histogram& train_phase_histogram(const char* phase)
{
    return Metrics_registry::global().histogram(
        "xrlflow_train_phase_us", "PPO update time by phase", duration_us_buckets(),
        {{"phase", phase}});
}

} // namespace

Trainer::Trainer(Agent& agent, Environment& env, Trainer_config config)
    : agent_(&agent),
      env_(&env),
      config_(std::move(config)),
      adam_(agent.parameters(), config_.ppo.adam),
      rng_(config_.seed)
{
}

Episode_stats Trainer::run_episode(bool greedy, bool record)
{
    env_->reset();
    Episode_stats stats;
    stats.best_latency_ms = env_->initial_latency_ms();

    Meta_encoder encoder;
    const int hops = agent_->config().gnn.num_gat_layers;
    while (!env_->done()) {
        const Graph& current = env_->current_graph();
        const std::vector<Graph_reader>& candidates = env_->candidate_overlays();
        const std::vector<std::uint8_t> mask = env_->action_mask();
        const Encoded_graph& compact = encoder.encode_compact(current, candidates, hops);
        Agent::Decision decision;
        {
            const Storage_recycler::Scope recycling(rollout_storage_);
            decision = agent_->act(compact, mask, rng_, greedy);
        }
        // The PPO tape trains on the full meta-graph; copy it out before
        // step() invalidates the candidates (the encoder's buffer is reused).
        Encoded_graph state;
        if (record) state = encoder.encode(current, candidates);
        const Env_step outcome = env_->step(decision.action);

        stats.episode_return += outcome.reward;
        ++stats.steps;
        if (outcome.measured)
            stats.best_latency_ms = std::min(stats.best_latency_ms, outcome.latency_ms);
        if (outcome.done && decision.action == env_->noop_action()) stats.ended_with_noop = true;

        if (record) {
            Transition t;
            t.state = std::move(state);
            t.mask = mask;
            t.action = decision.action;
            t.log_prob = decision.log_prob;
            t.value = decision.value;
            t.reward = outcome.reward;
            t.done = outcome.done ? 1 : 0;
            buffer_.push_back(std::move(t));
        }
    }
    stats.final_latency_ms = env_->last_latency_ms();
    return stats;
}

int Trainer::train(int episodes)
{
    int updates = 0;
    for (int episode = 0; episode < episodes; ++episode) {
        const Episode_stats stats = run_episode(/*greedy=*/false, /*record=*/true);
        history_.push_back(stats);
        if (config_.verbose) {
            log_info("episode ", episode, ": return=", stats.episode_return,
                     " final_ms=", stats.final_latency_ms, " steps=", stats.steps);
        }
        if ((episode + 1) % config_.update_every_episodes == 0 && !buffer_.empty()) {
            update();
            ++updates;
        }
    }
    if (!buffer_.empty()) {
        update();
        ++updates;
    }
    return updates;
}

void Trainer::update()
{
    static Histogram& minibatch_us = train_phase_histogram("minibatch");
    static Histogram& reduce_us = train_phase_histogram("reduce");
    static Histogram& adam_us = train_phase_histogram("adam");

    const std::size_t n = buffer_.size();
    std::vector<double> rewards(n);
    std::vector<double> values(n);
    std::vector<std::uint8_t> dones(n);
    for (std::size_t i = 0; i < n; ++i) {
        rewards[i] = buffer_[i].reward;
        values[i] = buffer_[i].value;
        dones[i] = buffer_[i].done;
    }
    Gae_result gae = compute_gae(rewards, values, dones, config_.ppo.gae);
    normalise_advantages(gae.advantages);

    Update_stats totals;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);

    // One task slot per pool worker (the caller drains slots too), each with
    // a storage recycler for the whole update, so a slot's tapes reuse the
    // pages its earlier tapes freed. Slot 0 borrows the rollout storage,
    // idle while the update runs; the other slots' pools are released when
    // the update returns.
    Thread_pool& pool = Thread_pool::shared();
    const std::size_t slots = std::max<std::size_t>(pool.workers(), 1);
    std::vector<Storage_recycler> update_storage(slots - 1);
    const auto slot_storage = [&](std::size_t slot) -> Storage_recycler& {
        return slot == 0 ? rollout_storage_ : update_storage[slot - 1];
    };
    std::vector<Item_result> items(static_cast<std::size_t>(config_.ppo.minibatch_size));

    for (int epoch = 0; epoch < config_.ppo.epochs; ++epoch) {
        // Fisher-Yates shuffle with our deterministic rng.
        for (std::size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng_.uniform_index(i)]);

        for (std::size_t begin = 0; begin < n; begin += static_cast<std::size_t>(config_.ppo.minibatch_size)) {
            const Span_scope span("trainer/ppo_minibatch");
            const std::size_t end =
                std::min(begin + static_cast<std::size_t>(config_.ppo.minibatch_size), n);
            const std::size_t count = end - begin;
            const auto batch = static_cast<float>(count);

            {
                const Scoped_timer_us timer(minibatch_us);
                std::atomic<std::size_t> next{0};
                pool.run(std::min(count, slots), [&](std::size_t slot) {
                    const Storage_recycler::Scope recycling(slot_storage(slot));
                    for (std::size_t k = next++; k < count; k = next++) {
                        const std::size_t index = order[begin + k];
                        items[k] = sweep_item(buffer_[index],
                                              static_cast<float>(gae.advantages[index]),
                                              static_cast<float>(gae.returns[index]), 1.0F / batch);
                    }
                });
            }
            {
                // Last transition first: the order a single tape holding the
                // whole minibatch would reach its parameter nodes in.
                const Scoped_timer_us timer(reduce_us);
                for (std::size_t k = count; k-- > 0;) accumulate_parameter_grads(items[k].grads);
            }
            {
                const Scoped_timer_us timer(adam_us);
                adam_.step();
            }

            double policy_loss_value = 0.0;
            double value_loss_value = 0.0;
            double entropy_value = 0.0;
            for (std::size_t k = 0; k < count; ++k) {
                policy_loss_value += items[k].policy_loss;
                value_loss_value += items[k].value_loss;
                entropy_value += items[k].entropy;
            }
            totals.mean_policy_loss += policy_loss_value / batch;
            totals.mean_value_loss += value_loss_value / batch;
            totals.mean_entropy += entropy_value / batch;
            ++totals.minibatches;
        }
    }

    if (totals.minibatches > 0) {
        totals.mean_policy_loss /= totals.minibatches;
        totals.mean_value_loss /= totals.minibatches;
        totals.mean_entropy /= totals.minibatches;
    }
    last_update_ = totals;
    buffer_.clear();
}

Trainer::Item_result Trainer::sweep_item(const Transition& t, float advantage, float target_return,
                                         float loss_scale) const
{
    Tape tape;
    const Agent::Forward fwd = agent_->forward(tape, t.state);
    const Categorical_vars dist = masked_categorical(tape, fwd.logits, t.mask);
    const Var log_prob = tape.pick(dist.log_probs, t.action);

    // Eq. 3 (clip objective), maximised => negated into the loss.
    const Var ratio = tape.exp(tape.add(
        log_prob, tape.constant(Tensor::scalar(-static_cast<float>(t.log_prob)).reshaped({1, 1}))));
    const Var unclipped = tape.scale(ratio, advantage);
    const Var clipped = tape.scale(tape.clamp(ratio, 1.0F - static_cast<float>(config_.ppo.clip),
                                              1.0F + static_cast<float>(config_.ppo.clip)),
                                   advantage);
    const Var objective = tape.minimum(unclipped, clipped);

    // Eq. 4 (value regression).
    const Var value_error =
        tape.square(tape.add(fwd.value, tape.constant(Tensor(Shape{1, 1}, {-target_return}))));

    // Eq. 5: J = L_clip + c1 L_vf + c2 L_entropy, averaged over the minibatch.
    Var item_loss = tape.neg(objective);
    item_loss =
        tape.add(item_loss, tape.scale(value_error, static_cast<float>(config_.ppo.value_coef)));
    item_loss = tape.add(item_loss,
                         tape.scale(dist.entropy, -static_cast<float>(config_.ppo.entropy_coef)));

    Item_result result;
    result.grads = tape.sweep(tape.scale(item_loss, loss_scale));
    result.policy_loss = -tape.value(objective).at(0);
    result.value_loss = tape.value(value_error).at(0);
    result.entropy = tape.value(dist.entropy).at(0);
    return result;
}

} // namespace xrl
