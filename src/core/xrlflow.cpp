#include "core/xrlflow.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_map>

#include "core/checkpoint.h"
#include "core/policy_store.h"
#include "support/check.h"

namespace xrl {

Xrlflow::Xrlflow(const Rule_set& rules, Xrlflow_config config)
    : rules_(&rules), config_(std::move(config))
{
    // The environment caps candidates at the agent's padded action size.
    config_.env.max_candidates = config_.agent.max_candidates;
    agent_ = std::make_unique<Agent>(config_.agent, config_.seed);
    episode_seed_ = config_.seed;
}

void Xrlflow::train(const Graph& model, int episodes)
{
    E2e_simulator simulator(config_.device, episode_seed_ ^ 0xabcdULL);
    Environment env(model, *rules_, simulator, config_.env);
    Trainer_config trainer_config = config_.trainer;
    trainer_config.seed = episode_seed_;
    Trainer trainer(*agent_, env, trainer_config);
    trainer.train(episodes);
    for (const Episode_stats& s : trainer.history()) history_.push_back(s);
    episode_seed_ = episode_seed_ * 6364136223846793005ULL + 1442695040888963407ULL;
}

Optimisation_outcome Xrlflow::optimise(const Graph& model, const Inference_options& options)
{
    const auto start = std::chrono::steady_clock::now();

    const std::uint64_t seed = options.seed != 0 ? options.seed : config_.seed;
    E2e_simulator simulator(config_.device, seed ^ 0x7777ULL);

    Optimisation_outcome outcome;
    outcome.initial_ms = simulator.noiseless_ms(model);
    outcome.best_graph = model;
    outcome.final_ms = outcome.initial_ms;
    outcome.rule_counts.assign(rules_->size(), 0);

    Rng rng(seed ^ 0x9999ULL);
    int rollouts = options.rollouts > 0 ? options.rollouts : config_.inference_rollouts;
    rollouts = std::max(rollouts, 1);
    if (options.deterministic_only) rollouts = 1;
    int total_steps = 0;
    Meta_encoder encoder;
    // The policy's forward tapes reuse one another's storage across steps
    // and rollouts instead of returning it to the allocator every step.
    Storage_recycler act_storage;
    for (int rollout = 0; rollout < rollouts && !outcome.stopped_early; ++rollout) {
        Environment env(model, *rules_, simulator, config_.env);
        const bool greedy = rollout == 0;
        int steps = 0;
        bool improved = false;
        while (!env.done()) {
            if (options.heartbeat && !options.heartbeat(total_steps, outcome.final_ms)) {
                outcome.stopped_early = true;
                break;
            }
            const Encoded_graph& state =
                encoder.encode_compact(env.current_graph(), env.candidate_overlays(),
                                       config_.agent.gnn.num_gat_layers);
            Agent::Decision decision;
            {
                const Storage_recycler::Scope recycling(act_storage);
                decision = agent_->act(state, env.action_mask(), rng, greedy);
            }
            env.step(decision.action);
            ++steps;
            ++total_steps;

            const double latency = simulator.noiseless_ms(env.current_graph());
            if (latency < outcome.final_ms) {
                outcome.final_ms = latency;
                outcome.best_graph = env.current_graph();
                improved = true;
            }
        }
        if (improved || rollout == 0) {
            outcome.steps = steps;
            outcome.rule_counts = env.rule_application_counts();
        }
    }

    outcome.optimisation_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return outcome;
}

namespace {

class Xrlflow_backend final : public Optimizer {
public:
    explicit Xrlflow_backend(const Optimizer_context& context) : context_(context) {}

    std::string name() const override { return "xrlflow"; }

    Optimize_result optimize(const Graph& graph, const Optimize_request& request) override
    {
        const Progress_driver driver(name(), request);
        const int episodes = static_cast<int>(context_.option_or("xrlflow.episodes", 8));

        // Training runs as one uninterruptible phase (PPO needs whole
        // update windows), but it is inside the request's clock: the
        // callback can cancel before it starts, wall_seconds below
        // includes it, and a time budget it exhausts stops inference at
        // the first step. The budget cannot pre-empt training itself.
        const Device_profile& device = context_.device_for(request);
        if (!driver.heartbeat()(0, 0.0)) {
            Optimize_result cancelled;
            cancelled.backend = name();
            cancelled.device = device.name;
            cancelled.best_graph = graph;
            cancelled.cancelled = true;
            cancelled.wall_seconds = driver.elapsed_seconds();
            return cancelled;
        }
        Xrlflow& system = trained_system(graph, request, episodes, device);
        const double training_seconds = driver.elapsed_seconds();

        Inference_options options;
        options.deterministic_only = request.deterministic;
        options.rollouts = request.iteration_budget > 0
                               ? request.iteration_budget
                               : static_cast<int>(context_.option_or("xrlflow.rollouts", 0));
        options.seed = request.seed;
        options.heartbeat = driver.heartbeat();

        const Optimisation_outcome outcome = system.optimise(graph, options);

        Optimize_result result;
        result.backend = name();
        result.device = device.name;
        result.best_graph = outcome.best_graph;
        result.initial_ms = outcome.initial_ms;
        result.final_ms = outcome.final_ms;
        result.steps = outcome.steps;
        result.wall_seconds = driver.elapsed_seconds(); // training + inference
        result.cancelled = outcome.stopped_early;
        for (std::size_t i = 0; i < outcome.rule_counts.size(); ++i)
            if (outcome.rule_counts[i] > 0)
                result.rule_counts[(*context_.rules)[i]->name()] = outcome.rule_counts[i];
        result.metadata["training_episodes"] = episodes;
        result.metadata["training_seconds"] = training_seconds;
        result.metadata["rollouts"] = options.deterministic_only ? 1.0 : std::max(options.rollouts, 1);
        return result;
    }

private:
    Xrlflow_config adapter_config(std::uint64_t seed, const Device_profile& device) const
    {
        // Smoke-scale defaults (the compare_optimizers configuration);
        // paper-scale runs override via context options.
        Xrlflow_config config;
        config.seed = seed;
        config.device = device;
        const int hidden = static_cast<int>(context_.option_or("xrlflow.hidden_dim", 16));
        config.agent.gnn.hidden_dim = hidden;
        config.agent.gnn.global_dim = hidden;
        config.agent.head_hidden = {64, 32};
        config.agent.max_candidates =
            static_cast<int>(context_.option_or("xrlflow.max_candidates", 31));
        config.env.max_steps = static_cast<int>(context_.option_or("xrlflow.max_steps", 40));
        config.trainer.update_every_episodes = 4;
        config.trainer.ppo.minibatch_size = 8;
        config.trainer.seed = seed;
        return config;
    }

    /// The persistent identity of a trained policy: everything that
    /// changes what training would produce — the model, the device whose
    /// simulator shaped the reward, the seed and episode budget — plus the
    /// agent architecture (a checkpoint only loads into matching shapes).
    /// Human-readable because it surfaces in store files and telemetry.
    std::string policy_key(const Graph& graph, const Optimize_request& request, int episodes,
                           const Device_profile& device) const
    {
        std::ostringstream os;
        os << "policy|model=" << graph.model_hash() << "|device=" << device.fingerprint()
           << "|seed=" << request.seed << "|episodes=" << episodes
           << "|hidden=" << static_cast<int>(context_.option_or("xrlflow.hidden_dim", 16))
           << "|actions=" << static_cast<int>(context_.option_or("xrlflow.max_candidates", 31)) + 1;
        return os.str();
    }

    /// Train-once cache: a policy per policy_key — the identity the
    /// policy store uses too. It holds model_hash, so shape variants of one
    /// architecture train separately, and the device fingerprint, because
    /// the reward signal — the simulator — is device-specific: a policy
    /// trained against the gtx1080 simulator must never answer a100
    /// requests. Keeps repeat optimisation of the same (model, device)
    /// from paying the RL training cost.
    ///
    /// With a Policy_store on the context, the cache extends across
    /// process restarts: a miss here first asks the store (loading skips
    /// training entirely — the warm start), and every freshly trained
    /// policy is offered back. Loaded parameters are bit-exact, so a
    /// warm-started policy's inference is bit-identical to the trained
    /// one's.
    Xrlflow& trained_system(const Graph& graph, const Optimize_request& request, int episodes,
                            const Device_profile& device)
    {
        std::string key = policy_key(graph, request, episodes, device);
        const auto it = trained_.find(key);
        if (it != trained_.end()) return *it->second;
        auto system =
            std::make_unique<Xrlflow>(*context_.rules, adapter_config(request.seed, device));
        bool warm = false;
        if (context_.policy_store != nullptr && episodes > 0) {
            std::string blob;
            if (context_.policy_store->fetch_policy(key, &blob)) {
                std::istringstream is(blob);
                try {
                    load_parameters(is, system->agent().parameters());
                    warm = true;
                } catch (const Contract_violation&) {
                    // A stale checkpoint whose architecture no longer
                    // matches (changed agent defaults) is a miss — but the
                    // failed load already overwrote a prefix of the
                    // parameters, so rebuild the system before retraining:
                    // training must start from the seeded init or the
                    // result loses its determinism per (graph, request).
                    system = std::make_unique<Xrlflow>(*context_.rules,
                                                       adapter_config(request.seed, device));
                }
            }
        }
        if (!warm && episodes > 0) {
            system->train(graph, episodes);
            if (context_.policy_store != nullptr) {
                std::ostringstream os;
                save_parameters(os, system->agent().parameters());
                context_.policy_store->put_policy(key, os.str());
            }
        }
        return *trained_.emplace(std::move(key), std::move(system)).first->second;
    }

    Optimizer_context context_;
    std::unordered_map<std::string, std::unique_ptr<Xrlflow>> trained_;
};

} // namespace

std::unique_ptr<Optimizer> make_xrlflow_backend(const Optimizer_context& context)
{
    return std::make_unique<Xrlflow_backend>(context);
}

} // namespace xrl
