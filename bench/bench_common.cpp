#include "bench_common.h"

#include <cstdio>
#include <filesystem>

#include "support/logging.h"

namespace xrlbench {

Bench_setup setup_from_env(int smoke_episodes, int paper_episodes)
{
    Bench_setup setup;
    setup.scale = scale_from_env();
    setup.seed = seed_from_env();
    setup.episodes = setup.scale == Scale::paper ? paper_episodes : smoke_episodes;
    if (const int override_episodes = episodes_from_env(); override_episodes > 0)
        setup.episodes = override_episodes;
    return setup;
}

Xrlflow_config default_xrlflow_config(const Bench_setup& setup)
{
    Xrlflow_config config;
    config.seed = setup.seed;
    if (setup.scale == Scale::paper) {
        config.agent.gnn.hidden_dim = 32;
        config.agent.gnn.global_dim = 32;
        config.agent.head_hidden = {256, 64}; // Table 4
        config.agent.max_candidates = 63;
        config.env.max_steps = 64;
    } else {
        config.agent.gnn.hidden_dim = 16;
        config.agent.gnn.global_dim = 16;
        config.agent.head_hidden = {64, 32};
        config.agent.max_candidates = 31;
        config.env.max_steps = 40;
    }
    config.agent.gnn.num_gat_layers = 5;      // Table 4: k
    config.env.feedback_frequency = 5;        // Table 4: N
    // Short smoke-scale training cannot match the paper's 1000+ episodes;
    // a few stochastic inference roll-outs compensate (see Xrlflow_config).
    config.inference_rollouts = setup.scale == Scale::paper ? 1 : 6;
    config.trainer.update_every_episodes = setup.scale == Scale::paper ? 10 : 4;
    config.trainer.ppo.minibatch_size = setup.scale == Scale::paper ? 16 : 8;
    config.trainer.ppo.epochs = 2;
    config.trainer.seed = setup.seed;
    return config;
}

Taso_config default_taso_config(const Bench_setup& setup)
{
    Taso_config config;
    config.budget = setup.scale == Scale::paper ? 200 : 40;
    return config;
}

Service_config default_service_config(const Bench_setup& setup)
{
    Service_config config;
    config.simulator_seed = setup.seed;
    const Taso_config taso = default_taso_config(setup);
    config.backend_options["taso.budget"] = taso.budget;
    config.backend_options["pet.budget"] = taso.budget;
    config.backend_options["tensat.max_iterations"] = setup.scale == Scale::paper ? 6 : 3;
    config.backend_options["xrlflow.episodes"] = setup.episodes;
    return config;
}

std::string policy_cache_path(const std::string& model_name, const Bench_setup& setup)
{
    std::string clean = model_name;
    for (char& c : clean)
        if (c == ' ' || c == '/') c = '_';
    const char* scale_name = setup.scale == Scale::paper ? "paper" : "smoke";
    return "xrlflow_policies/" + clean + "_" + scale_name + "_" +
           std::to_string(setup.episodes) + "_seed" + std::to_string(setup.seed) + ".bin";
}

std::unique_ptr<Xrlflow> trained_system(const Rule_set& rules, const Model_spec& spec,
                                        const Bench_setup& setup)
{
    auto system = std::make_unique<Xrlflow>(rules, default_xrlflow_config(setup));
    const std::string path = policy_cache_path(spec.name, setup);
    if (std::filesystem::exists(path)) {
        system->load_policy(path);
        log_info("loaded cached policy for ", spec.name, " from ", path);
        return system;
    }
    log_info("training ", spec.name, " for ", setup.episodes, " episodes...");
    system->train(spec.build(), setup.episodes);
    std::filesystem::create_directories("xrlflow_policies");
    system->save_policy(path);
    return system;
}

void print_header(const std::string& title)
{
    std::printf("\n================================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================================\n");
}

} // namespace xrlbench
