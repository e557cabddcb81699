#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/agent.h"
#include "core/trainer.h"
#include "core/xrlflow.h"
#include "ir/builder.h"
#include "models/models.h"
#include "rules/corpus.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/thread_pool.h"

namespace xrl {
namespace {

Agent_config tiny_agent_config()
{
    Agent_config config;
    config.gnn.hidden_dim = 8;
    config.gnn.global_dim = 8;
    config.gnn.num_gat_layers = 2;
    config.head_hidden = {16, 8};
    config.max_candidates = 15;
    return config;
}

Graph tiny_model()
{
    Graph_builder b;
    Edge x = b.input({4, 8}, "x");
    for (int i = 0; i < 2; ++i) {
        const Edge w = b.weight({8, 8});
        x = b.relu(b.matmul(x, w));
    }
    return b.finish({x});
}

TEST(Agent, ForwardProducesPaddedLogitsAndValue)
{
    Agent agent(tiny_agent_config(), 5);
    const Graph g = tiny_model();
    const Encoded_graph state = encode_meta_graph(g, {&g, &g}); // 2 candidates
    Tape tape;
    const Agent::Forward fwd = agent.forward(tape, state);
    EXPECT_EQ(tape.value(fwd.logits).shape(), (Shape{16, 1})); // max_candidates + noop
    EXPECT_EQ(tape.value(fwd.value).shape(), (Shape{1, 1}));
}

TEST(Agent, ActRespectsMask)
{
    Agent agent(tiny_agent_config(), 5);
    const Graph g = tiny_model();
    const Encoded_graph state = encode_meta_graph(g, {&g});
    std::vector<std::uint8_t> mask(16, 0);
    mask[0] = 1;  // single candidate
    mask[15] = 1; // noop
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        const auto decision = agent.act(state, mask, rng);
        EXPECT_TRUE(decision.action == 0 || decision.action == 15);
        EXPECT_LE(decision.log_prob, 0.0);
    }
}

TEST(Agent, GreedyActionIsDeterministic)
{
    Agent agent(tiny_agent_config(), 5);
    const Graph g = tiny_model();
    const Encoded_graph state = encode_meta_graph(g, {&g, &g});
    std::vector<std::uint8_t> mask(16, 0);
    mask[0] = mask[1] = mask[15] = 1;
    Rng rng(3);
    const int first = agent.act(state, mask, rng, /*greedy=*/true).action;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(agent.act(state, mask, rng, true).action, first);
}

TEST(Agent, ActCountsTheRowsItRunsAndTheMetaGraphsRows)
{
    Agent agent(tiny_agent_config(), 5);
    const Graph g = tiny_model();
    Meta_encoder meta;
    // Candidates equal to the host add readout entries but no rows.
    const Encoded_graph& state = meta.encode_compact(g, {&g, &g}, 2);
    std::vector<std::uint8_t> mask(16, 0);
    mask[0] = mask[1] = mask[15] = 1;
    Counter& run = Metrics_registry::global().counter("xrlflow_gnn_rows_total", "",
                                                      {{"form", "run"}});
    Counter& meta_rows = Metrics_registry::global().counter("xrlflow_gnn_rows_total", "",
                                                            {{"form", "meta"}});
    const std::uint64_t run_before = run.value();
    const std::uint64_t meta_before = meta_rows.value();
    Rng rng(3);
    agent.act(state, mask, rng, true);
    EXPECT_EQ(run.value() - run_before, g.size());
    EXPECT_EQ(meta_rows.value() - meta_before, 3 * g.size());
}

TEST(Agent, SaveLoadRoundTripsDecisions)
{
    const std::string path = std::filesystem::temp_directory_path() / "xrl_agent_test.bin";
    Agent a(tiny_agent_config(), 5);
    a.save(path);

    Agent b(tiny_agent_config(), 999); // different init
    const Graph g = tiny_model();
    const Encoded_graph state = encode_meta_graph(g, {&g, &g});
    std::vector<std::uint8_t> mask(16, 0);
    mask[0] = mask[1] = mask[15] = 1;
    Rng rng(3);
    b.load(path);
    EXPECT_EQ(b.act(state, mask, rng, true).action, a.act(state, mask, rng, true).action);

    Tape ta;
    Tape tb;
    const auto fa = a.forward(ta, state);
    const auto fb = b.forward(tb, state);
    EXPECT_TRUE(Tensor::all_close(ta.value(fa.logits), tb.value(fb.logits), 0.0F));
    std::remove(path.c_str());
}

TEST(Agent, RejectsTooManyCandidates)
{
    Agent_config config = tiny_agent_config();
    config.max_candidates = 1;
    Agent agent(config, 5);
    const Graph g = tiny_model();
    const Encoded_graph state = encode_meta_graph(g, {&g, &g}); // 2 > 1
    Tape tape;
    EXPECT_THROW(agent.forward(tape, state), Contract_violation);
}

TEST(Trainer, EpisodeRecordsTransitionsAndUpdates)
{
    const Rule_set rules = standard_rule_corpus();
    E2e_simulator sim(gtx1080_profile(), 11);
    Env_config env_config;
    env_config.max_candidates = 15;
    env_config.max_steps = 6;
    Environment env(tiny_model(), rules, sim, env_config);

    Agent agent(tiny_agent_config(), 5);
    Trainer_config trainer_config;
    trainer_config.update_every_episodes = 2;
    trainer_config.ppo.minibatch_size = 4;
    trainer_config.ppo.epochs = 2;
    Trainer trainer(agent, env, trainer_config);

    // Snapshot a parameter to observe learning updates.
    const Tensor before = agent.parameters().front()->value;

    const int updates = trainer.train(2);
    EXPECT_EQ(updates, 1);
    EXPECT_EQ(trainer.history().size(), 2u);
    EXPECT_GT(trainer.last_update().minibatches, 0);
    for (const Episode_stats& s : trainer.history()) {
        EXPECT_GT(s.steps, 0);
        EXPECT_GT(s.final_latency_ms, 0.0);
    }

    const Tensor& after = agent.parameters().front()->value;
    EXPECT_FALSE(Tensor::all_close(before, after, 0.0F)); // parameters moved
}

/// Trains a fresh tiny agent on the BERT smoke model and returns every
/// parameter's values, concatenated.
std::vector<float> trained_parameters(const Rule_set& rules)
{
    Xrlflow_config config;
    config.agent = tiny_agent_config();
    config.env.max_steps = 5;
    config.trainer.update_every_episodes = 2;
    config.trainer.ppo.minibatch_size = 3;
    config.trainer.ppo.epochs = 2;
    Xrlflow system(rules, config);
    system.train(make_bert(Scale::smoke, 8), 2);
    std::vector<float> values;
    for (const Parameter* p : system.agent().parameters())
        values.insert(values.end(), p->value.values().begin(), p->value.values().end());
    return values;
}

TEST(Trainer, UpdateIsIndependentOfNestingAndConcurrency)
{
    // The PPO update fans out on the shared pool. Run from the test thread,
    // and twice more concurrently from inside shared-pool tasks (each
    // update then nests in a pool-run job and competes for workers), the
    // trained parameters must agree bit for bit.
    const Rule_set rules = standard_rule_corpus();
    const std::vector<float> reference = trained_parameters(rules);
    std::vector<std::vector<float>> nested(2);
    Thread_pool::shared().run(nested.size(),
                              [&](std::size_t i) { nested[i] = trained_parameters(rules); });
    for (const std::vector<float>& values : nested) {
        ASSERT_EQ(values.size(), reference.size());
        EXPECT_EQ(std::memcmp(values.data(), reference.data(), values.size() * sizeof(float)), 0);
    }
}

TEST(Trainer, GreedyEpisodeDoesNotRecord)
{
    const Rule_set rules = standard_rule_corpus();
    E2e_simulator sim(gtx1080_profile(), 12);
    Env_config env_config;
    env_config.max_candidates = 15;
    env_config.max_steps = 4;
    Environment env(tiny_model(), rules, sim, env_config);
    Agent agent(tiny_agent_config(), 5);
    Trainer trainer(agent, env, {});
    const Episode_stats stats = trainer.run_episode(/*greedy=*/true, /*record=*/false);
    EXPECT_GT(stats.steps, 0);
    const int updates = trainer.train(0);
    EXPECT_EQ(updates, 0); // empty buffer, no update
}

TEST(Xrlflow, OptimiseReturnsValidImprovedOrEqualGraph)
{
    const Rule_set rules = standard_rule_corpus();
    Xrlflow_config config;
    config.agent = tiny_agent_config();
    config.env.max_steps = 8;
    Xrlflow system(rules, config);

    const Graph model = tiny_model();
    const Optimisation_outcome outcome = system.optimise(model);
    EXPECT_NO_THROW(outcome.best_graph.validate());
    EXPECT_LE(outcome.final_ms, outcome.initial_ms + 1e-12);
    EXPECT_GE(outcome.speedup(), 1.0);
    EXPECT_EQ(outcome.rule_counts.size(), rules.size());
}

TEST(Xrlflow, ShortTrainingRunsEndToEnd)
{
    const Rule_set rules = standard_rule_corpus();
    Xrlflow_config config;
    config.agent = tiny_agent_config();
    config.env.max_steps = 5;
    config.trainer.update_every_episodes = 2;
    config.trainer.ppo.minibatch_size = 4;
    config.trainer.ppo.epochs = 1;
    Xrlflow system(rules, config);

    system.train(tiny_model(), 2);
    EXPECT_EQ(system.training_history().size(), 2u);
}

TEST(Xrlflow, TrainedPolicyTransfersAcrossShapes)
{
    // Figure 7 mechanics: train on one tensor shape, optimise another.
    const Rule_set rules = standard_rule_corpus();
    Xrlflow_config config;
    config.agent = tiny_agent_config();
    config.env.max_steps = 5;
    config.trainer.update_every_episodes = 2;
    config.trainer.ppo.minibatch_size = 4;
    config.trainer.ppo.epochs = 1;
    Xrlflow system(rules, config);
    system.train(tiny_model(), 2);

    Graph_builder b;
    Edge x = b.input({16, 8}, "x"); // different batch dimension
    for (int i = 0; i < 2; ++i) {
        const Edge w = b.weight({8, 8});
        x = b.relu(b.matmul(x, w));
    }
    const Graph other_shape = b.finish({x});
    const Optimisation_outcome outcome = system.optimise(other_shape);
    EXPECT_LE(outcome.final_ms, outcome.initial_ms + 1e-12);
}

} // namespace
} // namespace xrl
