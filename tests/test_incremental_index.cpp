// A/B differential gate for the incremental Host_index.
//
// generate_step patches the persistent index from each chosen rewrite's
// Rewrite_delta instead of rebuilding it. These rollouts fuzz that fast
// path: after *every* rewrite the patched index must be identical to one
// rebuilt from scratch. Two layers of checking:
//   - `verify_incremental_index = true` (set explicitly — release builds
//     default it off) makes the engine rebuild + assert after each patch;
//   - the test also compares `engine.step_index()` against its own fresh
//     Host_index, so a bug in the engine's internal verify cannot hide one
//     in the patch.
// The rollouts deliberately mix patch and rebuild steps (dropped `via`)
// so both paths stay covered, and the rule walks below choose bespoke
// candidates on purpose, so their deltas patch the index too. Runs under
// ASan and TSan in CI (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "models/models.h"
#include "optimizers/pet/pet_optimizer.h"
#include "rules/candidate_engine.h"
#include "rules/corpus.h"
#include "rules/pattern.h"

namespace xrl {
namespace {

/// Deterministic fuzz source — fixed constants, so every platform and
/// sanitizer build walks the exact same rollout.
struct Lcg {
    std::uint64_t state;
    std::uint64_t next()
    {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    }
};

void run_ab_rollout(const Graph& initial, std::uint64_t seed, int steps)
{
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine_config config;
    config.per_rule_limit = 4;
    config.serial = true;
    config.verify_incremental_index = true;
    Candidate_engine engine(rules, config);

    Lcg rng{seed};
    Graph host = initial;
    const Candidate_engine::Step_candidate* via = nullptr;
    Candidate_engine::Step_candidate chosen;
    int rewrites = 0;
    for (int step = 0; step < steps; ++step) {
        const Candidate_engine::Step_generated& generated =
            engine.generate_step(host, 32, via);

        // External A/B check, independent of the engine's internal verify.
        const Host_index* incremental = engine.step_index();
        ASSERT_NE(incremental, nullptr);
        const Host_index fresh(host);
        ASSERT_TRUE(incremental->equals(fresh)) << "diverged at step " << step;

        if (generated.candidates.empty()) {
            // Dead end: restart from the initial graph so every rollout
            // really exercises `steps` generations.
            host = initial;
            via = nullptr;
            continue;
        }
        const std::size_t pick = rng.next() % generated.candidates.size();
        chosen = generated.candidates[pick];
        // Copy out of the pool slot before the next call recycles it;
        // `chosen.delta` stays valid until then and is read first.
        host = *chosen.graph;
        ++rewrites;
        // Drop `via` occasionally so the rebuild path stays fuzzed too.
        via = rng.next() % 16 == 0 ? nullptr : &chosen;
    }
    EXPECT_GT(rewrites, 0) << "rollout never applied a rewrite";
}

TEST(Incremental_index, MatchesRebuildOnBertRollout)
{
    run_ab_rollout(make_bert(Scale::smoke, 32), 0x9e3779b97f4a7c15ULL, 200);
}

TEST(Incremental_index, MatchesRebuildOnInceptionRollout)
{
    run_ab_rollout(make_inception_v3(Scale::smoke), 0xbf58476d1ce4e5b9ULL, 200);
}

TEST(Incremental_index, MatchesRebuildOnResnet18Rollout)
{
    run_ab_rollout(make_resnet18(Scale::smoke), 0x94d049bb133111ebULL, 200);
}

TEST(Incremental_index, MatchesRebuildOnDalleRollout)
{
    run_ab_rollout(make_dalle(Scale::smoke, 32), 0xd6e8feb86659fd93ULL, 200);
}

/// A walk that chooses `rule`'s first candidate whenever the step has one
/// (the first candidate otherwise), so its bespoke deltas patch the index
/// step after step. `min_chosen` is how often the rule must be chosen.
void run_rule_walk(const Graph& initial, const Rule_set& rules, const std::string& rule,
                   int steps, int min_chosen)
{
    Candidate_engine_config config;
    config.per_rule_limit = 4;
    config.serial = true;
    config.verify_incremental_index = true;
    Candidate_engine engine(rules, config);

    Graph host = initial;
    const Candidate_engine::Step_candidate* via = nullptr;
    Candidate_engine::Step_candidate chosen;
    int chosen_rule = 0;
    for (int step = 0; step < steps; ++step) {
        const Candidate_engine::Step_generated& generated =
            engine.generate_step(host, SIZE_MAX, via);
        const Host_index* incremental = engine.step_index();
        ASSERT_NE(incremental, nullptr);
        ASSERT_TRUE(incremental->equals(Host_index(host))) << rule << " step " << step;
        if (generated.candidates.empty()) break;

        chosen = generated.candidates.front();
        for (const Candidate_engine::Step_candidate& c : generated.candidates) {
            if (rules[static_cast<std::size_t>(c.rule_index)]->name() != rule) continue;
            chosen = c;
            ++chosen_rule;
            break;
        }
        ASSERT_NE(chosen.delta, nullptr) << rule << " step " << step;
        host = *chosen.graph;
        via = &chosen;
    }
    EXPECT_GE(chosen_rule, min_chosen) << rule;
}

TEST(Incremental_index, PatchesThroughFoldBatchNormOnInception)
{
    run_rule_walk(make_inception_v3(Scale::smoke), standard_rule_corpus(),
                  "fold-batch-norm-into-conv", 40, 30);
}

TEST(Incremental_index, PatchesThroughMergeMatmulOnBert)
{
    run_rule_walk(make_bert(Scale::smoke, 32), standard_rule_corpus(), "merge-matmul-shared-lhs",
                  30, 6);
}

TEST(Incremental_index, PatchesThroughPetSplitOnResnext)
{
    Rule_set rules = standard_rule_corpus();
    rules.push_back(make_pet_spatial_split_rule());
    run_rule_walk(make_resnext50(Scale::smoke), rules, "pet-spatial-split", 30, 30);
}

} // namespace
} // namespace xrl
