#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "cost/cost_model.h"
#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "gnn/encoding.h"
#include "ir/builder.h"
#include "ir/graph_io.h"
#include "models/models.h"
#include "optimizers/pet/pet_optimizer.h"
#include "optimizers/taso/taso_optimizer.h"
#include "rules/candidate_engine.h"
#include "rules/corpus.h"
#include "support/fnv.h"
#include "support/record_file.h"

namespace xrl {
namespace {

using Candidate_list = std::vector<std::pair<std::uint64_t, int>>;

/// The reference candidate set: every rule's apply_all, canonically
/// deduped against the host and against earlier candidates, in rule order
/// — the naive loop the engine must reproduce exactly.
Candidate_list reference_candidates(const Graph& host, const Rule_set& rules,
                                    std::size_t per_rule_limit)
{
    Candidate_list out;
    std::unordered_set<std::uint64_t> seen;
    seen.insert(host.canonical_hash());
    for (std::size_t rule_index = 0; rule_index < rules.size(); ++rule_index) {
        for (const Graph& candidate : rules[rule_index]->apply_all(host, per_rule_limit)) {
            const std::uint64_t hash = candidate.canonical_hash();
            if (!seen.insert(hash).second) continue;
            out.emplace_back(hash, static_cast<int>(rule_index));
        }
    }
    return out;
}

Candidate_list listed(const Candidate_engine::Step_generated& generated)
{
    Candidate_list out;
    for (const Candidate_engine::Step_candidate& c : generated.candidates)
        out.emplace_back(c.hash, c.rule_index);
    return out;
}

Candidate_list engine_candidates(const Graph& host, const Rule_set& rules,
                                 std::size_t per_rule_limit, bool serial)
{
    Candidate_engine engine(rules, Candidate_engine_config{per_rule_limit, serial});
    return listed(engine.generate_step(host));
}

void expect_parity(const Graph& host, std::size_t per_rule_limit)
{
    const Rule_set rules = standard_rule_corpus();
    const auto reference = reference_candidates(host, rules, per_rule_limit);
    const auto engine = engine_candidates(host, rules, per_rule_limit, true);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference, engine);
}

TEST(Candidate_engine, ParityWithLegacyLoopOnBert)
{
    expect_parity(make_bert(Scale::smoke, 32), 4);
}

TEST(Candidate_engine, ParityWithLegacyLoopOnInception)
{
    expect_parity(make_inception_v3(Scale::smoke), 4);
}

/// The standard corpus plus PET's spatial split: the rule set PET searches.
Rule_set pet_rule_corpus()
{
    Rule_set rules = standard_rule_corpus();
    rules.push_back(make_pet_spatial_split_rule());
    return rules;
}

/// Everything that identifies a step's candidate: hash, rule and recipe.
std::string describe(const Candidate_engine::Step_candidate& c)
{
    const Candidate_engine::Recipe recipe = c.recipe();
    std::ostringstream out;
    out << c.hash << " rule " << recipe.rule_index << " key " << recipe.site.match.binding_key
        << " nodes";
    for (const Node_id id : recipe.site.nodes) out << ' ' << id;
    for (const auto& [var, edge] : recipe.site.match.var_bindings)
        out << " v" << var << '=' << edge.node << ':' << edge.port;
    for (const auto& [node, host] : recipe.site.match.node_map) out << " n" << node << '=' << host;
    return out.str();
}

TEST(Candidate_engine, DeterministicAcrossThreadCounts)
{
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    const auto serial = engine_candidates(bert, rules, 8, true);
    const auto pooled = engine_candidates(bert, rules, 8, false);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, pooled);

    // A 10-step walk with the PET corpus: a serial engine and one on the
    // shared pool must list the same candidates (hash, rule, recipe) and
    // count the same truncation at every step, uncapped and capped. The
    // per-rule cap is below the bespoke rules' site counts on these models,
    // so build waves end on a rule's success cap too.
    const Rule_set pet_rules = pet_rule_corpus();
    for (const Graph& model : {make_inception_v3(Scale::smoke), make_resnext50(Scale::smoke)}) {
        Candidate_engine serial_engine(pet_rules, Candidate_engine_config{16, true});
        Candidate_engine pooled_engine(pet_rules, Candidate_engine_config{16});
        Graph host = model;
        Candidate_engine::Step_candidate chosen_a;
        Candidate_engine::Step_candidate chosen_b;
        std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
        bool truncated = false;
        for (int step = 0; step < 10; ++step) {
            const std::size_t cap = step % 2 == 0 ? SIZE_MAX : 8;
            const auto& a = serial_engine.generate_step(host, cap, step > 0 ? &chosen_a : nullptr);
            const auto& b = pooled_engine.generate_step(host, cap, step > 0 ? &chosen_b : nullptr);
            ASSERT_FALSE(a.candidates.empty()) << "step " << step;
            ASSERT_EQ(a.candidates.size(), b.candidates.size()) << "step " << step;
            for (std::size_t i = 0; i < a.candidates.size(); ++i)
                EXPECT_EQ(describe(a.candidates[i]), describe(b.candidates[i]))
                    << "step " << step << " candidate " << i;
            EXPECT_EQ(a.enumerated, b.enumerated) << "step " << step;
            EXPECT_EQ(a.truncated, b.truncated) << "step " << step;
            truncated = truncated || a.truncated > 0;
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            // Each engine patches its index from its own copy of the move.
            const std::size_t pick = (lcg >> 33) % a.candidates.size();
            chosen_a = a.candidates[pick];
            chosen_b = b.candidates[pick];
            host = *chosen_a.graph;
        }
        EXPECT_TRUE(truncated);
    }
}

TEST(Candidate_engine, CappedStepMaterialisesAtMostCapPlusOneSlots)
{
    // Laziness: past the cap, records are only counted. A fresh engine
    // therefore constructs one slot per kept pattern candidate plus at
    // most one working slot that an invalid site left unused.
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine full_engine(rules, Candidate_engine_config{8, true});
    const std::size_t full = full_engine.generate_step(bert).candidates.size();
    const std::size_t full_slots = full_engine.slot_count();

    constexpr std::size_t cap = 3;
    Candidate_engine engine(rules, Candidate_engine_config{8, true});
    const Candidate_engine::Step_generated& capped = engine.generate_step(bert, cap);
    ASSERT_GT(full, cap + 1);
    EXPECT_EQ(capped.candidates.size(), cap);
    EXPECT_GT(capped.truncated, 0u);
    EXPECT_LE(engine.slot_count(), cap + 1);
    EXPECT_GT(full_slots, cap + 1);
}

TEST(Candidate_engine, StepCandidateHashIsCanonicalHash)
{
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{4, true});
    const Candidate_engine::Step_generated& generated = engine.generate_step(bert);
    ASSERT_FALSE(generated.candidates.empty());
    for (const Candidate_engine::Step_candidate& c : generated.candidates)
        EXPECT_EQ(c.hash, Graph(*c.graph).canonical_hash()) << "rule " << c.rule_index;
}

TEST(Candidate_engine, TruncatesAtTheCapWithoutMaterialising)
{
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    const auto full = engine_candidates(bert, rules, 8, true);
    ASSERT_GT(full.size(), 2u);
    const std::size_t cap = full.size() / 2;
    Candidate_engine engine(rules, Candidate_engine_config{8, true});
    const Candidate_engine::Step_generated& capped = engine.generate_step(bert, cap);
    EXPECT_GT(capped.truncated, 0u);
    // The capped set is exactly the uncapped set's prefix.
    EXPECT_EQ(listed(capped), Candidate_list(full.begin(), full.begin() + cap));
}

TEST(Candidate_engine, EnvironmentCandidatesMatchLegacyPath)
{
    // The environment's candidates at every step are the reference loop's,
    // capped at the action space.
    const Graph model = make_bert(Scale::smoke, 16);
    const Rule_set rules = standard_rule_corpus();
    E2e_simulator simulator(gtx1080_profile(), 99);
    Env_config config;
    config.per_rule_limit = 4;
    config.max_candidates = 8;
    Environment env(model, rules, simulator, config);

    bool capped = false;
    int steps = 0;
    for (; steps < 4 && !env.done(); ++steps) {
        auto reference = reference_candidates(env.current_graph(), rules, config.per_rule_limit);
        const auto cap = static_cast<std::size_t>(config.max_candidates);
        capped = capped || reference.size() > cap;
        if (reference.size() > cap) reference.resize(cap);
        Candidate_list observed;
        for (const Candidate& c : env.candidates())
            observed.emplace_back(c.graph->canonical_hash(), c.rule_index);
        EXPECT_EQ(observed, reference) << "step " << steps;
        env.step(0);
    }
    EXPECT_GE(steps, 3);
    EXPECT_TRUE(capped);
}

TEST(Candidate_engine, MaterialisedCandidatesOutliveTheStep)
{
    // An owner keeps a candidate by materialising it (pattern and bespoke
    // candidates alike); the next step, on a different host, is still
    // exactly a fresh engine's, and the kept graphs stay intact.
    const Rule_set rules = standard_rule_corpus();
    const std::vector<Graph> hosts = {make_bert(Scale::smoke, 32), make_bert(Scale::smoke, 16),
                                      make_inception_v3(Scale::smoke)};
    Candidate_engine engine(rules, Candidate_engine_config{4, true});
    std::vector<std::pair<Graph, std::uint64_t>> kept;
    for (std::size_t step = 0; step < hosts.size(); ++step) {
        const Candidate_engine::Step_generated& generated = engine.generate_step(hosts[step]);
        if (step > 0) {
            EXPECT_EQ(listed(generated), engine_candidates(hosts[step], rules, 4, true));
        }
        bool pattern = false;
        bool bespoke = false;
        for (const Candidate_engine::Step_candidate& c : generated.candidates) {
            const auto& rule = rules[static_cast<std::size_t>(c.rule_index)];
            (dynamic_cast<const Pattern_rule*>(rule.get()) != nullptr ? pattern : bespoke) = true;
            kept.emplace_back(Graph(*c.graph), c.hash);
        }
        EXPECT_TRUE(pattern) << "step " << step;
        EXPECT_TRUE(bespoke) << "step " << step;
    }
    for (const auto& [graph, hash] : kept) EXPECT_EQ(graph.canonical_hash(), hash);
}

/// One scripted incremental rollout: deterministic action picks, recording
/// every step's full candidate order as (hash, rule_index) pairs.
std::vector<Candidate_list> scripted_rollout(const Graph& initial, int steps)
{
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{4, true});
    std::vector<Candidate_list> trace;

    Graph host = initial;
    const Candidate_engine::Step_candidate* via = nullptr;
    Candidate_engine::Step_candidate chosen;
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    for (int step = 0; step < steps; ++step) {
        const Candidate_engine::Step_generated& generated = engine.generate_step(host, 32, via);
        trace.push_back(listed(generated));
        if (generated.candidates.empty()) break;
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        chosen = generated.candidates[(lcg >> 33) % generated.candidates.size()];
        host = *chosen.graph;
        via = &chosen;
    }
    return trace;
}

TEST(Candidate_engine, SameRolloutTwiceYieldsIdenticalCandidateOrder)
{
    // Candidate ordering must not depend on anything run-varying (pointer
    // values, hash-set iteration, pool-slot identity): two identical
    // rollouts in one process see identical candidate lists at every step.
    const Graph bert = make_bert(Scale::smoke, 32);
    const auto first = scripted_rollout(bert, 25);
    const auto second = scripted_rollout(bert, 25);
    ASSERT_GT(first.size(), 1u);
    EXPECT_EQ(first, second);
}

/// A bespoke rule whose one rewrite rebuilds the host unchanged.
class Host_copy_rule final : public Rewrite_rule {
public:
    Host_copy_rule() : Rewrite_rule("host-copy") {}

    void find_sites(const Graph& /*host*/, const Host_index& /*index*/, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        out.emplace_back();
    }

    bool splice(const Host_view& /*host*/, const Rewrite_site& /*site*/, Graph_overlay& /*out*/,
                std::vector<Rewired_edge>& rewired) const override
    {
        rewired.clear();
        return true;
    }
};

TEST(Candidate_engine, RewriteEqualToTheHostYieldsNoCandidate)
{
    // Canonical dedup runs against the host as well as between candidates:
    // a rewrite that reproduces the host is no move, on the first step and
    // on a step whose host hash comes from `via`.
    Rule_set rules = standard_rule_corpus();
    rules.push_back(std::make_unique<Host_copy_rule>());
    const int copy_rule = static_cast<int>(rules.size()) - 1;
    Candidate_engine engine(rules, Candidate_engine_config{4, true});
    Graph host = make_bert(Scale::smoke, 16);
    const Candidate_engine::Step_candidate* via = nullptr;
    Candidate_engine::Step_candidate chosen;
    for (int step = 0; step < 2; ++step) {
        const Candidate_engine::Step_generated& generated =
            engine.generate_step(host, SIZE_MAX, via);
        ASSERT_FALSE(generated.candidates.empty());
        for (const Candidate_engine::Step_candidate& c : generated.candidates) {
            EXPECT_NE(c.rule_index, copy_rule) << "step " << step;
            EXPECT_NE(c.hash, host.canonical_hash()) << "step " << step;
        }
        chosen = generated.candidates.front();
        host = *chosen.graph;
        via = &chosen;
    }
}

TEST(Candidate_engine, HandlesRulelessCorpus)
{
    const Rule_set empty;
    Candidate_engine engine(empty, Candidate_engine_config{4, true});
    Graph_builder b;
    const Edge x = b.input({4, 4});
    const Graph host = b.finish({b.relu(x)});
    const Candidate_engine::Step_generated& generated = engine.generate_step(host);
    EXPECT_TRUE(generated.candidates.empty());
    EXPECT_EQ(generated.enumerated, 0u);
}

/// Two sites each for the bespoke rules no smoke model triggers:
/// split -> concat, concat -> split, and conv + conv of mixed kernel sizes.
Graph bespoke_sites_host()
{
    Graph_builder b;
    const Edge x = b.input({1, 3, 8, 8});
    std::vector<Edge> outputs;
    for (int site = 0; site < 2; ++site) {
        const auto parts = b.split(x, 1, {1, 2});
        const Edge rejoined = b.relu(b.concat(1, {parts[0], parts[1]}));
        const auto pieces = b.split(b.concat(1, {x, rejoined}), 1, {3, 3});
        outputs.push_back(b.tanh(pieces[0]));
        outputs.push_back(b.tanh(pieces[1]));
        const Edge c3 = b.conv2d(x, b.weight({4, 3, 3, 3}), 1, 1);
        const Edge c1 = b.conv2d(x, b.weight({4, 3, 1, 1}), 1, 0);
        outputs.push_back(b.add(c3, c1));
    }
    return b.finish(outputs);
}

TEST(Candidate_engine, BespokeRulesArePrefixStableUnderLimit)
{
    // rebuild() re-runs a bespoke rule with limit = slot + 1 and keeps the
    // last output, so every bespoke rule must be deterministic and its
    // first k outputs at limit k must be its first k at any larger limit.
    const Rule_set rules = pet_rule_corpus();
    const std::vector<Graph> hosts = {make_inception_v3(Scale::smoke),
                                      make_resnext50(Scale::smoke), make_bert(Scale::smoke, 32),
                                      bespoke_sites_host()};
    std::size_t bespoke_rules = 0;
    std::size_t fired_rules = 0;
    for (const auto& rule : rules) {
        if (dynamic_cast<const Pattern_rule*>(rule.get()) != nullptr) continue;
        ++bespoke_rules;
        bool fired = false;
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            const std::vector<Graph> full = rule->apply_all(hosts[h]);
            fired = fired || !full.empty();
            const std::vector<Graph> again = rule->apply_all(hosts[h]);
            ASSERT_EQ(again.size(), full.size()) << rule->name() << " host " << h;
            for (std::size_t limit = 0; limit <= full.size(); ++limit) {
                // Every short prefix, then the longest: the cost of each
                // check grows with the limit.
                if (limit > 4 && limit + 1 < full.size()) continue;
                const std::vector<Graph> prefix = rule->apply_all(hosts[h], limit);
                ASSERT_EQ(prefix.size(), limit) << rule->name() << " host " << h;
                for (std::size_t i = 0; i < limit; ++i) {
                    EXPECT_EQ(prefix[i].canonical_hash(), full[i].canonical_hash())
                        << rule->name() << " host " << h << " limit " << limit << " slot " << i;
                    EXPECT_EQ(prefix[i].capacity(), full[i].capacity())
                        << rule->name() << " host " << h << " limit " << limit << " slot " << i;
                }
            }
            for (std::size_t i = 0; i < full.size(); ++i)
                EXPECT_EQ(again[i].canonical_hash(), full[i].canonical_hash())
                    << rule->name() << " host " << h << " slot " << i;
        }
        fired_rules += fired ? 1 : 0;
    }
    EXPECT_GT(bespoke_rules, 1u);
    EXPECT_EQ(fired_rules, bespoke_rules) << "a bespoke rule never fired on the hosts";
}

/// A pinned bespoke-rule output on one host: how many candidates apply_all
/// produced, and the FNV fold of their canonical hashes in output order
/// (no output folds to fnv1a_offset).
struct Golden_outputs {
    std::size_t count;
    std::uint64_t digest;
};

Golden_outputs golden_outputs(const std::vector<Graph>& outputs)
{
    std::uint64_t digest = fnv1a_offset;
    for (const Graph& g : outputs) digest = fnv1a_mix(digest, g.canonical_hash());
    return {outputs.size(), digest};
}

TEST(BespokeRules, GoldenOutputHashes)
{
    // The exact ordered output of every bespoke rule (PET's split included)
    // on smoke InceptionV3, ResNeXt-50, BERT and the hand-built host,
    // uncapped and at limit 2: a change to a rule's site order, site
    // filtering or the rewrite it builds moves one of these numbers.
    struct Golden_rule {
        const char* rule;
        std::array<Golden_outputs, 4> full;   ///< limit SIZE_MAX, per host.
        std::array<Golden_outputs, 4> capped; ///< limit 2, per host.
    };
    constexpr std::uint64_t none = fnv1a_offset;
    const std::vector<Golden_rule> expected = {
        {"merge-matmul-shared-lhs",
         {{{0, none}, {0, none}, {9, 0x31f0b39e80f2b720ULL}, {0, none}}},
         {{{0, none}, {0, none}, {2, 0xeb9157c30ff77177ULL}, {0, none}}}},
        {"merge-conv-shared-input",
         {{{9, 0x01fd6c501b8b8aa7ULL}, {1, 0xba1ac668b5926c7aULL}, {0, none},
           {2, 0xe48f55e8c83ce671ULL}}},
         {{{2, 0x3a49978052670739ULL}, {1, 0xba1ac668b5926c7aULL}, {0, none},
           {2, 0xe48f55e8c83ce671ULL}}}},
        {"eliminate-split-concat",
         {{{0, none}, {0, none}, {0, none}, {2, 0x36ef2eca381803ceULL}}},
         {{{0, none}, {0, none}, {0, none}, {2, 0x36ef2eca381803ceULL}}}},
        {"eliminate-concat-split",
         {{{0, none}, {0, none}, {0, none}, {2, 0xc51df1569aaf5a64ULL}}},
         {{{0, none}, {0, none}, {0, none}, {2, 0xc51df1569aaf5a64ULL}}}},
        {"fold-batch-norm-into-conv",
         {{{34, 0x7179e3941cadb1beULL}, {23, 0x176c743f6dffea45ULL}, {0, none}, {0, none}}},
         {{{2, 0x0538d821a6512d39ULL}, {2, 0xa712dd85e2566beaULL}, {0, none}, {0, none}}}},
        {"merge-conv-add-enlarge",
         {{{0, none}, {0, none}, {0, none}, {2, 0xf3c084de711bc430ULL}}},
         {{{0, none}, {0, none}, {0, none}, {2, 0xf3c084de711bc430ULL}}}},
        {"fold-embedding-projection",
         {{{0, none}, {0, none}, {1, 0x943719c6d1163bc2ULL}, {0, none}}},
         {{{0, none}, {0, none}, {1, 0x943719c6d1163bc2ULL}, {0, none}}}},
        {"pet-spatial-split",
         {{{34, 0x97eb0329145bb0e5ULL}, {16, 0x385a1b63f447bd2cULL}, {0, none},
           {4, 0x41ceb3a8927096fdULL}}},
         {{{2, 0x1ad9443d5fca3858ULL}, {2, 0x7447ec8d7cff4394ULL}, {0, none},
           {2, 0x25e6b7aff47dbca7ULL}}}},
    };
    const Rule_set rules = pet_rule_corpus();
    const std::vector<Graph> hosts = {make_inception_v3(Scale::smoke),
                                      make_resnext50(Scale::smoke), make_bert(Scale::smoke, 32),
                                      bespoke_sites_host()};
    std::size_t checked = 0;
    for (const auto& rule : rules) {
        if (dynamic_cast<const Pattern_rule*>(rule.get()) != nullptr) continue;
        const auto golden =
            std::find_if(expected.begin(), expected.end(),
                         [&](const Golden_rule& g) { return rule->name() == g.rule; });
        ASSERT_NE(golden, expected.end()) << "no golden for " << rule->name();
        ++checked;
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            const Golden_outputs full = golden_outputs(rule->apply_all(hosts[h]));
            const Golden_outputs capped = golden_outputs(rule->apply_all(hosts[h], 2));
            EXPECT_EQ(full.count, golden->full[h].count) << rule->name() << " host " << h;
            EXPECT_EQ(full.digest, golden->full[h].digest) << rule->name() << " host " << h;
            EXPECT_EQ(capped.count, golden->capped[h].count) << rule->name() << " host " << h;
            EXPECT_EQ(capped.digest, golden->capped[h].digest) << rule->name() << " host " << h;
        }
    }
    EXPECT_EQ(checked, expected.size());
}

TEST(Candidate_engine, RebuildReproducesEveryCandidate)
{
    // A recipe (rule plus match site or bespoke slot) rebuilds exactly the
    // candidate generate_step made from the same host — the contract TASO's
    // recipe queue checks on every pop.
    const std::vector<Graph> hosts = {make_bert(Scale::smoke, 32),
                                      make_inception_v3(Scale::smoke)};
    for (const Rule_set& rules : {standard_rule_corpus(), pet_rule_corpus()}) {
        Candidate_engine engine(rules, Candidate_engine_config{1000, true});
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            const Candidate_engine::Step_generated& generated = engine.generate_step(hosts[h]);
            bool pattern = false;
            bool bespoke = false;
            Graph rebuilt;
            for (const Candidate_engine::Step_candidate& c : generated.candidates) {
                const auto& rule = rules[static_cast<std::size_t>(c.rule_index)];
                (dynamic_cast<const Pattern_rule*>(rule.get()) != nullptr ? pattern : bespoke) =
                    true;
                const std::uint64_t hash = engine.rebuild(hosts[h], c.recipe(), rebuilt);
                EXPECT_EQ(hash, c.hash) << "host " << h << " rule " << c.rule_index;
                EXPECT_EQ(rebuilt.canonical_hash(), c.hash)
                    << "host " << h << " rule " << c.rule_index;
                EXPECT_EQ(rebuilt.capacity(), c.graph->capacity())
                    << "host " << h << " rule " << c.rule_index;
                EXPECT_EQ(rebuilt.size(), c.graph->size())
                    << "host " << h << " rule " << c.rule_index;
            }
            EXPECT_TRUE(pattern) << "host " << h;
            EXPECT_TRUE(bespoke) << "host " << h;
        }
    }
}

TEST(Delta_pricer, EveryCandidateMatchesTheFullWalk)
{
    // Along a 10-step walk on each host, every candidate of every rule —
    // pattern rules, the bespoke rules and PET's split — priced from its
    // delta must equal the full walk bit for bit, under both cost models.
    // Every rule here reports a delta and keeps shapes local, so none may
    // fall back to the full walk.
    const Cost_model cost(gtx1080_profile());
    const Pet_cost pet(cost.device());
    const std::array<const Additive_cost*, 2> models = {&cost, &pet};
    const Rule_set rules = pet_rule_corpus();
    std::vector<int> from_delta(rules.size(), 0);
    int fallbacks = 0;
    for (const Graph& initial : {make_inception_v3(Scale::smoke), make_resnext50(Scale::smoke),
                                 make_bert(Scale::smoke, 32), bespoke_sites_host()}) {
        Candidate_engine engine(rules, Candidate_engine_config{16, true});
        Graph host = initial;
        std::uint64_t lcg = 0x853c49e6748fea9bULL;
        for (int step = 0; step < 10; ++step) {
            const Candidate_engine::Step_generated& generated = engine.generate_step(host);
            if (generated.candidates.empty()) break;
            for (const Additive_cost* model : models) {
                Delta_pricer pricer(*model);
                EXPECT_EQ(pricer.reset(host), model->graph_cost_ms(host));
                for (const Candidate_engine::Step_candidate& c : generated.candidates) {
                    const std::string& rule = rules[static_cast<std::size_t>(c.rule_index)]->name();
                    ASSERT_NE(c.delta, nullptr) << rule;
                    bool exact = false;
                    EXPECT_EQ(pricer.cost_ms(*c.graph, c.delta, &exact),
                              model->graph_cost_ms(*c.graph))
                        << rule << " step " << step;
                    if (exact) {
                        ++from_delta[static_cast<std::size_t>(c.rule_index)];
                    } else {
                        ++fallbacks;
                    }
                }
            }
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            host = *generated.candidates[(lcg >> 33) % generated.candidates.size()].graph;
        }
    }
    EXPECT_EQ(fallbacks, 0);
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (dynamic_cast<const Pattern_rule*>(rules[i].get()) != nullptr) continue;
        EXPECT_GT(from_delta[i], 0) << rules[i]->name() << " was never priced from its delta";
    }
}

/// The bit-exact binary form: ids, tombstones, params, shapes.
std::string graph_bytes(const Graph& g)
{
    Byte_writer out;
    serialise_graph_binary(out, g);
    return out.take();
}

/// The host copy plus a splice's edits, made through Graph's own API
/// (add_node, node_mut, set_outputs) — not Graph_overlay::materialise — for
/// the reference the overlay is checked against.
Graph host_copy_with_splice(const Graph_overlay& spliced)
{
    const Graph& host = spliced.host();
    Graph g = host;
    for (Node_id id = 0; static_cast<std::size_t>(id) < host.capacity(); ++id)
        if (host.is_alive(id)) g.node_mut(id).inputs = spliced.node(id).inputs;
    // Inputs last: a redirect may point an appended node at a later one.
    for (Node_id id = spliced.first_appended(); static_cast<std::size_t>(id) < spliced.capacity();
         ++id) {
        const Node& n = spliced.node(id);
        EXPECT_EQ(g.add_node(n.kind, {}, n.params, n.name), id);
        g.node_mut(id).payload = n.payload;
    }
    for (Node_id id = spliced.first_appended(); static_cast<std::size_t>(id) < spliced.capacity();
         ++id)
        g.node_mut(id).inputs = spliced.node(id).inputs;
    g.set_outputs(spliced.outputs());
    return g;
}

/// One build's epilogue both ways: the candidate `splice` wrote into the
/// overlay `built` (with its `rewired` edges) finalised against `host`'s
/// index and memo, and a host copy with the same edits finalised by the
/// whole-graph passes. Both must accept or reject it alike; when they
/// accept, the materialised overlay's bytes, the canonical hash and every
/// Rewrite_delta field must agree. Returns whether it built, leaving the
/// memo-finalised candidate in `built` and its delta in `delta`.
bool expect_same_finalise(const Host_view& host, const std::vector<Rewired_edge>& rewired,
                          Graph_overlay& built, const std::string& what, Rewrite_delta& delta)
{
    Graph full = host_copy_with_splice(built);
    std::uint64_t hash = 0;
    std::uint64_t full_hash = 0;
    Rewrite_delta full_delta;
    const bool ok = finalise_rewrite(built, host, rewired, &hash, &delta);
    const bool full_ok = finalise_rewrite_full(full, host.graph, rewired, &full_hash, &full_delta);
    EXPECT_EQ(ok, full_ok) << what;
    if (!ok || !full_ok) return false;
    const Graph materialised = built;
    EXPECT_EQ(graph_bytes(materialised), graph_bytes(full)) << what;
    EXPECT_EQ(hash, full_hash) << what;
    EXPECT_EQ(hash, materialised.canonical_hash()) << what;
    EXPECT_EQ(delta.removed, full_delta.removed) << what;
    EXPECT_EQ(delta.added, full_delta.added) << what;
    EXPECT_EQ(delta.stale_use_producers, full_delta.stale_use_producers) << what;
    EXPECT_EQ(delta.rewired, full_delta.rewired) << what;
    EXPECT_EQ(delta.shapes_local, full_delta.shapes_local) << what;
    EXPECT_TRUE(delta.valid && full_delta.valid) << what;
    return true;
}

/// A 10-step walk from `initial`: at each step every site of every rule is
/// spliced once and finalised both ways (expect_same_finalise), and the
/// next host is one of the step's candidates. Counts each rule's builds.
void walk_finalise_parity(const Graph& initial, const Rule_set& rules, std::vector<int>& built)
{
    Graph host = initial;
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    std::vector<Rewrite_site> sites;
    std::vector<Rewired_edge> rewired;
    Graph_overlay candidate;
    Rewrite_delta delta;
    for (int step = 0; step < 10; ++step) {
        const Host_index index(host);
        const Host_memo memo(host);
        ASSERT_EQ(memo.canonical_hash(), host.canonical_hash()) << "step " << step;
        const Host_view view{host, index, memo};
        Graph next;
        int successes = 0;
        for (std::size_t r = 0; r < rules.size(); ++r) {
            sites.clear();
            rules[r]->find_sites(host, index, SIZE_MAX, sites);
            for (std::size_t i = 0; i < sites.size(); ++i) {
                candidate.reset(host);
                if (!rules[r]->splice(view, sites[i], candidate, rewired)) continue;
                const std::string what = rules[r]->name() + " step " + std::to_string(step) +
                                         " site " + std::to_string(i);
                if (!expect_same_finalise(view, rewired, candidate, what, delta)) continue;
                ++built[r];
                // Reservoir pick: every candidate is equally likely next.
                lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
                if ((lcg >> 33) % static_cast<std::uint64_t>(++successes) == 0) next = candidate;
            }
        }
        if (successes == 0) return;
        host = std::move(next);
    }
}

TEST(Candidate_engine, MemoFinaliseMatchesFullPasses)
{
    // Every candidate of every rule — pattern rules, the bespoke rules and
    // PET's split — finalised against its host's memo equals the whole-graph
    // passes' result: walks on paper-structure InceptionV3, ResNeXt-50 and
    // BERT and on the hand-built host, plus each pattern rule's own source
    // graph (the rules no model triggers).
    const Rule_set rules = pet_rule_corpus();
    std::vector<int> built(rules.size(), 0);
    for (const Graph& initial :
         {make_inception_v3(Scale::paper, 32), make_resnext50(Scale::paper, 32),
          make_bert(Scale::paper, 8), bespoke_sites_host()})
        walk_finalise_parity(initial, rules, built);
    for (const auto& rule : rules)
        if (const auto* pattern = dynamic_cast<const Pattern_rule*>(rule.get()))
            walk_finalise_parity(pattern->pattern().source, rules, built);
    for (std::size_t r = 0; r < rules.size(); ++r)
        EXPECT_GT(built[r], 0) << rules[r]->name() << " was never exercised";
}

/// A rule with one site, which redirects every use of `from` to `to`.
class Redirect_rule final : public Rewrite_rule {
public:
    Redirect_rule(Edge from, Edge to) : Rewrite_rule("redirect"), from_(from), to_(to) {}

    void find_sites(const Graph& /*host*/, const Host_index& /*index*/, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        out.emplace_back();
    }

    bool splice(const Host_view& host, const Rewrite_site& /*site*/, Graph_overlay& out,
                std::vector<Rewired_edge>& rewired) const override
    {
        out.replace_all_uses(from_, to_, host.index.users());
        rewired = {{from_, to_}};
        return true;
    }

private:
    Edge from_;
    Edge to_;
};

/// `rule`'s one candidate on `host`, finalised both ways (see
/// expect_same_finalise); its delta in `delta`.
bool redirect_both_ways(const Graph& host, const Redirect_rule& rule, Rewrite_delta& delta)
{
    const Host_index index(host);
    const Host_memo memo(host);
    const Host_view view{host, index, memo};
    Graph_overlay candidate;
    candidate.reset(host);
    std::vector<Rewired_edge> rewired;
    EXPECT_TRUE(rule.splice(view, Rewrite_site{}, candidate, rewired));
    return expect_same_finalise(view, rewired, candidate, "redirect", delta);
}

TEST(Candidate_engine, MemoFinaliseDropsHostClutterLikeFullDce)
{
    // A host that still carries nodes its outputs do not reach (pre-DCE
    // clutter, as an unoptimised model can): every candidate drops them, and
    // its delta lists them as removed, exactly as full dead-node
    // elimination does — unless the rewrite reads one again, which brings
    // it and what it reads back.
    Graph_builder b;
    const Edge x = b.input({1, 3, 8, 8});
    const Edge y = b.relu(x);
    const Edge clutter = b.sigmoid(x);
    const Edge clutter_user = b.exp(clutter);
    const Edge conv = b.conv2d(y, b.weight({4, 3, 3, 3}), 1, 1);
    const Edge out = b.tanh(b.batch_norm(conv, 4));
    const Edge clutter_chain = b.exp(clutter_user);
    const Edge deep_clutter = b.relu(clutter_chain);
    const Graph host = b.finish({out});
    ASSERT_EQ(Host_memo(host).unreachable_ids(),
              (std::vector<Node_id>{clutter.node, clutter_user.node,
                                    clutter_chain.node, deep_clutter.node}));

    // Every site of the PET corpus: fold-batch-norm, the split, patterns.
    const Rule_set rules = pet_rule_corpus();
    const Host_index index(host);
    const Host_memo memo(host);
    const Host_view view{host, index, memo};
    int built = 0;
    std::vector<Rewrite_site> sites;
    std::vector<Rewired_edge> rewired;
    for (const auto& rule : rules) {
        sites.clear();
        rule->find_sites(host, index, SIZE_MAX, sites);
        for (const Rewrite_site& site : sites) {
            Graph_overlay candidate;
            candidate.reset(host);
            Rewrite_delta delta;
            if (!rule->splice(view, site, candidate, rewired)) continue;
            if (!expect_same_finalise(view, rewired, candidate, rule->name(), delta)) continue;
            ++built;
            for (const Node_id id : memo.unreachable_ids()) {
                EXPECT_FALSE(candidate.is_alive(id)) << rule->name();
                EXPECT_NE(std::find(delta.removed.begin(), delta.removed.end(), id),
                          delta.removed.end())
                    << rule->name() << " kept clutter node " << id;
            }
        }
    }
    EXPECT_GT(built, 1);

    // Reading the clutter again: y's uses move to `clutter`, so y dies and
    // `clutter` lives; what only clutter read stays dead.
    Rewrite_delta delta;
    ASSERT_TRUE(redirect_both_ways(host, Redirect_rule(y, clutter), delta));
    EXPECT_EQ(delta.removed, (std::vector<Node_id>{y.node, clutter_user.node,
                                                   clutter_chain.node, deep_clutter.node}));
    // And reading the deepest clutter revives the chain beneath it.
    ASSERT_TRUE(redirect_both_ways(host, Redirect_rule(y, deep_clutter), delta));
    EXPECT_EQ(delta.removed, (std::vector<Node_id>{y.node}));
}

TEST(Candidate_engine, MemoFinaliseRejectsACycleThroughTheSplice)
{
    // Redirecting y's uses to a node that reads y closes a cycle through
    // the splice; redirecting them to a node beside y does not.
    Graph_builder b;
    const Edge x = b.input({4, 4});
    const Edge y = b.relu(x);
    const Edge z = b.tanh(b.sigmoid(y));
    const Edge side = b.exp(x);
    const Graph host = b.finish({b.add(z, side)});
    Rewrite_delta delta;
    EXPECT_FALSE(redirect_both_ways(host, Redirect_rule(y, z), delta));
    EXPECT_FALSE(delta.valid);
    EXPECT_TRUE(redirect_both_ways(host, Redirect_rule(y, side), delta));
    EXPECT_TRUE(delta.valid);
}

/// Every site of every rule on `host`, built as an overlay
/// (Rewrite_rule::build) and, for reference, spliced into a host copy and
/// finalised by the whole-graph passes: acceptance, hash, every delta field
/// and the materialised bytes must agree, and each cost model must price
/// the overlay from its delta exactly as it walks the materialised graph.
/// Returns one accepted candidate, materialised (the host when none was).
Graph expect_overlays_match_full_builds(const Graph& host, const Rule_set& rules,
                                        const std::string& label, std::vector<int>& built)
{
    const Cost_model cost(gtx1080_profile());
    const Pet_cost pet(cost.device());
    Delta_pricer pricers[] = {Delta_pricer(cost), Delta_pricer(pet)};
    for (Delta_pricer& pricer : pricers) pricer.reset(host);
    const Host_index index(host);
    const Host_memo memo(host);
    const Host_view view{host, index, memo};
    std::vector<Rewrite_site> sites;
    std::vector<Rewired_edge> rewired;
    Graph_overlay overlay;
    Graph_overlay spliced;
    Graph next = host;
    for (std::size_t r = 0; r < rules.size(); ++r) {
        sites.clear();
        rules[r]->find_sites(host, index, SIZE_MAX, sites);
        for (std::size_t i = 0; i < sites.size(); ++i) {
            const std::string what =
                label + " " + rules[r]->name() + " site " + std::to_string(i);
            std::uint64_t hash = 0;
            Rewrite_delta delta;
            const bool ok = rules[r]->build(view, sites[i], overlay, &hash, &delta);

            spliced.reset(host);
            bool full_ok = rules[r]->splice(view, sites[i], spliced, rewired);
            Graph full = host_copy_with_splice(spliced);
            std::uint64_t full_hash = 0;
            Rewrite_delta full_delta;
            full_ok = full_ok &&
                      finalise_rewrite_full(full, host, rewired, &full_hash, &full_delta);
            EXPECT_EQ(ok, full_ok) << what;
            if (!ok || !full_ok) continue;
            ++built[r];

            const Graph materialised = overlay;
            EXPECT_EQ(graph_bytes(materialised), graph_bytes(full)) << what;
            EXPECT_EQ(topo_walk(overlay).order, materialised.topo_order()) << what;
            EXPECT_EQ(materialised.capacity(), overlay.capacity()) << what;
            EXPECT_EQ(materialised.size(), overlay.size()) << what;
            EXPECT_EQ(hash, full_hash) << what;
            EXPECT_EQ(hash, materialised.canonical_hash()) << what;
            EXPECT_EQ(delta, full_delta) << what;
            EXPECT_TRUE(delta.valid) << what;
            for (std::size_t m = 0; m < 2; ++m) {
                const Additive_cost& model = m == 0 ? static_cast<const Additive_cost&>(cost) : pet;
                EXPECT_EQ(pricers[m].cost_ms(overlay, &delta), model.graph_cost_ms(materialised))
                    << what << " cost model " << m;
            }
            if (built[r] % 7 == 1) next = materialised;
        }
    }
    return next;
}

TEST(Candidate_engine, OverlayMaterialisesToTheFullBuild)
{
    // Overlay builds against host copies, on paper-structure InceptionV3,
    // ResNeXt-50 and BERT and on the hand-built host, three steps each so
    // later hosts carry tombstones and appended ids.
    const Rule_set rules = pet_rule_corpus();
    std::vector<int> built(rules.size(), 0);
    const std::vector<std::pair<std::string, Graph>> hosts = {
        {"inception_v3", make_inception_v3(Scale::paper, 32)},
        {"resnext50", make_resnext50(Scale::paper, 32)},
        {"bert", make_bert(Scale::paper, 8)},
        {"bespoke", bespoke_sites_host()}};
    for (const auto& [name, initial] : hosts) {
        Graph host = initial;
        for (int step = 0; step < 3; ++step)
            host = expect_overlays_match_full_builds(host, rules,
                                                     name + " step " + std::to_string(step), built);
    }
    for (std::size_t r = 0; r < rules.size(); ++r) {
        if (dynamic_cast<const Pattern_rule*>(rules[r].get()) != nullptr) continue;
        EXPECT_GT(built[r], 0) << rules[r]->name() << " was never built";
    }
}

TEST(Candidate_engine, OverlayReinfersShapesASpliceChanged)
{
    // Redirecting y (4x4) to a 1x4 input changes the shape of everything
    // downstream of the splice: the full shape pass runs, the overlay
    // copies the host nodes whose shapes changed, and the result still
    // materialises to the whole-graph epilogue's bytes and is priced by the
    // full walk.
    Graph_builder b;
    const Edge x = b.input({4, 4});
    const Edge row = b.input({1, 4});
    const Edge y = b.relu(x);
    const Edge z = b.tanh(y);
    const Graph host = b.finish({b.add(z, x), b.sigmoid(row)});
    Rewrite_delta delta;
    ASSERT_TRUE(redirect_both_ways(host, Redirect_rule(y, row), delta));
    EXPECT_FALSE(delta.shapes_local);

    const Host_index index(host);
    const Host_memo memo(host);
    Graph_overlay overlay;
    ASSERT_TRUE(Redirect_rule(y, row).build({host, index, memo}, Rewrite_site{}, overlay, nullptr,
                                            &delta));
    EXPECT_EQ(overlay.shape_of(z), (Shape{1, 4}));
    EXPECT_EQ(host.shape_of(z), (Shape{4, 4}));
    const Cost_model cost(gtx1080_profile());
    Delta_pricer pricer(cost);
    pricer.reset(host);
    bool from_delta = true;
    EXPECT_EQ(pricer.cost_ms(overlay, &delta, &from_delta), cost.graph_cost_ms(Graph(overlay)));
    EXPECT_FALSE(from_delta);

    // The overlay reads the add through to the host, but the add's input z
    // changed shape: its node-update row differs too, which only a zero-hop
    // cone can tell.
    const Graph materialised = overlay;
    const std::vector<Graph_reader> as_overlay = {overlay};
    Meta_encoder meta;
    for (int hops = 0; hops <= 2; ++hops) {
        const Encoded_graph expected = meta.encode_compact(host, {&materialised}, hops);
        const Encoded_graph& actual = meta.encode_compact(host, as_overlay, hops);
        EXPECT_EQ(actual.node_kinds, expected.node_kinds) << hops;
        EXPECT_EQ(actual.edge_src, expected.edge_src) << hops;
        EXPECT_EQ(actual.readout_rows, expected.readout_rows) << hops;
    }
}

} // namespace
} // namespace xrl
