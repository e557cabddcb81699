// Shared candidate-generation engine.
//
// Every optimisation step in X-RLflow (§3.2) regenerates the candidate set
// by pattern-matching the whole rule corpus against the current graph. All
// four search backends (the RL environment, TASO's queue search, the PET
// wrapper, Tensat's multi-pattern seeding) own an engine and call its one
// entry point, generate_step(), once per step / queue pop / seeding round:
//
//   1. an op-kind index of the host graph (Host_index), shared by every
//      rule, kept across calls and patched from the chosen candidate's
//      Rewrite_delta when the caller walks one evolving host;
//   2. the undo-log matcher behind find_matches (no per-root state copies);
//   3. lazy candidates: matching yields lightweight records with a cheap
//      fingerprint (the matcher's match-site binding key mixed with the
//      rule id) gating materialisation — the graph copy + DCE + shape
//      inference + canonical hash run only for fingerprint-unique records,
//      and never for records beyond the caller's candidate cap;
//   4. thread-pool fan-out across rules with deterministic result ordering
//      (results are collected into per-rule slots, so the output never
//      depends on thread scheduling);
//   5. candidate graphs materialise into recycled pool slots, so a
//      steady-state step allocates ~nothing; a search that keeps many
//      candidates but revisits few (TASO's queue) keeps each one's Recipe
//      and rebuild()s it from its host when needed.
//
// Rules that are not Pattern_rules (the bespoke shape-dependent rules)
// cannot defer materialisation — their apply_all_into *is* the site
// enumeration — so the engine runs them eagerly inside the fan-out and
// fingerprints them by result hash; everything downstream treats both
// kinds uniformly.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "ir/graph.h"
#include "rules/pattern.h"
#include "rules/rule.h"
#include "support/arena.h"
#include "support/thread_pool.h"

namespace xrl {

struct Candidate_engine_config {
    /// Candidates enumerated per rule per step (the environment's
    /// per_rule_limit; TASO's max_candidates_per_step).
    std::size_t per_rule_limit = SIZE_MAX;

    /// Fan-out mode: 0 = the process-wide shared pool (sized to the
    /// hardware), 1 = strictly serial, N > 1 = also the shared pool (the
    /// per-rule slot collection makes results order-independent, so a
    /// private width bought nothing but thread churn — engines are
    /// constructed per search, and the serving layer shares the same
    /// pool). The result order is identical for every setting.
    std::size_t threads = 0;

    /// After every incremental Host_index patch, rebuild the index from
    /// scratch and assert exact equality. On by default in debug builds;
    /// the A/B gate (test_incremental_index) turns it on explicitly in
    /// release builds too.
    bool verify_incremental_index =
#ifndef NDEBUG
        true;
#else
        false;
#endif
};

class Candidate_engine {
public:
    /// `rules` must outlive the engine.
    explicit Candidate_engine(const Rule_set& rules, Candidate_engine_config config = {});

    const Rule_set& rules() const { return *rules_; }

    /// How to rebuild one candidate from its host: the rule, plus the match
    /// site (pattern rules) or the candidate's slot in the rule's
    /// apply_all_into output (bespoke rules). A few hundred bytes, where the
    /// graph it stands for is the whole host — a search that keeps many
    /// candidates keeps recipes and rebuilds the few it revisits.
    struct Recipe {
        int rule_index = -1;
        Pattern_match match;              ///< Pattern rules: the match site.
        std::ptrdiff_t bespoke_slot = -1; ///< Bespoke rules: index into the rule's output.
    };

    /// One generated candidate. The graph lives in a pool slot owned by the
    /// engine (or, for bespoke rules, in the engine's per-rule batch) and
    /// stays valid until the next generate_step() call. The owner may move
    /// `*graph` out (Tensat's seeding rounds keep each round's best); the
    /// engine refills a moved-from slot the next time it uses it.
    struct Step_candidate {
        Graph* graph = nullptr;
        int rule_index = -1;
        std::uint64_t hash = 0; ///< canonical_hash of `*graph` as generated.
        /// How `*graph` differs from the host (for the next step's index
        /// patch); null for bespoke rules, which cannot report one.
        const Rewrite_delta* delta = nullptr;
        /// Pattern rules: the match site, in the engine's record buffer
        /// (valid until the next generate_step() call); null for bespoke rules.
        const Pattern_match* match = nullptr;
        /// Bespoke rules: the slot in the rule's batch; -1 for pattern rules.
        std::ptrdiff_t bespoke_slot = -1;

        /// An owned copy of the recipe, valid beyond the next call.
        Recipe recipe() const
        {
            return {rule_index, match != nullptr ? *match : Pattern_match{}, bespoke_slot};
        }
    };

    struct Step_generated {
        std::vector<Step_candidate> candidates;
        std::size_t enumerated = 0; ///< Records produced by enumeration.
        std::size_t truncated = 0;  ///< Records never materialised: cap reached.
    };

    /// Generate `host`'s candidates: fingerprint-deduped match records in
    /// (rule index, discovery order) order regardless of the thread count,
    /// materialised until `max_total` candidates survive canonical-hash
    /// dedup (against the host and against each other) — the exact
    /// semantics of the per-rule Rewrite_rule::apply_all loop. Records past
    /// the cap are only counted.
    ///
    /// The Host_index persists across calls: pass the previous call's
    /// chosen candidate as `via` and the index is patched from its
    /// Rewrite_delta instead of rebuilt, and the host's hash comes from
    /// via->hash (pass null on the first step, after a reset, or when the
    /// host changed some other way, e.g. a search popping its queue).
    /// The returned reference and every candidate in it are invalidated by
    /// the next call; `via` is read before any step storage is reused. NOT
    /// thread-safe — one owner per engine (see docs/CONCURRENCY.md).
    const Step_generated& generate_step(const Graph& host, std::size_t max_total = SIZE_MAX,
                                        const Step_candidate* via = nullptr);

    /// Rebuild the candidate `recipe` describes into `out` (recycled
    /// storage; contents unspecified) and return its canonical hash. When
    /// `host` is the graph the recipe's candidate was generated from, `out`
    /// becomes that candidate exactly — same node ids, capacity and hash.
    /// Pattern rules re-apply the match; bespoke rules re-run the rule with
    /// `limit = slot + 1` (Rewrite_rule::apply_all_into is prefix-stable)
    /// and keep the last output. Uses none of generate_step()'s storage, so
    /// the last step's candidates stay valid.
    std::uint64_t rebuild(const Graph& host, const Recipe& recipe, Graph& out);

    /// The persistent index (null before the first generate_step) —
    /// exposed for the incremental-vs-rebuild A/B gate.
    const Host_index* step_index() const { return index_ready_ ? &index_ : nullptr; }

    /// Pool/arena statistics of the candidate slot pool (bench artifacts).
    const Pool_stats& step_pool_stats() const { return slot_pool_.stats(); }
    const Arena_stats& step_arena_stats() const { return slot_pool_.arena_stats(); }

private:
    /// A candidate discovered but not yet materialised: which rule, where,
    /// and a fingerprint that dedups repeat discoveries before the
    /// expensive apply_match_into. Bespoke rules arrive pre-built, as a
    /// slot index into the rule's batch in bespoke_.
    struct Rewrite_candidate {
        std::size_t rule_index = 0;
        Pattern_match match;              ///< Pattern rules: the match site.
        std::uint64_t fingerprint = 0;    ///< Cheap pre-materialisation dedup key.
        std::ptrdiff_t pre_built_slot = -1; ///< Bespoke rules: index into the rule's batch.
    };

    /// Match every rule against index_, then fingerprint-dedup into records_.
    void match_and_dedup(const Graph& host);

    /// A recycled materialisation target: the graph and the delta that
    /// turns the host's index into the graph's.
    struct Slot {
        Graph graph;
        Rewrite_delta delta;
    };

    const Rule_set* rules_;
    Candidate_engine_config config_;
    std::vector<const Pattern_rule*> pattern_rules_; ///< Per rule; null = generic.
    Thread_pool* pool_ = nullptr; ///< The shared pool; null = serial.

    Host_index index_;
    bool index_ready_ = false;
    std::vector<std::vector<Rewrite_candidate>> per_rule_; ///< Match fan-out results.
    std::vector<Graph_batch> bespoke_; ///< Per rule: eagerly built bespoke candidates.
    Graph_batch rebuild_batch_;        ///< rebuild()'s bespoke-rule scratch.
    std::unordered_set<std::uint64_t> fingerprints_seen_;
    std::vector<Rewrite_candidate> records_;
    Pool<Slot> slot_pool_;
    std::vector<Slot*> leased_; ///< Slots backing step_.candidates.
    std::unordered_set<std::uint64_t> hashes_seen_;
    Step_generated step_;
};

class Histogram;

/// The registry histogram `xrlflow_candidate_phase_us{phase=...}` every
/// engine instance times its pipeline phases into (index_build, match,
/// dedup, materialise, finalise_rewrite, rebuild). Exposed so the benches can read
/// per-phase snapshots into BENCH_candidates.json.
Histogram& candidate_phase_histogram(const char* phase);

} // namespace xrl
