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
//      Rewrite_delta when the caller walks one evolving host; and the
//      host's memo (Host_memo: per-node Merkle terms and depths, the
//      canonical hash, the nodes the outputs do not reach), built once
//      per call;
//   2. the undo-log matcher behind find_matches (no per-root state copies);
//   3. sites, then builds: every rule lists its sites first
//      (Rewrite_rule::find_sites — pattern matches, or the node ids a
//      bespoke rule reads), each record carrying a cheap fingerprint (the
//      match's binding key, or the site's node ids, mixed with the rule id)
//      that dedups repeat discoveries before anything is built; a build
//      (Rewrite_rule::build) — the rule's splice into an overlay on the
//      host (appended nodes, copy-on-write copies of the host nodes whose
//      slots it redirects, found through the index's use lists), then
//      finalise_rewrite's cycle check, dead-node sweep, shape inference,
//      validation, canonical hash and delta, all local to the splice and
//      read from the index and memo — runs only for records the caller's
//      caps can still keep, and never copies the host;
//   4. the unit of parallel work is one candidate: records are built in
//      waves on the shared thread pool, each into its own slot, and an
//      in-order serial pass then applies the per-rule success cap and the
//      canonical-hash dedup — so the output never depends on thread
//      scheduling, and a wave never builds a record the serial loop would
//      have skipped;
//   5. candidate overlays build into recycled slots, and a candidate
//      becomes a Graph (Graph_overlay::materialise: host copy plus overlay)
//      only where a caller needs one — the environment's chosen candidate
//      (its encoder reads the rest as overlays; materialise() copies the
//      capped set only for Environment::candidates()), TASO's and PET's
//      pops and best graph (rebuild() from a kept Recipe, the rule and the
//      site), Tensat's seeding winner. TASO, PET and Tensat's seeding price
//      every candidate from its overlay and delta without materialising it.
//
// Pattern and bespoke rules differ only in what their sites hold and how
// they splice; every build reports its Rewrite_delta, so the next step's
// index is patched whichever kind was chosen. The engine treats both kinds
// uniformly.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "ir/graph.h"
#include "rules/pattern.h"
#include "rules/rule.h"
#include "support/thread_pool.h"

namespace xrl {

struct Candidate_engine_config {
    /// Candidates per rule per step (the environment's per_rule_limit;
    /// TASO's max_candidates_per_step): pattern rules' match cap, bespoke
    /// rules' success cap.
    std::size_t per_rule_limit = SIZE_MAX;

    /// Build fan-out: false = the process-wide shared pool (sized to the
    /// hardware; engines are constructed per search, and the serving layer
    /// shares the same pool), true = a strict serial loop on the caller's
    /// thread, the parity reference. Every build lands in its own slot and
    /// a serial pass keeps them in record order, so the result order is
    /// identical either way.
    bool serial = false;

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

    /// How to rebuild one candidate from its host: the rule and the site.
    /// A few hundred bytes, where the graph it stands for is the whole host
    /// — a search that keeps many candidates keeps recipes and rebuilds the
    /// few it revisits.
    struct Recipe {
        int rule_index = -1;
        Rewrite_site site;
    };

    /// One generated candidate. Its graph is an overlay on the step's host,
    /// in a slot owned by the engine: valid until the next generate_step()
    /// call, and only while the host is unchanged. Materialise it
    /// (Graph_overlay::materialise) to keep it or to read it as a Graph.
    struct Step_candidate {
        const Graph_overlay* graph = nullptr;
        int rule_index = -1;
        std::uint64_t hash = 0; ///< canonical_hash of the candidate graph.
        /// How the candidate differs from the host (for the next step's
        /// index patch and for delta pricing); every build reports one.
        const Rewrite_delta* delta = nullptr;
        /// The site, in the engine's record buffer (valid until the next
        /// generate_step() call).
        const Rewrite_site* site = nullptr;

        /// An owned copy of the recipe, valid beyond the next call.
        Recipe recipe() const { return {rule_index, *site}; }
    };

    struct Step_generated {
        std::vector<Step_candidate> candidates;
        /// Records produced by enumeration: fingerprint-unique sites.
        std::size_t enumerated = 0;
        /// Records never built because `max_total` was reached — at most
        /// the rule's remaining success cap per rule (a site past the cap
        /// might have failed to build, so this is an upper bound).
        std::size_t truncated = 0;
    };

    /// Generate `host`'s candidates: fingerprint-deduped site records in
    /// (rule index, discovery order) order regardless of the thread count,
    /// built until `max_total` candidates survive canonical-hash dedup
    /// (against the host and against each other) — the exact semantics of
    /// the per-rule Rewrite_rule::apply_all loop at `per_rule_limit`: a
    /// rule contributes its first `per_rule_limit` successful builds
    /// (pattern rules never list more sites than that). Records past the
    /// cap are only counted.
    ///
    /// The Host_index persists across calls: pass the previous call's
    /// chosen candidate as `via` and the index is patched from its
    /// Rewrite_delta instead of rebuilt (pass null on the first step, after
    /// a reset, or when the host changed some other way, e.g. a search
    /// popping its queue). The Host_memo is rebuilt every call; the host's
    /// canonical hash comes from it.
    /// The returned reference and every candidate in it are invalidated by
    /// the next call; `via` is read before any step storage is reused. NOT
    /// thread-safe — one owner per engine (see docs/CONCURRENCY.md).
    const Step_generated& generate_step(const Graph& host, std::size_t max_total = SIZE_MAX,
                                        const Step_candidate* via = nullptr);

    /// Rebuild the candidate `recipe` describes into `out` (recycled
    /// storage; contents unspecified) and return its canonical hash: one
    /// Rewrite_rule::build of the recipe's site, against an index and memo
    /// of `host` built for this call, materialised. When `host` is the graph
    /// the recipe's candidate was generated from, `out` becomes that
    /// candidate exactly — same node ids, capacity and hash. Uses none of
    /// generate_step()'s storage, so the last step's candidates stay valid.
    std::uint64_t rebuild(const Graph& host, const Recipe& recipe, Graph& out);

    /// Materialise every candidate of the last generate_step() into `out`,
    /// resized to the candidate count (elements are recycled storage):
    /// `out[i]` becomes candidate i's graph, copied on the caller's thread.
    /// `out` must not hold the step's host.
    void materialise(std::vector<Graph>& out) const;

    /// The persistent index (null before the first generate_step) —
    /// exposed for the incremental-vs-rebuild A/B gate.
    const Host_index* step_index() const { return index_ready_ ? &index_ : nullptr; }

    /// Build slots constructed so far; a slot is recycled, never freed.
    std::size_t slot_count() const { return slots_.size(); }

private:
    /// A candidate discovered but not yet built: which rule, and where.
    struct Rewrite_candidate {
        std::size_t rule_index = 0;
        Rewrite_site site;
    };

    /// A recycled build target: the candidate's overlay and the delta that
    /// turns the host's index into the candidate's.
    struct Slot {
        Graph_overlay overlay;
        Rewrite_delta delta;
    };

    /// One record of the current build wave and what its build produced.
    struct Wave_entry {
        Rewrite_candidate* record = nullptr;
        Slot* slot = nullptr;
        bool built = false;
        std::uint64_t hash = 0;
    };

    /// List every rule's sites against index_, fingerprint-deduped into
    /// records_.
    void find_and_dedup(const Graph& host);

    /// Build records_ in waves until `max_total` candidates are kept.
    void build_candidates(const Graph& host, std::size_t max_total);

    const Rule_set* rules_;
    Candidate_engine_config config_;
    Thread_pool* pool_ = nullptr; ///< The shared pool; null = serial.

    Host_index index_;
    bool index_ready_ = false;
    Host_memo memo_;           ///< Of the current step's host.
    Host_index rebuild_index_; ///< rebuild()'s, kept for their storage.
    Host_memo rebuild_memo_;
    Graph_overlay rebuild_overlay_;
    std::vector<std::vector<Rewrite_site>> per_rule_; ///< find_sites output per rule.
    std::unordered_set<std::uint64_t> fingerprints_seen_;
    std::vector<Rewrite_candidate> records_;
    std::vector<std::size_t> successes_; ///< Per rule: successful builds this step.
    std::vector<std::size_t> pending_;   ///< Per rule: records in the current wave.
    std::vector<Wave_entry> wave_;
    /// Every build slot. Deque elements never move, so slot pointers stay
    /// valid, and a recycled slot keeps its graph's buffers warm.
    std::deque<Slot> slots_;
    std::vector<Slot*> free_;   ///< Slots not backing a candidate, reused first.
    std::vector<Slot*> leased_; ///< Slots backing step_.candidates.
    std::unordered_set<std::uint64_t> hashes_seen_;
    Step_generated step_;
};

class Histogram;

/// The histogram that every engine instance times its pipeline phases into:
/// `xrlflow_candidate_phase_us{phase=...}` for index_build (the Host_index
/// and the Host_memo), match, dedup, materialise (every build wave of
/// overlays, and every wave of Candidate_engine::materialise), finalise_rewrite
/// and rebuild (an overlay build plus its materialisation). Exposed so the
/// benches can read per-phase snapshots into BENCH_candidates.json.
Histogram& candidate_phase_histogram(const char* phase);

} // namespace xrl
