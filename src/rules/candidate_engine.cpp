#include "rules/candidate_engine.h"

#include <unordered_set>
#include <utility>

#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace xrl {

Histogram& candidate_phase_histogram(const char* phase)
{
    return Metrics_registry::global().histogram(
        "xrlflow_candidate_phase_us", "Candidate-engine time by pipeline phase",
        duration_us_buckets(), {{"phase", phase}});
}

namespace {

/// Fingerprint of a match site: the binding key the matcher already
/// computed, mixed with the rule index. Records live only within one
/// generate_step() call (one host), so the host needs no representation here.
std::uint64_t match_fingerprint(std::size_t rule_index, const Pattern_match& match)
{
    return (match.binding_key ^ (static_cast<std::uint64_t>(rule_index) + 1)) *
           0x100000001b3ULL;
}

} // namespace

Candidate_engine::Candidate_engine(const Rule_set& rules, Candidate_engine_config config)
    : rules_(&rules), config_(config)
{
    pattern_rules_.reserve(rules.size());
    for (const auto& rule : rules)
        pattern_rules_.push_back(dynamic_cast<const Pattern_rule*>(rule.get()));

    // One process-wide pool for every parallel path (candidate fan-out and
    // the optimization server's jobs); threads == 1 opts out into a strict
    // serial loop. No pool is ever constructed per call site.
    if (config_.threads != 1) pool_ = &Thread_pool::shared();
}

void Candidate_engine::match_and_dedup(const Graph& host)
{
    // Per-phase timing: histogram references resolve once (function-local
    // statics), so the steady-state cost is two clock reads per phase.
    static Histogram& match_histogram = candidate_phase_histogram("match");
    static Histogram& dedup_histogram = candidate_phase_histogram("dedup");

    per_rule_.resize(rules_->size());
    for (auto& bucket : per_rule_) bucket.clear();
    bespoke_.resize(rules_->size());

    const auto run_rule = [&](std::size_t rule_index) {
        std::vector<Rewrite_candidate>& bucket = per_rule_[rule_index];
        if (const Pattern_rule* pattern_rule = pattern_rules_[rule_index]) {
            auto matches = find_matches(host, index_, pattern_rule->pattern(),
                                        config_.per_rule_limit);
            bucket.reserve(matches.size());
            for (Pattern_match& match : matches) {
                Rewrite_candidate record;
                record.rule_index = rule_index;
                record.fingerprint = match_fingerprint(rule_index, match);
                record.match = std::move(match);
                bucket.push_back(std::move(record));
            }
        } else {
            // Bespoke rule: materialise eagerly into the rule's recycled
            // batch; records carry slot indices, not owned graphs.
            Graph_batch& batch = bespoke_[rule_index];
            batch.reset();
            (*rules_)[rule_index]->apply_all_into(host, config_.per_rule_limit, batch);
            bucket.reserve(batch.size());
            for (std::size_t slot = 0; slot < batch.size(); ++slot) {
                Rewrite_candidate record;
                record.rule_index = rule_index;
                record.fingerprint = batch[slot].canonical_hash();
                record.pre_built_slot = static_cast<std::ptrdiff_t>(slot);
                bucket.push_back(std::move(record));
            }
        }
    };

    {
        const Scoped_timer_us timer(match_histogram);
        Span_scope span("candidates/match");
        if (pool_ != nullptr) {
            pool_->run(per_rule_.size(), run_rule);
        } else {
            for (std::size_t i = 0; i < per_rule_.size(); ++i) run_rule(i);
        }
        if (span.active()) span.annotate("rules", std::to_string(per_rule_.size()));
    }

    // Deterministic order — rule index, then discovery order — and
    // fingerprint dedup before anything is materialised.
    const Scoped_timer_us timer(dedup_histogram);
    const Span_scope span("candidates/dedup");
    std::size_t total = 0;
    for (const auto& bucket : per_rule_) total += bucket.size();
    records_.clear();
    records_.reserve(total);
    fingerprints_seen_.clear();
    fingerprints_seen_.reserve(total);
    for (auto& bucket : per_rule_)
        for (Rewrite_candidate& record : bucket)
            if (fingerprints_seen_.insert(record.fingerprint).second)
                records_.push_back(std::move(record));
}

const Candidate_engine::Step_generated& Candidate_engine::generate_step(
    const Graph& host, std::size_t max_total, const Step_candidate* via)
{
    static Histogram& index_histogram = candidate_phase_histogram("index_build");
    static Histogram& materialise_histogram = candidate_phase_histogram("materialise");

    // Index upkeep first: `via` points into last step's storage (its delta
    // lives in a pool slot), so it must be consumed before any reuse below.
    {
        const Scoped_timer_us timer(index_histogram);
        const Span_scope span("candidates/index_build");
        if (index_ready_ && via != nullptr && via->delta != nullptr) {
            index_.apply_delta(host, *via->delta);
            if (config_.verify_incremental_index) {
                const Host_index fresh(host);
                XRL_ENSURES(index_.equals(fresh));
            }
        } else {
            index_.rebuild(host);
        }
        index_ready_ = true;
    }
    const std::uint64_t host_hash = via != nullptr ? via->hash : host.canonical_hash();

    // Reclaim last step's slots, then match into the persistent record
    // buffer (bespoke candidates live in bespoke_'s per-rule batches until
    // the next call).
    for (Slot* slot : leased_) slot_pool_.release(slot);
    leased_.clear();
    match_and_dedup(host);

    const Scoped_timer_us timer(materialise_histogram);
    Span_scope span("candidates/materialise");
    if (span.active()) span.annotate("enumerated", std::to_string(records_.size()));

    step_.candidates.clear();
    step_.enumerated = records_.size();
    step_.truncated = 0;
    hashes_seen_.clear();
    hashes_seen_.insert(host_hash);

    Slot* working = nullptr;
    for (Rewrite_candidate& record : records_) {
        if (step_.candidates.size() >= max_total) {
            ++step_.truncated;
            continue;
        }
        if (record.pre_built_slot >= 0) {
            // Bespoke rule: already materialised during enumeration into
            // the rule's batch (alive until the next call); the
            // fingerprint is its canonical hash. No delta — choosing one
            // forces an index rebuild next step.
            if (!hashes_seen_.insert(record.fingerprint).second) continue;
            Graph* graph =
                &bespoke_[record.rule_index][static_cast<std::size_t>(record.pre_built_slot)];
            step_.candidates.push_back({graph, static_cast<int>(record.rule_index),
                                        record.fingerprint, nullptr, nullptr,
                                        record.pre_built_slot});
            continue;
        }
        const Pattern_rule* pattern_rule = pattern_rules_[record.rule_index];
        XRL_EXPECTS(pattern_rule != nullptr);
        if (working == nullptr) working = slot_pool_.acquire();
        std::uint64_t hash = 0;
        if (!apply_match_into(working->graph, host, pattern_rule->pattern(), record.match, &hash,
                              &working->delta))
            continue; // invalid site; `working` is reused for the next record
        if (!hashes_seen_.insert(hash).second) continue;
        step_.candidates.push_back({&working->graph, static_cast<int>(record.rule_index), hash,
                                    &working->delta, &record.match});
        leased_.push_back(working);
        working = nullptr;
    }
    if (working != nullptr) slot_pool_.release(working);
    return step_;
}

std::uint64_t Candidate_engine::rebuild(const Graph& host, const Recipe& recipe, Graph& out)
{
    static Histogram& rebuild_histogram = candidate_phase_histogram("rebuild");
    const Scoped_timer_us timer(rebuild_histogram);
    const Span_scope span("candidates/rebuild");

    const auto rule_index = static_cast<std::size_t>(recipe.rule_index);
    XRL_EXPECTS(rule_index < rules_->size());
    if (const Pattern_rule* pattern_rule = pattern_rules_[rule_index]) {
        std::uint64_t hash = 0;
        const bool applied =
            apply_match_into(out, host, pattern_rule->pattern(), recipe.match, &hash);
        XRL_ENSURES(applied);
        return hash;
    }
    // Bespoke rule: its first slot + 1 outputs are the same at any larger
    // limit, so the candidate is the last of them. The swap hands `out`'s
    // old buffers to the batch, keeping both sides warm.
    XRL_EXPECTS(recipe.bespoke_slot >= 0);
    const auto slot = static_cast<std::size_t>(recipe.bespoke_slot);
    rebuild_batch_.reset();
    (*rules_)[rule_index]->apply_all_into(host, slot + 1, rebuild_batch_);
    XRL_ENSURES(rebuild_batch_.size() == slot + 1);
    std::swap(out, rebuild_batch_[slot]);
    return out.canonical_hash();
}

} // namespace xrl
