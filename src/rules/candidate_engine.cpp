#include "rules/candidate_engine.h"

#include <unordered_set>
#include <utility>

#include "support/check.h"
#include "support/fnv.h"
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

/// Fingerprint of a site: the binding key the matcher already computed
/// (pattern sites) folded with the site's node ids (bespoke sites), mixed
/// with the rule index. Records live only within one generate_step() call
/// (one host), so the host needs no representation here.
std::uint64_t site_fingerprint(std::size_t rule_index, const Rewrite_site& site)
{
    std::uint64_t key = site.match.binding_key;
    for (const Node_id id : site.nodes)
        if (id != invalid_node) key = fnv1a_mix(key, static_cast<std::uint64_t>(id));
    return (key ^ (static_cast<std::uint64_t>(rule_index) + 1)) * 0x100000001b3ULL;
}

} // namespace

Candidate_engine::Candidate_engine(const Rule_set& rules, Candidate_engine_config config)
    : rules_(&rules), config_(config)
{
    // One process-wide pool for every parallel path (candidate builds, the
    // searches' cost fan-out and the optimization server's jobs); `serial`
    // opts out into a strict serial loop. No pool is ever constructed per
    // call site.
    if (!config_.serial) pool_ = &Thread_pool::shared();
}

void Candidate_engine::find_and_dedup(const Graph& host)
{
    // Per-phase timing: histogram references resolve once (function-local
    // statics), so the steady-state cost is two clock reads per phase.
    static Histogram& match_histogram = candidate_phase_histogram("match");
    static Histogram& dedup_histogram = candidate_phase_histogram("dedup");

    // Listing sites is cheap next to building them (every pattern rule
    // together matches in tens of microseconds), so it runs serially; the
    // fan-out unit is the build.
    per_rule_.resize(rules_->size());
    {
        const Scoped_timer_us timer(match_histogram);
        Span_scope span("candidates/match");
        for (std::size_t rule_index = 0; rule_index < rules_->size(); ++rule_index) {
            per_rule_[rule_index].clear();
            (*rules_)[rule_index]->find_sites(host, index_, config_.per_rule_limit,
                                              per_rule_[rule_index]);
        }
        if (span.active()) span.annotate("rules", std::to_string(per_rule_.size()));
    }

    // Deterministic order — rule index, then discovery order — and
    // fingerprint dedup before anything is built.
    const Scoped_timer_us timer(dedup_histogram);
    const Span_scope span("candidates/dedup");
    std::size_t total = 0;
    for (const auto& sites : per_rule_) total += sites.size();
    records_.clear();
    records_.reserve(total);
    fingerprints_seen_.clear();
    fingerprints_seen_.reserve(total);
    for (std::size_t rule_index = 0; rule_index < per_rule_.size(); ++rule_index) {
        for (Rewrite_site& site : per_rule_[rule_index])
            if (fingerprints_seen_.insert(site_fingerprint(rule_index, site)).second)
                records_.push_back({rule_index, std::move(site)});
    }
}

void Candidate_engine::build_candidates(const Graph& host, std::size_t max_total)
{
    const std::size_t per_rule_limit = config_.per_rule_limit;
    const Host_view view{host, index_, memo_};
    successes_.assign(rules_->size(), 0);
    pending_.assign(rules_->size(), 0);

    const auto build_entry = [&](std::size_t i) {
        Wave_entry& entry = wave_[i];
        Slot& slot = *entry.slot;
        entry.built = (*rules_)[entry.record->rule_index]->build(
            view, entry.record->site, slot.overlay, &entry.hash, &slot.delta);
    };

    std::size_t next = 0;
    while (next < records_.size() && step_.candidates.size() < max_total) {
        // A wave is the next run of records that the in-order loop would
        // build whatever the earlier ones' outcomes: at most as many as
        // candidates can still be kept, and no more of a rule's records
        // than its success cap has room for. A rule whose cap is already
        // met contributes nothing; one whose room is taken by records in
        // this wave ends the wave, since whether its next record is built
        // depends on how those turn out.
        wave_.clear();
        const std::size_t room = max_total - step_.candidates.size();
        for (; next < records_.size() && wave_.size() < room; ++next) {
            Rewrite_candidate& record = records_[next];
            const std::size_t rule = record.rule_index;
            if (successes_[rule] + pending_[rule] >= per_rule_limit) {
                if (pending_[rule] == 0) continue;
                break;
            }
            ++pending_[rule];
            Slot* slot = nullptr;
            if (free_.empty()) {
                slot = &slots_.emplace_back();
            } else {
                slot = free_.back();
                free_.pop_back();
            }
            wave_.push_back({&record, slot});
        }

        if (pool_ != nullptr) {
            pool_->run(wave_.size(), build_entry);
        } else {
            for (std::size_t i = 0; i < wave_.size(); ++i) build_entry(i);
        }

        // In record order: the per-rule success cap, then canonical dedup.
        for (const Wave_entry& entry : wave_) {
            const std::size_t rule = entry.record->rule_index;
            --pending_[rule];
            if (entry.built) ++successes_[rule];
            if (!entry.built || !hashes_seen_.insert(entry.hash).second) {
                free_.push_back(entry.slot);
                continue;
            }
            step_.candidates.push_back(
                {&entry.slot->overlay, static_cast<int>(rule), entry.hash,
                 &entry.slot->delta, &entry.record->site});
            leased_.push_back(entry.slot);
        }
    }

    // Records past the cap are only counted — each up to its rule's
    // remaining success cap, as though every one of them would build.
    for (; next < records_.size(); ++next) {
        const std::size_t rule = records_[next].rule_index;
        if (successes_[rule] >= per_rule_limit) continue;
        ++successes_[rule];
        ++step_.truncated;
    }
}

const Candidate_engine::Step_generated& Candidate_engine::generate_step(
    const Graph& host, std::size_t max_total, const Step_candidate* via)
{
    static Histogram& index_histogram = candidate_phase_histogram("index_build");
    static Histogram& materialise_histogram = candidate_phase_histogram("materialise");

    // Index upkeep first: `via` points into last step's storage (its delta
    // lives in an engine slot), so it must be consumed before any reuse below.
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
        // The memo every build of this step reads, built here on the
        // caller's thread before any build fans out.
        memo_.rebuild(host);
    }
    XRL_ENSURES(via == nullptr || via->hash == memo_.canonical_hash());
    const std::uint64_t host_hash = memo_.canonical_hash();

    // Reclaim last step's slots, then list sites into the persistent
    // record buffer.
    free_.insert(free_.end(), leased_.begin(), leased_.end());
    leased_.clear();
    find_and_dedup(host);

    const Scoped_timer_us timer(materialise_histogram);
    Span_scope span("candidates/materialise");
    if (span.active()) span.annotate("enumerated", std::to_string(records_.size()));

    step_.candidates.clear();
    step_.enumerated = records_.size();
    step_.truncated = 0;
    hashes_seen_.clear();
    hashes_seen_.insert(host_hash);
    build_candidates(host, max_total);
    return step_;
}

std::uint64_t Candidate_engine::rebuild(const Graph& host, const Recipe& recipe, Graph& out)
{
    static Histogram& rebuild_histogram = candidate_phase_histogram("rebuild");
    const Scoped_timer_us timer(rebuild_histogram);
    const Span_scope span("candidates/rebuild");

    const auto rule_index = static_cast<std::size_t>(recipe.rule_index);
    XRL_EXPECTS(rule_index < rules_->size());
    rebuild_index_.rebuild(host);
    rebuild_memo_.rebuild(host);
    std::uint64_t hash = 0;
    const bool built = (*rules_)[rule_index]->build({host, rebuild_index_, rebuild_memo_},
                                                    recipe.site, rebuild_overlay_, &hash);
    XRL_ENSURES(built);
    rebuild_overlay_.materialise(out);
    return hash;
}

void Candidate_engine::materialise(std::vector<Graph>& out) const
{
    static Histogram& materialise_histogram = candidate_phase_histogram("materialise");
    const Scoped_timer_us timer(materialise_histogram);
    const Span_scope span("candidates/materialise");

    // On the owner's thread: a copy is a few microseconds, and a second pool
    // wave per step cost more than it saved on the environment's models
    // (smoke BERT env rollout, bench_candidates).
    out.resize(step_.candidates.size());
    for (std::size_t i = 0; i < out.size(); ++i) step_.candidates[i].graph->materialise(out[i]);
}

} // namespace xrl
