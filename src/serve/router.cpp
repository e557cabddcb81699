#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "support/check.h"
#include "support/fnv.h"
#include "support/trace.h"

namespace xrl {

namespace {

/// Rendezvous (highest-random-weight) score of one shard for one key. The
/// extra mix decorrelates the FNV chain so nearby stable ids do not win
/// nearby key hashes.
std::uint64_t rendezvous_weight(std::uint64_t key_hash, std::uint64_t stable_id)
{
    return fnv1a_mix(fnv1a_mix(key_hash, stable_id), 0x9e3779b97f4a7c15ULL);
}

} // namespace

Optimization_router::Optimization_router(Router_config config) : config_(std::move(config))
{
    if (config_.shards.empty())
        throw std::invalid_argument("Optimization_router: config.shards must be non-empty");
    slots_.reserve(config_.shards.size());
    for (Shard_config& shard_config : config_.shards)
        slots_.push_back(make_slot(std::move(shard_config), next_stable_id_++));
    config_.shards.clear(); // each config now lives on its slot
    shard_count_gauge_.set(static_cast<double>(slots_.size()));
}

std::shared_ptr<Optimization_router::Slot>
Optimization_router::make_slot(Shard_config shard_config, std::uint64_t stable_id) const
{
    // The fleet store reaches every shard that did not bring its own, so
    // one shard's learned state (policies, memo snapshots) warms the rest.
    if (config_.state_store != nullptr && shard_config.server.state_store == nullptr)
        shard_config.server.state_store = config_.state_store;
    // Likewise the fleet fault plan: each shard consumes events at its own
    // stable-id site, so a plan can kill exactly one shard.
    if (config_.fault_plan != nullptr && shard_config.server.fault_plan == nullptr) {
        shard_config.server.fault_plan = config_.fault_plan;
        shard_config.server.fault_site = "shard/" + std::to_string(stable_id);
    }

    // The stable shard id is the fleet-wide `shard` label: the server's
    // Telemetry series and the router's per-shard series line up on it.
    shard_config.server.metrics_shard = std::to_string(stable_id);

    auto slot = std::make_shared<Slot>();
    slot->stable_id = stable_id;
    slot->health = std::make_shared<Shard_health>(config_.health);
    const Metric_labels shard_label{{"shard", shard_config.server.metrics_shard}};
    slot->routed.emplace("xrlflow_router_routed_total", "Submits routed to this shard", shard_label);
    slot->breaker_gauge = &Metrics_registry::global().gauge(
        "xrlflow_shard_breaker_state", "Circuit breaker: 0 closed, 1 open, 2 half-open", shard_label);
    slot->config = std::move(shard_config);
    slot->server = build_server(slot->config, slot->health);
    for (const std::string& device : slot->config.device_affinity)
        if (!slot->server->service().devices().contains(device))
            throw std::invalid_argument("Optimization_router: shard " + std::to_string(stable_id) +
                                        " declares affinity for device '" + device +
                                        "' its registry does not hold");
    return slot;
}

std::shared_ptr<Optimization_server>
Optimization_router::build_server(const Shard_config& shard_config,
                                  const std::shared_ptr<Shard_health>& health)
{
    // Chain the breaker feed in front of any hook the config brought: the
    // slot's config keeps only the user hook, so a replacement server
    // re-chains cleanly instead of stacking wrappers.
    Server_config server_config = shard_config.server;
    const Completion_hook user_hook = server_config.on_terminal;
    server_config.on_terminal = [health, user_hook](const std::string& backend, Job_state state) {
        // done and cancelled both mean "the shard did its job"; only a
        // failed execution counts against the breaker.
        if (state == Job_state::failed)
            health->record_failure();
        else
            health->record_success();
        if (user_hook) user_hook(backend, state);
    };
    return std::make_shared<Optimization_server>(std::move(server_config));
}

std::size_t Optimization_router::shard_count() const
{
    Shared_lock lock(membership_mutex_);
    return slots_.size();
}

Optimization_server& Optimization_router::shard(std::size_t index)
{
    Shared_lock lock(membership_mutex_);
    XRL_EXPECTS(index < slots_.size());
    return *slots_[index]->server;
}

std::string Optimization_router::routing_device(const Optimize_request& request) const
{
    const std::string& name = request.device.display_name();
    if (!name.empty()) return name;
    return slots_.front()->server->service().devices().default_device();
}

Optimization_router::Route_decision
Optimization_router::decide_locked(const std::string& backend, std::uint64_t model_hash,
                                   const std::string& device, bool inline_profile,
                                   bool consume_probe) const
{
    XRL_EXPECTS(!slots_.empty());

    // Candidate pool: shards that claimed this device (make_slot
    // guarantees a declared affinity is servable), else the servable
    // fleet. Inline profiles are servable anywhere (shards cache them on
    // demand), as is a name no shard holds (every shard rejects
    // identically; let the hashed one report it).
    std::vector<std::shared_ptr<Slot>> pool;
    for (const std::shared_ptr<Slot>& slot : slots_) {
        const auto& affinity = slot->config.device_affinity;
        if (std::find(affinity.begin(), affinity.end(), device) != affinity.end())
            pool.push_back(slot);
    }
    const bool used_affinity = !pool.empty();
    if (pool.empty()) {
        for (const std::shared_ptr<Slot>& slot : slots_)
            if (inline_profile || slot->server->service().devices().contains(device))
                pool.push_back(slot);
        if (pool.empty()) pool = slots_;
    }

    const std::uint64_t h =
        fnv1a_bytes(fnv1a_bytes(fnv1a_mix(fnv1a_offset, model_hash), backend), device);
    const auto rendezvous_pick = [h](const std::vector<std::shared_ptr<Slot>>& candidates) {
        std::shared_ptr<Slot> best;
        std::uint64_t best_weight = 0;
        for (const std::shared_ptr<Slot>& slot : candidates) {
            const std::uint64_t weight = rendezvous_weight(h, slot->stable_id);
            if (best == nullptr || weight > best_weight ||
                (weight == best_weight && slot->stable_id < best->stable_id)) {
                best = slot;
                best_weight = weight;
            }
        }
        return best;
    };
    // The decision as if every candidate were healthy: rendezvous keeps it
    // stable under membership changes elsewhere in the fleet.
    const std::shared_ptr<Slot> steady = rendezvous_pick(pool);

    // Probe admission first: a half-open shard only re-earns trust through
    // real traffic, so the first submits after its open window route there.
    if (consume_probe)
        for (const std::shared_ptr<Slot>& slot : pool)
            if (!slot->draining.load(std::memory_order_relaxed) && slot->health->try_admit_probe())
                return {slot, used_affinity, /*probe=*/true, /*rerouted=*/slot != steady};

    std::vector<std::shared_ptr<Slot>> healthy;
    for (const std::shared_ptr<Slot>& slot : pool)
        if (!slot->draining.load(std::memory_order_relaxed) &&
            slot->health->state() == Breaker_state::closed)
            healthy.push_back(slot);
    // Nothing healthy: route to the steady pick anyway — better refused by
    // a sick shard than dropped by a healthy router.
    if (healthy.empty()) return {steady, used_affinity, /*probe=*/false, /*rerouted=*/false};
    const std::shared_ptr<Slot> pick = rendezvous_pick(healthy);
    return {pick, used_affinity, /*probe=*/false, /*rerouted=*/pick != steady};
}

std::size_t Optimization_router::route(const std::string& backend, const Graph& graph,
                                       const Optimize_request& request) const
{
    Shared_lock lock(membership_mutex_);
    const Route_decision decision =
        decide_locked(backend, graph.model_hash(), routing_device(request),
                      request.device.profile.has_value(), /*consume_probe=*/false);
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i] == decision.slot) return i;
    XRL_ASSERT(false); // decide_locked only returns members of slots_
    return 0;
}

Job_handle Optimization_router::submit(const std::string& backend, const Graph& graph,
                                       const Optimize_request& request,
                                       const Submit_options& options)
{
    const std::uint64_t model_hash = graph.model_hash(); // paid once: routing + coalesce key
    Span_scope span("router/dispatch");
    Shared_lock lock(membership_mutex_);
    const std::string device = routing_device(request);
    const Route_decision decision = decide_locked(backend, model_hash, device,
                                                  request.device.profile.has_value(),
                                                  /*consume_probe=*/true);
    if (span.active()) {
        span.annotate("backend", backend);
        span.annotate("shard", std::to_string(decision.slot->stable_id));
        span.annotate("device", device);
    }
    // Pin the resolved device onto the request: routing resolved "default"
    // against the first shard's registry, and the executing shard must
    // optimise for *that* device even if its own default differs
    // (heterogeneous shard configs). A shard that cannot serve the pinned
    // name rejects loudly (invalid_argument) instead of silently answering
    // for another device.
    Optimize_request routed = request;
    if (routed.device.is_default()) routed.device = Target_device(device);
    // The shard revalidates (budgets, backend name, device against its own
    // registry) before anything is counted there; count the routing
    // decision only after it accepted the submit.
    Job_handle handle =
        decision.slot->server->submit_hashed(model_hash, backend, graph, routed, options);
    submitted_.increment();
    decision.slot->routed->increment();
    (decision.used_affinity ? affinity_routed_ : hash_routed_).increment();
    if (decision.probe) probe_routed_.increment();
    if (decision.rerouted) breaker_rerouted_.increment();
    return handle;
}

void Optimization_router::drain()
{
    // Snapshot the membership, then drain outside the lock: a long drain
    // must not block membership changes (or vice versa).
    std::vector<std::shared_ptr<Optimization_server>> servers;
    {
        Shared_lock lock(membership_mutex_);
        servers.reserve(slots_.size());
        for (const std::shared_ptr<Slot>& slot : slots_) servers.push_back(slot->server);
    }
    for (const std::shared_ptr<Optimization_server>& server : servers) server->drain();
}

void Optimization_router::save_state()
{
    std::vector<std::shared_ptr<Slot>> slots;
    std::vector<std::shared_ptr<Optimization_server>> servers;
    {
        Shared_lock lock(membership_mutex_);
        for (const std::shared_ptr<Slot>& slot : slots_) {
            slots.push_back(slot);
            servers.push_back(slot->server);
        }
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::shared_ptr<State_store>& store = slots[i]->config.server.state_store;
        if (store != nullptr) store->save_memo(servers[i]->service());
    }
}

std::shared_ptr<Optimization_router::Slot>
Optimization_router::begin_drain(std::size_t index, std::shared_ptr<Optimization_server>* server)
{
    // Exclusive: waits for in-flight submits to release the shared lock,
    // so once draining is visible no routed submit can still reach the
    // slot.
    Writer_lock lock(membership_mutex_);
    XRL_EXPECTS(index < slots_.size());
    std::shared_ptr<Slot> slot = slots_[index];
    slot->draining.store(true, std::memory_order_relaxed);
    if (server != nullptr) *server = slot->server;
    return slot;
}

std::size_t Optimization_router::add_shard(Shard_config shard_config)
{
    std::uint64_t stable_id = 0;
    {
        Writer_lock lock(membership_mutex_);
        stable_id = next_stable_id_++;
    }
    // Built outside the lock: server construction imports warm state and
    // must not stall the fleet's routing.
    std::shared_ptr<Slot> slot = make_slot(std::move(shard_config), stable_id);
    Writer_lock lock(membership_mutex_);
    slots_.push_back(std::move(slot));
    return slots_.size() - 1;
}

void Optimization_router::remove_shard(std::size_t index)
{
    std::shared_ptr<Slot> slot;
    std::shared_ptr<Optimization_server> server;
    {
        Writer_lock lock(membership_mutex_);
        XRL_EXPECTS(index < slots_.size());
        if (slots_.size() == 1)
            throw std::invalid_argument(
                "Optimization_router: cannot remove the last shard of the fleet");
        slot = slots_[index];
        server = slot->server;
        slot->draining.store(true, std::memory_order_relaxed);
    }
    // Out of rotation; in-flight and queued jobs finish (waiters get their
    // results) and the shard's warm state snapshots into the store.
    server->drain();
    {
        Writer_lock lock(membership_mutex_);
        const auto it = std::find(slots_.begin(), slots_.end(), slot);
        if (it != slots_.end()) slots_.erase(it);
    }
    // The slot (and its idle server) die with the last reference.
}

void Optimization_router::drain_shard(std::size_t index)
{
    std::shared_ptr<Optimization_server> server;
    std::shared_ptr<Slot> slot = begin_drain(index, &server);
    server->drain();
    slot->draining.store(false, std::memory_order_relaxed);
}

void Optimization_router::replace_shard(std::size_t index)
{
    std::shared_ptr<Optimization_server> outgoing;
    std::shared_ptr<Slot> slot = begin_drain(index, &outgoing);
    // Drain out of rotation: with a shared store the outgoing shard's warm
    // state (memo snapshot; policies were written through as they trained)
    // lands in the store, and the replacement imports it at construction —
    // the swap loses no learned state.
    outgoing->drain();
    std::shared_ptr<Optimization_server> replacement = build_server(slot->config, slot->health);
    {
        Writer_lock lock(membership_mutex_);
        slot->server = std::move(replacement);
    }
    outgoing.reset(); // destructor snapshot + worker teardown
    // A replacement is a fresh process in spirit: clean breaker history.
    slot->health->reset();
    slot->draining.store(false, std::memory_order_relaxed);
}

Router_stats Optimization_router::stats() const
{
    Router_stats out;
    out.submitted = submitted_.value();
    out.affinity_routed = affinity_routed_.value();
    out.hash_routed = hash_routed_.value();
    out.probe_routed = probe_routed_.value();
    out.breaker_rerouted = breaker_rerouted_.value();

    std::vector<std::shared_ptr<Slot>> slots;
    std::vector<std::shared_ptr<Optimization_server>> servers;
    {
        Shared_lock lock(membership_mutex_);
        for (const std::shared_ptr<Slot>& slot : slots_) {
            slots.push_back(slot);
            servers.push_back(slot->server);
        }
    }
    out.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
    out.snapshot_seq = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    uptime_gauge_.set(out.uptime_seconds);
    shard_count_gauge_.set(static_cast<double>(slots.size()));

    out.shards.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        out.shards.push_back(servers[i]->stats());
        out.routed_to.push_back(slots[i]->routed->value());
        Shard_health_snapshot health = slots[i]->health->snapshot();
        health.stable_id = slots[i]->stable_id;
        health.draining = slots[i]->draining.load(std::memory_order_relaxed);
        // A scrape is the natural refresh point for the breaker gauge —
        // breaker transitions are observation-driven anyway.
        slots[i]->breaker_gauge->set(static_cast<double>(static_cast<int>(health.state)));
        out.health.push_back(health);
    }

    Server_stats& total = out.total;
    // The router's own sequence: per-shard ones restart when a shard is
    // replaced and vanish when one is removed.
    total.snapshot_seq = out.snapshot_seq;
    for (const Server_stats& s : out.shards) {
        total.submitted += s.submitted;
        total.coalesced += s.coalesced;
        total.rejected += s.rejected;
        total.shed += s.shed;
        total.completed += s.completed;
        total.cancelled += s.cancelled;
        total.failed += s.failed;
        total.cache_hits += s.cache_hits;
        total.queue_depth += s.queue_depth;
        total.running += s.running;
        total.inflight += s.inflight;
        // Summed per-shard high-water marks: an upper bound on the fleet's
        // simultaneous peak (the shards need not have peaked together).
        total.peak_queue_depth += s.peak_queue_depth;
        total.peak_running += s.peak_running;
        // A fleet is as late as its slowest member: report the worst
        // shard's percentiles.
        total.p50_latency_ms = std::max(total.p50_latency_ms, s.p50_latency_ms);
        total.p95_latency_ms = std::max(total.p95_latency_ms, s.p95_latency_ms);
        // The fleet is as old as its oldest member.
        total.uptime_seconds = std::max(total.uptime_seconds, s.uptime_seconds);
        for (const auto& [backend, b] : s.backends) {
            Backend_stats& agg = total.backends[backend];
            agg.submitted += b.submitted;
            agg.completed += b.completed;
            agg.cancelled += b.cancelled;
            agg.failed += b.failed;
            agg.busy_seconds += b.busy_seconds;
        }
    }
    return out;
}

} // namespace xrl
