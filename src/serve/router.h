// Optimization_router: one front door for a fleet of Optimization_servers.
//
// The router owns N shards (each a full Optimization_server with its own
// queue, workers, memo cache, and device registry) and routes each submit
// by *device affinity*: a shard declares which accelerators it prefers
// (in production: the machines physically next to those accelerators), and
// a request's resolved Target_device picks among the shards that declared
// it. Requests whose device no shard claims — and ties between several
// claiming shards — spread by rendezvous (highest-random-weight) hashing
// of (model hash, backend, device) against each shard's stable id, so one
// model's traffic for one device always lands on the same shard and keeps
// hitting that shard's memo cache and coalescing window.
//
// Live membership (the fleet resilience layer): add_shard / remove_shard /
// drain_shard / replace_shard are safe under concurrent submit traffic.
// Rendezvous hashing makes membership changes *minimal-movement*: removing
// a shard re-spreads only that shard's keys over the survivors; adding one
// steals only the keys it now wins — every other (model, backend, device)
// keeps its shard, its memo cache, and its coalescing window.
//
// Failure detection: every shard carries a Shard_health circuit breaker
// (serve/shard_health.h) fed by the server's completion hook. Routing
// skips open-breaker and draining shards — their hash slice re-spreads
// deterministically over the healthy set — and half-open shards heal
// through probe admission: the first requests after the open window route
// to the recovering shard as probes, and enough consecutive probe
// successes close the breaker. When *no* candidate is healthy the router
// routes to the steady-state pick anyway: a request is better refused by a
// sick shard than dropped by a healthy router.
//
// Routing determinism: with stable membership and all breakers closed,
// route() is a pure function of the request, so routed results are
// bit-identical to a direct Optimization_service call with the same
// device (the shard runs the same deterministic backend on the same cost
// model).
//
// stats() aggregates per-shard telemetry: counters sum across the live
// shards; the aggregate latency percentiles are the worst shard's (a fleet
// is as late as its slowest member), with per-shard snapshots — and
// per-shard health — alongside. `Router_stats::total` therefore covers the
// shards in the fleet at the time of the call: a removed shard's counts
// leave it, and a replaced shard's restart from zero, while its history
// stays in the registry's `xrlflow_server_*` series under its `shard`
// label, which is what `xrlflowctl metrics` reports. The routing counters
// are views over the registry's `xrlflow_router_*` series
// (support/metrics.h), counted from this router's construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/server.h"
#include "serve/shard_health.h"
#include "support/fault_plan.h"
#include "support/sync.h"

namespace xrl {

struct Shard_config {
    Server_config server;

    /// Registered device names this shard serves preferentially. Empty =
    /// no affinity (the shard only receives hash-fallback traffic).
    std::vector<std::string> device_affinity;
};

struct Router_config {
    /// One entry per shard; must be non-empty.
    std::vector<Shard_config> shards;

    /// One warm-start store for the whole fleet: handed to every shard
    /// whose config did not set its own, so policies trained on one shard
    /// are fetched by the others, every shard's drain/shutdown snapshot
    /// merges into the same files, and a replacement shard
    /// (replace_shard) or a restarted fleet starts warm. See
    /// serve/state_store.h for the sharing contract.
    std::shared_ptr<State_store> state_store;

    /// Breaker tuning applied to every shard's health tracker.
    Shard_health_config health;

    /// Deterministic fault injection, handed to every shard whose config
    /// did not set its own plan: shard `i` (stable id N) consumes one
    /// event at site "shard/<N>" per executed job. Tests and benches kill
    /// and heal shards through this; production leaves it null.
    std::shared_ptr<Fault_plan> fault_plan;
};

struct Router_stats {
    std::uint64_t submitted = 0;       ///< Every routed submit.
    std::uint64_t affinity_routed = 0; ///< Sent to a shard that claimed the device.
    std::uint64_t hash_routed = 0;     ///< No shard claimed it; hash fallback.

    /// Submits admitted to a half-open shard as breaker probes.
    std::uint64_t probe_routed = 0;
    /// Submits whose steady-state shard was skipped (open breaker or
    /// draining) and that re-spread to another candidate.
    std::uint64_t breaker_rerouted = 0;

    /// Scraper aids (mirrors Server_stats): seconds since router
    /// construction and a monotonic per-stats() sequence number (also
    /// `total.snapshot_seq`, so it survives shard replacement).
    double uptime_seconds = 0.0;
    std::uint64_t snapshot_seq = 0;

    Server_stats total; ///< Sum over the live shards only (see header note).
    std::vector<Server_stats> shards;  ///< Per-shard snapshots, in shard order.
    std::vector<std::uint64_t> routed_to; ///< Submits routed per shard.
    std::vector<Shard_health_snapshot> health; ///< Per-shard breaker state, in shard order.
};

class Optimization_router {
public:
    /// Builds one Optimization_server per shard. Throws
    /// std::invalid_argument when `config.shards` is empty or a declared
    /// affinity names a device its own shard's registry does not hold
    /// (such a shard could never serve the traffic routed to it).
    explicit Optimization_router(Router_config config);

    Optimization_router(const Optimization_router&) = delete;
    Optimization_router& operator=(const Optimization_router&) = delete;

    std::size_t shard_count() const;

    /// The shard at `index` right now. Administrative: the reference is
    /// invalidated by remove_shard/replace_shard on that index — do not
    /// hold it across membership changes.
    Optimization_server& shard(std::size_t index);

    /// The steady-state routing decision for this request: affinity first
    /// (rendezvous-spread across the shards claiming the device),
    /// rendezvous across the servable fleet otherwise, skipping draining
    /// and open-breaker shards. Pure (no probe admission is consumed);
    /// with healthy stable membership, submit() routes exactly here.
    std::size_t route(const std::string& backend, const Graph& graph,
                      const Optimize_request& request = {}) const;

    /// Route and submit to the chosen shard. Same contract as
    /// Optimization_server::submit (validation, coalescing within the
    /// shard, handle semantics). Safe under concurrent membership changes.
    Job_handle submit(const std::string& backend, const Graph& graph,
                      const Optimize_request& request = {}, const Submit_options& options = {});

    /// Block until every shard is idle (each shard with a state store
    /// snapshots its memo table as it drains).
    void drain();

    /// Snapshot every shard's memo table into its state store now (no-op
    /// for shards without one). Fleet-level checkpoint between the
    /// periodic and drain-time ones.
    void save_state();

    // -- live membership (all safe under concurrent submit traffic) --------

    /// Grow the fleet by one shard; returns its index. The new shard gets
    /// a fresh stable id, so rendezvous hashing moves only the keys it now
    /// wins. Throws std::invalid_argument for an unservable affinity.
    std::size_t add_shard(Shard_config config);

    /// Shrink the fleet: take shard `index` out of rotation, drain its
    /// backlog to completion (in-flight and queued jobs finish; with a
    /// shared store its warm state is snapshotted), then erase it. Its
    /// keys re-spread over the survivors. Refuses (std::invalid_argument)
    /// to remove the last shard. Indices above `index` shift down.
    void remove_shard(std::size_t index);

    /// Flush shard `index`: out of rotation, drain its backlog (snapshot
    /// included), then return it to rotation. The live-traffic form of a
    /// maintenance flush. Call resume() on a paused shard first.
    void drain_shard(std::size_t index);

    /// Tear down shard `index` and build a replacement from the same
    /// config, without leaving rotation order: the outgoing shard is
    /// drained out of rotation first — with a shared store its warm state
    /// lands in the store and the replacement imports it at construction —
    /// and the replacement keeps the stable id, so no keys move. Health
    /// resets: a replacement starts with a clean breaker.
    void replace_shard(std::size_t index);

    Router_stats stats() const;

private:
    /// One live shard: its server, health, routing identity, and
    /// transition flag. Held by shared_ptr so concurrent readers
    /// (stats, drain) stay valid across membership mutations; the server
    /// is shared too, so replace_shard can swap it while a reader still
    /// holds the outgoing one.
    struct Slot {
        Shard_config config;
        std::shared_ptr<Optimization_server> server;
        std::shared_ptr<Shard_health> health;
        std::uint64_t stable_id = 0;
        std::atomic<bool> draining{false};
        /// Registry series for this shard (stable for the process
        /// lifetime): submits routed here (Router_stats::routed_to), and
        /// the breaker state gauge (0 closed / 1 open / 2 half-open),
        /// refreshed at stats() time.
        std::optional<Counter_view> routed;
        Gauge* breaker_gauge = nullptr;
    };

    struct Route_decision {
        std::shared_ptr<Slot> slot;
        bool used_affinity = false;
        bool probe = false;    ///< Admitted to a half-open shard as a probe.
        bool rerouted = false; ///< Steady-state pick skipped for health/draining.
    };

    /// Build a fully-wired slot (store/fault-plan defaults resolved,
    /// health hook chained, affinity validated). Outside any lock — server
    /// construction imports warm state.
    std::shared_ptr<Slot> make_slot(Shard_config shard_config, std::uint64_t stable_id) const;

    /// Build the slot's server from its (already-resolved) config, with
    /// the breaker feed chained in front of the config's own hook.
    /// replace_shard reuses this for the replacement.
    static std::shared_ptr<Optimization_server>
    build_server(const Shard_config& shard_config, const std::shared_ptr<Shard_health>& health);

    /// Under a shared membership lock: pick the target slot.
    /// `consume_probe` lets submit() spend half-open probe budget;
    /// route() previews without consuming.
    Route_decision decide_locked(const std::string& backend, std::uint64_t model_hash,
                                 const std::string& device, bool inline_profile,
                                 bool consume_probe) const XRL_REQUIRES_SHARED(membership_mutex_);

    /// The name the request's device goes by for routing: the inline
    /// profile's name, the named target, or the first shard's default
    /// device.
    std::string routing_device(const Optimize_request& request) const;

    /// Mark `index` draining under the exclusive lock — which waits for
    /// in-flight submits, so afterwards no routed submit can still reach
    /// the slot — and return it (plus its server, read under the same
    /// lock, when requested).
    std::shared_ptr<Slot> begin_drain(std::size_t index,
                                      std::shared_ptr<Optimization_server>* server = nullptr);

    Router_config config_;

    /// Membership lock: submit/route/stats/drain take it shared; add /
    /// remove / replace / drain_shard take it exclusive only for the brief
    /// structural mutation (never while draining a backlog).
    mutable Shared_mutex membership_mutex_{"router_membership", Lock_rank::router_membership};
    std::vector<std::shared_ptr<Slot>> slots_ XRL_GUARDED_BY(membership_mutex_);
    std::uint64_t next_stable_id_ XRL_GUARDED_BY(membership_mutex_) = 0;

    // Router_stats' routing counters, counted from construction.
    Counter_view submitted_{"xrlflow_router_submitted_total", "Submits routed by the router"};
    Counter_view affinity_routed_{"xrlflow_router_affinity_routed_total",
                                  "Submits sent to a shard claiming the device"};
    Counter_view hash_routed_{"xrlflow_router_hash_routed_total",
                              "Submits spread by rendezvous hashing"};
    Counter_view probe_routed_{"xrlflow_router_probe_routed_total",
                               "Submits admitted to half-open shards as probes"};
    Counter_view breaker_rerouted_{"xrlflow_router_breaker_rerouted_total",
                                   "Submits re-spread past an open/draining shard"};
    Gauge& shard_count_gauge_ =
        Metrics_registry::global().gauge("xrlflow_router_shards", "Live shards in the fleet");
    Gauge& uptime_gauge_ = Metrics_registry::global().gauge("xrlflow_router_uptime_seconds",
                                                            "Seconds since router start");

    std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
    mutable std::atomic<std::uint64_t> snapshot_seq_{0};
};

} // namespace xrl
