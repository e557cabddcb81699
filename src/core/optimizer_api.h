// Unified optimiser API.
//
// The paper's evaluation is a head-to-head of four search strategies —
// TASO's backtracking search, PET's partially-equivalent search, Tensat's
// equality saturation, and X-RLflow's learned policy. This header defines
// the one interface they all stand behind:
//
//   * `Optimize_request`  — budget (wall-clock / iterations), seed,
//     deterministic-vs-sampled mode, the target device the search optimises
//     for, and an optional progress callback that supports early
//     cancellation.
//   * `Optimize_result`   — best graph, initial/final latency, speedup,
//     steps, wall time, per-rule application counts, and backend-specific
//     metadata as key/value doubles. The TASO, PET and Tensat searches
//     return it directly (optimise_taso, optimise_pet, optimise_tensat).
//   * `Optimizer`         — the abstract backend: name() + optimize().
//   * `make_optimizer`    — the fixed backend table: "pet", "taso",
//     "tensat" and "xrlflow" (`backend_names()`).
//
// The device is first-class: a backend runs against a Device_registry (the
// fleet's accelerators) and resolves its cost model *per request* from the
// request's Target_device, so one backend instance serves a heterogeneous
// fleet and every cache key downstream carries the device.
//
// The serving-oriented facade that owns the rule corpus, device registry
// and simulators — and memoises results — lives in
// core/optimization_service.h.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cost/device.h"
#include "cost/device_registry.h"
#include "ir/graph.h"
#include "rules/rule.h"

namespace xrl {

// ---------------------------------------------------------------------------
// Request / result
// ---------------------------------------------------------------------------

/// Snapshot handed to a progress callback while a backend searches.
struct Optimize_progress {
    std::string backend;
    int step = 0;                ///< Backend-native step count so far.
    double best_ms = 0.0;        ///< Best cost seen so far (backend-native signal).
    double elapsed_seconds = 0.0;
};

/// Return false to cancel the search; the backend stops at the next
/// heartbeat and returns its best-so-far result with `cancelled` set.
using Progress_callback = std::function<bool(const Optimize_progress&)>;

struct Optimize_request {
    double time_budget_seconds = 0.0; ///< Wall-clock cap; 0 = unlimited.
    int iteration_budget = 0;         ///< Backend-native iteration cap; 0 = backend default.
    std::uint64_t seed = 7;           ///< Seed for any stochastic behaviour.
    bool deterministic = true;        ///< Greedy/deterministic vs sampled search.
    Target_device device;             ///< What to optimise for; default = service default.
    Progress_callback on_progress;    ///< Optional; also the cancellation hook.
};

/// Reject malformed requests — negative or non-finite budgets, or an inline
/// device profile with non-positive throughputs — with a
/// std::invalid_argument naming the offending field and value, before any
/// backend state is touched. Optimization_service::optimize and
/// Optimization_server::submit both run every request through this.
void validate_request(const Optimize_request& request);

/// As above, and additionally reject a request whose named target device is
/// not registered (the message lists the registered devices). The device-
/// aware entry points (service, server, router) use this overload.
void validate_request(const Optimize_request& request, const Device_registry& devices);

/// The unified outcome every backend reports.
struct Optimize_result {
    Graph best_graph;
    std::string backend;
    std::string device;       ///< Resolved device name the search optimised for.
    double initial_ms = 0.0;  ///< Latency of the input under the backend's signal.
    double final_ms = 0.0;    ///< Latency of `best_graph` under the same signal.
    int steps = 0;            ///< Backend-native iterations performed.
    double wall_seconds = 0.0;
    bool cancelled = false;   ///< Stopped early by callback or time budget.
    bool from_cache = false;  ///< Set by Optimization_service on a memo hit.

    /// Applications (or admitted candidates) per rule, keyed by rule name.
    std::map<std::string, int> rule_counts;

    /// Backend-specific numbers (e-graph size, candidates generated, ...).
    std::map<std::string, double> metadata;

    double speedup() const { return final_ms > 0.0 ? initial_ms / final_ms : 1.0; }
};

// ---------------------------------------------------------------------------
// The backend interface
// ---------------------------------------------------------------------------

/// Shared state a backend adapter runs against. The pointed-to rule corpus
/// and device registry must outlive any optimizer created from the context
/// (Optimization_service owns both and guarantees this). There is no
/// per-context cost model any more: a backend resolves its cost model from
/// the registry per request, keyed by the request's Target_device.
class Policy_store; // core/policy_store.h

struct Optimizer_context {
    const Rule_set* rules = nullptr;
    const Device_registry* devices = nullptr;

    /// Optional warm-start persistence for backends that train (xrlflow):
    /// trained policies are offered to the store and looked up before
    /// training. Null = no persistence. Must outlive optimizers created
    /// from the context (Optimization_service holds it via its config).
    Policy_store* policy_store = nullptr;

    /// Backend-specific knobs, namespaced by backend: "taso.budget",
    /// "pet.budget", "tensat.max_iterations" and the "xrlflow.*" keys
    /// (core/xrlflow.h). Unknown keys are ignored; missing keys fall back
    /// to the backend's defaults.
    std::map<std::string, double> options;

    double option_or(const std::string& key, double fallback) const
    {
        const auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }

    /// Per-request device resolution (the registry's default device when
    /// the request names none). Throws std::invalid_argument for unknown
    /// device names — same contract as Device_registry.
    const Device_profile& device_for(const Optimize_request& request) const;
    const Cost_model& cost_for(const Optimize_request& request) const;
    std::uint64_t device_fingerprint(const Optimize_request& request) const;
};

class Optimizer {
public:
    virtual ~Optimizer() = default;

    Optimizer(const Optimizer&) = delete;
    Optimizer& operator=(const Optimizer&) = delete;

    virtual std::string name() const = 0;

    /// Run the search on `graph` under `request`. Implementations honour the
    /// request's budgets and cancellation hook on a best-effort heartbeat
    /// (checked at least once per native iteration).
    virtual Optimize_result optimize(const Graph& graph, const Optimize_request& request) = 0;

protected:
    Optimizer() = default;
};

// ---------------------------------------------------------------------------
// Progress / cancellation plumbing
// ---------------------------------------------------------------------------

/// In-loop hook the backend search configs carry: called with (step,
/// best_cost_ms); returning false stops the search at that point.
using Search_heartbeat = std::function<bool(int step, double best_cost_ms)>;

/// Translates an Optimize_request into a Search_heartbeat: tracks wall time,
/// enforces the time budget, forwards snapshots to the user callback, and
/// records whether the search was cut short. Copyable (shared state) so the
/// heartbeat closure can outlive the driver's stack frame.
class Progress_driver {
public:
    Progress_driver(std::string backend, const Optimize_request& request);

    /// Heartbeat for a backend config; returns false once cancelled.
    Search_heartbeat heartbeat() const;

    bool cancelled() const;
    double elapsed_seconds() const;

private:
    struct State;
    std::shared_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// The backend names make_optimizer serves, sorted: "pet", "taso",
/// "tensat", "xrlflow".
const std::vector<std::string>& backend_names();

/// Construct a backend; throws std::invalid_argument for unknown names
/// (the message lists the known ones) and Contract_violation when the
/// context is missing its rule corpus or device registry.
std::unique_ptr<Optimizer> make_optimizer(const std::string& name, const Optimizer_context& context);

} // namespace xrl
