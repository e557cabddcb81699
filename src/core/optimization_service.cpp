#include "core/optimization_service.h"

#include <bit>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rules/corpus.h"
#include "support/check.h"

namespace xrl {

Optimization_service::Optimization_service(Service_config config)
    : config_(std::move(config)),
      rules_(standard_rule_corpus()),
      devices_(config_.simulator_seed)
{
    if (config_.devices.empty()) {
        register_standard_devices(devices_);
    } else {
        for (const Device_profile& profile : config_.devices) devices_.add(profile);
    }
    if (!config_.default_device.empty()) devices_.set_default_device(config_.default_device);
    context_.rules = &rules_;
    context_.devices = &devices_;
    context_.options = config_.backend_options;
    context_.policy_store = config_.policy_store.get();
}

std::vector<std::string> Optimization_service::backends() const
{
    return backend_names();
}

std::unique_ptr<Optimizer> Optimization_service::acquire_instance(const std::string& backend)
{
    Lock_guard lock(mutex_);
    Backend_pool& pool = pools_[backend];
    if (!pool.idle.empty()) {
        std::unique_ptr<Optimizer> instance = std::move(pool.idle.back());
        pool.idle.pop_back();
        return instance;
    }
    // Creation throws for unknown names before any stats are touched, so a
    // bad backend string leaves the service intact (an empty pool entry is
    // the only trace).
    std::unique_ptr<Optimizer> instance = make_optimizer(backend, context_);
    ++pool.created;
    return instance;
}

void Optimization_service::release_instance(const std::string& backend,
                                            std::unique_ptr<Optimizer> instance)
{
    Lock_guard lock(mutex_);
    Backend_pool& pool = pools_[backend];
    if (pool.idle.size() < config_.max_idle_per_backend)
        pool.idle.push_back(std::move(instance));
    // else: drop it — warm state worth keeping fits in the retained set.
}

std::string Optimization_service::memo_key(std::uint64_t graph_hash, const std::string& backend,
                                           std::uint64_t device_fingerprint,
                                           const Optimize_request& request)
{
    std::ostringstream os;
    // The time budget is keyed by its exact bit pattern: default ostream
    // precision (6 significant digits) would collide distinct budgets.
    // (+ 0.0 folds -0.0 into +0.0 so equal-comparing budgets share a key.)
    os << graph_hash << '|' << backend << '|' << device_fingerprint << '|'
       << std::bit_cast<std::uint64_t>(request.time_budget_seconds + 0.0) << '|'
       << request.iteration_budget << '|' << request.seed << '|' << request.deterministic;
    return os.str();
}

std::string Optimization_service::request_key(std::uint64_t graph_hash, const std::string& backend,
                                              const Optimize_request& request) const
{
    return memo_key(graph_hash, backend, devices_.fingerprint(request.device), request);
}

Optimize_result Optimization_service::optimize(const std::string& backend, const Graph& graph,
                                               const Optimize_request& request)
{
    validate_request(request, devices_); // before any hash or registry-cache work
    return optimize_keyed(request_key(graph.model_hash(), backend, request), backend, graph,
                          request);
}

Optimize_result Optimization_service::optimize_keyed(const std::string& key,
                                                     const std::string& backend,
                                                     const Graph& graph,
                                                     const Optimize_request& request)
{
    // Both callers — optimize() and Optimization_server::submit — have
    // already run validate_request(request, devices()); doing it here too
    // would re-take the registry lock on every job.

    if (config_.cache_capacity > 0) {
        Lock_guard lock(mutex_);
        const auto hit = cache_.find(key);
        if (hit != cache_.end()) {
            ++hits_;
            Optimize_result cached = hit->second;
            cached.from_cache = true;
            return cached;
        }
    }

    std::unique_ptr<Optimizer> instance = acquire_instance(backend); // throws for unknown names
    if (config_.cache_capacity > 0) {
        Lock_guard lock(mutex_);
        ++misses_; // only real runs count as misses
    }

    Optimize_result result;
    try {
        result = instance->optimize(graph, request);
    } catch (...) {
        release_instance(backend, std::move(instance));
        throw;
    }
    release_instance(backend, std::move(instance));

    if (config_.cache_capacity > 0 && !result.cancelled) {
        Lock_guard lock(mutex_);
        if (cache_.emplace(key, result).second) {
            cache_order_.push_back(key);
            while (cache_order_.size() > config_.cache_capacity) {
                cache_.erase(cache_order_.front());
                cache_order_.pop_front();
            }
        }
    }
    return result;
}

std::vector<Backend_run> Optimization_service::optimize_all(const Graph& graph,
                                                            const Optimize_request& request,
                                                            int measure_repeats)
{
    if (measure_repeats < 1)
        throw std::invalid_argument("optimize_all: measure_repeats must be >= 1, got " +
                                    std::to_string(measure_repeats));
    validate_request(request, devices_);
    // One shared baseline measurement on the *target device's* simulator:
    // every backend is compared against the same "before" numbers (the
    // simulator is stateful, so measuring per backend would sample each
    // pair at a different noise state). The simulator locks its noise
    // stream internally, so each measure_repeated call is one atomic block.
    E2e_simulator& sim = devices_.simulator(request.device);
    const Latency_stats before = sim.measure_repeated(graph, measure_repeats);
    // Hash and device fingerprint resolved once for the whole comparison;
    // optimize_keyed skips re-validation (validated above).
    const std::uint64_t model_hash = graph.model_hash();
    const std::uint64_t device_fp = devices_.fingerprint(request.device);
    std::vector<Backend_run> runs;
    for (const std::string& backend : backends()) {
        Backend_run run;
        run.backend = backend;
        run.result = optimize_keyed(memo_key(model_hash, backend, device_fp, request), backend,
                                    graph, request);
        run.e2e_before = before;
        run.e2e_after = sim.measure_repeated(run.result.best_graph, measure_repeats);
        runs.push_back(std::move(run));
    }
    return runs;
}

std::size_t Optimization_service::cache_hits() const
{
    Lock_guard lock(mutex_);
    return hits_;
}

std::size_t Optimization_service::cache_misses() const
{
    Lock_guard lock(mutex_);
    return misses_;
}

std::size_t Optimization_service::cache_size() const
{
    Lock_guard lock(mutex_);
    return cache_.size();
}

void Optimization_service::clear_cache()
{
    Lock_guard lock(mutex_);
    cache_.clear();
    cache_order_.clear();
}

std::vector<Optimization_service::Memo_entry> Optimization_service::export_memo() const
{
    Lock_guard lock(mutex_);
    std::vector<Memo_entry> entries;
    entries.reserve(cache_order_.size());
    for (const std::string& key : cache_order_) {
        const auto it = cache_.find(key);
        if (it != cache_.end()) entries.push_back({key, it->second});
    }
    return entries;
}

std::size_t Optimization_service::import_memo(const std::vector<Memo_entry>& entries)
{
    if (config_.cache_capacity == 0) return 0;
    Lock_guard lock(mutex_);
    std::size_t imported = 0;
    for (const Memo_entry& entry : entries) {
        Optimize_result result = entry.result;
        result.from_cache = false; // stamped per hit, never stored
        if (!cache_.emplace(entry.key, std::move(result)).second) continue;
        cache_order_.push_back(entry.key);
        ++imported;
        while (cache_order_.size() > config_.cache_capacity) {
            cache_.erase(cache_order_.front());
            cache_order_.pop_front();
        }
    }
    return imported;
}

std::size_t Optimization_service::backend_instances(const std::string& backend) const
{
    Lock_guard lock(mutex_);
    const auto it = pools_.find(backend);
    return it == pools_.end() ? 0 : it->second.created;
}

} // namespace xrl
