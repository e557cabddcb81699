#include "core/optimizer_api.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/xrlflow.h"
#include "optimizers/pet/pet_optimizer.h"
#include "optimizers/taso/taso_optimizer.h"
#include "optimizers/tensat/tensat_optimizer.h"
#include "rules/bespoke_rules.h"
#include "rules/corpus.h"
#include "support/check.h"

namespace xrl {

// ---------------------------------------------------------------------------
// Request validation
// ---------------------------------------------------------------------------

void validate_request(const Optimize_request& request)
{
    const auto reject = [](const char* field, double value) {
        std::ostringstream os;
        os << "invalid Optimize_request: " << field << " = " << value
           << " (budgets must be finite and non-negative; 0 means unlimited / backend default)";
        throw std::invalid_argument(os.str());
    };
    if (!(request.time_budget_seconds >= 0.0)) // NaN fails this comparison too
        reject("time_budget_seconds", request.time_budget_seconds);
    if (request.time_budget_seconds > 1e18)
        reject("time_budget_seconds", request.time_budget_seconds);
    if (request.iteration_budget < 0)
        reject("iteration_budget", request.iteration_budget);
    if (request.device.profile.has_value()) {
        const Device_profile& p = *request.device.profile;
        // Anonymous inline profiles would route, memoise, and report as
        // the default device's name while computing something else.
        if (p.name.empty())
            throw std::invalid_argument(
                "invalid Optimize_request: inline device profile has an empty name");
        validate_device_profile(p, "invalid Optimize_request: inline");
    }
}

void validate_request(const Optimize_request& request, const Device_registry& devices)
{
    validate_request(request);
    // An inline profile needs no registration; only a *named* target must
    // resolve against the fleet.
    if (!request.device.profile.has_value() && !request.device.name.empty() &&
        !devices.contains(request.device.name)) {
        std::ostringstream os;
        os << "invalid Optimize_request: unknown device '" << request.device.name
           << "'; registered devices:";
        for (const std::string& name : devices.names()) os << ' ' << name;
        throw std::invalid_argument(os.str());
    }
}

// ---------------------------------------------------------------------------
// Optimizer_context
// ---------------------------------------------------------------------------

const Device_profile& Optimizer_context::device_for(const Optimize_request& request) const
{
    XRL_EXPECTS(devices != nullptr);
    return devices->resolve(request.device);
}

const Cost_model& Optimizer_context::cost_for(const Optimize_request& request) const
{
    XRL_EXPECTS(devices != nullptr);
    return devices->cost_model(request.device);
}

std::uint64_t Optimizer_context::device_fingerprint(const Optimize_request& request) const
{
    XRL_EXPECTS(devices != nullptr);
    return devices->fingerprint(request.device);
}

// ---------------------------------------------------------------------------
// Progress_driver
// ---------------------------------------------------------------------------

struct Progress_driver::State {
    std::string backend;
    double time_budget_seconds = 0.0;
    Progress_callback on_progress;
    std::chrono::steady_clock::time_point start;
    bool cancelled = false;

    double elapsed() const
    {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
};

Progress_driver::Progress_driver(std::string backend, const Optimize_request& request)
    : state_(std::make_shared<State>())
{
    state_->backend = std::move(backend);
    state_->time_budget_seconds = request.time_budget_seconds;
    state_->on_progress = request.on_progress;
    state_->start = std::chrono::steady_clock::now();
}

Search_heartbeat Progress_driver::heartbeat() const
{
    std::shared_ptr<State> state = state_;
    return [state](int step, double best_cost_ms) {
        if (state->cancelled) return false;
        const double elapsed = state->elapsed();
        if (state->time_budget_seconds > 0.0 && elapsed >= state->time_budget_seconds) {
            state->cancelled = true;
            return false;
        }
        if (state->on_progress) {
            Optimize_progress progress;
            progress.backend = state->backend;
            progress.step = step;
            progress.best_ms = best_cost_ms;
            progress.elapsed_seconds = elapsed;
            if (!state->on_progress(progress)) {
                state->cancelled = true;
                return false;
            }
        }
        return true;
    };
}

bool Progress_driver::cancelled() const { return state_->cancelled; }

double Progress_driver::elapsed_seconds() const { return state_->elapsed(); }

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

namespace {

/// A search with its backend's options already applied: runs `graph` on
/// `cost` with the request's iteration budget (0 = the backend's) and
/// heartbeat.
using Search_fn = std::function<Optimize_result(const Graph& graph, int iteration_budget,
                                                Search_heartbeat heartbeat,
                                                const Cost_model& cost)>;

/// TASO, PET and Tensat behind Optimizer: each request runs the search on
/// its own device's cost model — one instance serves the whole fleet —
/// and the result is stamped with the backend and that device.
class Search_backend final : public Optimizer {
public:
    Search_backend(std::string name, const Optimizer_context& context, Search_fn search)
        : name_(std::move(name)), context_(context), search_(std::move(search))
    {
    }

    std::string name() const override { return name_; }

    Optimize_result optimize(const Graph& graph, const Optimize_request& request) override
    {
        const Progress_driver driver(name_, request);
        const Cost_model& cost = context_.cost_for(request);
        Optimize_result result =
            search_(graph, request.iteration_budget, driver.heartbeat(), cost);
        result.backend = name_;
        result.device = cost.device().name;
        // The result outlives the search (memo cache, server jobs, the
        // daemon's retained job table): drop the room rewrites reserved.
        result.best_graph.shrink_to_fit();
        return result;
    }

private:
    std::string name_;
    Optimizer_context context_;
    Search_fn search_;
};

/// TASO's config with the "<backend>.budget" option ("taso", "pet").
Taso_config greedy_config(const Optimizer_context& context, const std::string& backend)
{
    Taso_config config;
    config.budget = static_cast<int>(context.option_or(backend + ".budget", config.budget));
    return config;
}

/// `config` with the request's iteration budget, when it sets one, and
/// heartbeat.
Taso_config for_request(Taso_config config, int iteration_budget, Search_heartbeat heartbeat)
{
    if (iteration_budget > 0) config.budget = iteration_budget;
    config.heartbeat = std::move(heartbeat);
    return config;
}

std::unique_ptr<Optimizer> make_taso_backend(const Optimizer_context& context)
{
    return std::make_unique<Search_backend>(
        "taso", context,
        [base = greedy_config(context, "taso"), &rules = *context.rules](
            const Graph& graph, int iteration_budget, Search_heartbeat heartbeat,
            const Cost_model& cost) {
            return optimise_taso(graph, rules, cost,
                                 for_request(base, iteration_budget, std::move(heartbeat)));
        });
}

/// PET searches its own corpus: the standard one plus the spatial split.
std::unique_ptr<Optimizer> make_pet_backend(const Optimizer_context& context)
{
    return std::make_unique<Search_backend>(
        "pet", context,
        [base = greedy_config(context, "pet")](const Graph& graph, int iteration_budget,
                                               Search_heartbeat heartbeat,
                                               const Cost_model& cost) {
            return optimise_pet(graph, cost,
                                for_request(base, iteration_budget, std::move(heartbeat)));
        });
}

/// "tensat": the curated patterns plus the bespoke multi-output merges as
/// k-limited multi-pattern rewrites (§4.6). Option "tensat.max_iterations".
std::unique_ptr<Optimizer> make_tensat_backend(const Optimizer_context& context)
{
    Tensat_config base;
    base.max_iterations =
        static_cast<int>(context.option_or("tensat.max_iterations", base.max_iterations));
    auto patterns = std::make_shared<const std::vector<Pattern>>(curated_patterns());
    auto multi_pattern_rules = std::make_shared<Rule_set>();
    multi_pattern_rules->push_back(make_merge_matmul_shared_lhs_rule());
    multi_pattern_rules->push_back(make_merge_conv_shared_input_rule());
    return std::make_unique<Search_backend>(
        "tensat", context,
        [base, patterns, multi_pattern_rules](const Graph& graph, int iteration_budget,
                                              Search_heartbeat heartbeat,
                                              const Cost_model& cost) {
            Tensat_config config = base;
            if (iteration_budget > 0) config.max_iterations = iteration_budget;
            config.heartbeat = std::move(heartbeat);
            return optimise_tensat(graph, *patterns, *multi_pattern_rules, cost, config);
        });
}

struct Backend_entry {
    std::string_view name;
    std::unique_ptr<Optimizer> (*make)(const Optimizer_context&);
};

/// The backend table, sorted by name.
constexpr Backend_entry backends[] = {
    {"pet", make_pet_backend},
    {"taso", make_taso_backend},
    {"tensat", make_tensat_backend},
    {"xrlflow", make_xrlflow_backend},
};
static_assert(std::ranges::is_sorted(backends, {}, &Backend_entry::name));

} // namespace

const std::vector<std::string>& backend_names()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Backend_entry& entry : backends) out.emplace_back(entry.name);
        return out;
    }();
    return names;
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name, const Optimizer_context& context)
{
    for (const Backend_entry& entry : backends) {
        if (entry.name != name) continue;
        XRL_EXPECTS(context.rules != nullptr);
        XRL_EXPECTS(context.devices != nullptr);
        return entry.make(context);
    }
    std::ostringstream os;
    os << "unknown optimizer backend '" << name << "'; registered backends:";
    for (const Backend_entry& entry : backends) os << ' ' << entry.name;
    throw std::invalid_argument(os.str());
}

} // namespace xrl
