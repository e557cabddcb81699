// Workload serve_mixed: time-to-result through the serving plane.
//
// An in-process Daemon on loopback fronts one shard with 2 workers. Two
// closed-loop Clients on two threads — callers that each wait for their
// reply, like xrlflowctl users — send small-budget TASO/PET searches over
// small zoo graphs. Each client's request stream comes from the seed: about
// half the requests repeat one of the client's recent keys (memo hits or
// coalesced duplicates), the rest draw from a key space three times the
// memo cache capacity (misses that evict).
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/optimization_service.h"
#include "core/result_serial.h"
#include "models/models.h"
#include "net/client.h"
#include "net/daemon.h"
#include "support/rng.h"
#include "support/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr std::size_t kMemoCapacity = 8;

struct Key {
    std::string backend;
    std::size_t graph = 0; ///< Index into the workload's graph list.
    xrl::Optimize_request request;
};

struct Inputs {
    std::vector<std::string> graph_names;
    std::vector<xrl::Graph> graphs;
    std::vector<Key> keys;
};

/// Six small zoo models, four keys each: TASO and PET, each under two
/// request seeds. The seed picks each model's input side from two close
/// values and the request seeds, so every seed's key space has about the
/// same mix of cheap and expensive searches; it also sets which requests
/// repeat and when.
Inputs make_inputs(std::uint64_t seed, Size size)
{
    using Builder = std::function<xrl::Graph(xrl::Scale, std::int64_t)>;
    const std::vector<std::tuple<const char*, Builder, std::int64_t, std::int64_t>> specs = {
        {"squeezenet", xrl::make_squeezenet, 32, 48},
        {"resnet18", xrl::make_resnet18, 32, 48},
        {"bert", xrl::make_bert, 16, 24},
        {"dalle", xrl::make_dalle, 16, 24},
        {"tt", xrl::make_transformer_transducer, 16, 24},
        {"vit", xrl::make_vit, 32, 48},
    };
    const std::size_t models = size == Size::tiny ? 2 : specs.size();
    xrl::Rng rng(seed);
    Inputs inputs;
    for (std::size_t m = 0; m < models; ++m) {
        const auto& [name, build, small, large] = specs[m];
        const std::int64_t side = rng.uniform_index(2) == 0 ? small : large;
        inputs.graph_names.push_back(std::string(name) + "-" + std::to_string(side));
        inputs.graphs.push_back(build(xrl::Scale::smoke, side));
        for (const char* backend : {"taso", "pet"}) {
            const std::uint64_t first = 1 + rng.uniform_index(1000);
            for (const std::uint64_t request_seed : {first, first + 1 + rng.uniform_index(1000)}) {
                Key key;
                key.backend = backend;
                key.graph = m;
                key.request.seed = request_seed;
                inputs.keys.push_back(std::move(key));
            }
        }
    }
    return inputs;
}

xrl::Service_config service_config()
{
    xrl::Service_config config;
    config.cache_capacity = kMemoCapacity;
    config.backend_options["taso.budget"] = 20;
    config.backend_options["pet.budget"] = 10;
    return config;
}

xrl::Daemon_config daemon_config()
{
    xrl::Daemon_config config;
    xrl::Shard_config shard;
    shard.server.service = service_config();
    shard.server.workers = 2;
    config.router.shards = {shard};
    return config;
}

/// Only wall-clock fields and the cache marker may differ between a served
/// and a direct result (as in bench/bench_net.cpp).
std::string comparable_bytes(xrl::Optimize_result result)
{
    result.wall_seconds = 0.0;
    result.from_cache = false;
    result.metadata.erase("training_seconds");
    return xrl::result_to_bytes(result);
}

/// Client `client`'s request stream: half repeats of its 4 most recent
/// keys, half uniform over the key space.
class Request_stream {
public:
    Request_stream(std::uint64_t seed, int client, std::size_t keys)
        : rng_(seed * 1000003ULL + static_cast<std::uint64_t>(client)), keys_(keys)
    {
    }

    std::size_t next()
    {
        std::size_t key = 0;
        if (!recent_.empty() && rng_.uniform() < 0.5)
            key = recent_[rng_.uniform_index(recent_.size())];
        else
            key = rng_.uniform_index(keys_);
        recent_.push_back(key);
        if (recent_.size() > 4) recent_.erase(recent_.begin());
        return key;
    }

private:
    xrl::Rng rng_;
    std::size_t keys_;
    std::vector<std::size_t> recent_;
};

struct Completed {
    std::size_t key = 0;
    double latency_ms = 0.0;
    std::string error;
};

struct Net_samples {
    std::vector<double> submit_us;
    std::vector<double> poll_us;
    double polls = 0.0;
    double call_s = 0.0; ///< Time inside submit/poll calls.
};

/// Shared between the client threads: completions in completion order and
/// the first served bytes per key.
struct Client_log {
    std::mutex mutex;
    std::vector<Completed> completed;
    std::map<std::size_t, std::string> served_bytes;
    Net_samples net;

    void record(std::size_t key, double latency_ms, const xrl::Optimize_result* result,
                std::string error)
    {
        const std::lock_guard lock(mutex);
        if (result != nullptr) {
            std::string bytes = comparable_bytes(*result);
            auto [it, inserted] = served_bytes.emplace(key, bytes);
            if (!inserted && it->second != bytes) error = "served bytes differ between replies";
            if (result->cancelled) error = "cancelled";
        }
        completed.push_back({key, latency_ms, std::move(error)});
    }
};

/// One closed-loop client until `deadline`. Untraced it calls
/// Client::optimize; traced it drives Client::submit and Client::poll
/// itself so the net layer's calls can be timed.
void client_loop(const xrl::Daemon& daemon, const Inputs& inputs, Request_stream& stream,
                 Clock::time_point deadline, bool traced, Client_log& log)
{
    xrl::Client_config config;
    config.host = daemon.host();
    config.port = daemon.port();
    std::optional<xrl::Client> connected;
    try {
        connected.emplace(config);
    } catch (const std::exception& e) {
        log.record(0, 0.0, nullptr, std::string("connect: ") + e.what());
        return;
    }
    xrl::Client& client = *connected;
    std::unique_ptr<xrl::Trace_scope> scope;
    if (traced) scope = std::make_unique<xrl::Trace_scope>(xrl::new_trace_id(), 0);
    Net_samples net;
    while (Clock::now() < deadline) {
        const std::size_t k = stream.next();
        const Key& key = inputs.keys[k];
        const xrl::Graph& graph = inputs.graphs[key.graph];
        const auto start = Clock::now();
        try {
            if (!traced) {
                const xrl::Optimize_result result = client.optimize(key.backend, graph, key.request);
                log.record(k, seconds_since(start) * 1e3, &result, {});
                continue;
            }
            const xrl::Span_scope span("net/job");
            auto call_start = Clock::now();
            xrl::Submit_ok submitted;
            {
                const xrl::Span_scope submit_span("net/submit");
                submitted = client.submit(key.backend, graph, key.request);
            }
            net.submit_us.push_back(seconds_since(call_start) * 1e6);
            net.call_s += seconds_since(call_start);
            for (;;) {
                call_start = Clock::now();
                xrl::Poll_ok polled;
                {
                    const xrl::Span_scope poll_span("net/poll");
                    polled = client.poll(submitted.job_id, config.poll_wait_seconds);
                }
                net.poll_us.push_back(seconds_since(call_start) * 1e6);
                net.call_s += seconds_since(call_start);
                net.polls += 1.0;
                if (!xrl::is_terminal(polled.state)) continue;
                if (polled.result.has_value())
                    log.record(k, seconds_since(start) * 1e3, &*polled.result, {});
                else
                    log.record(k, seconds_since(start) * 1e3, nullptr,
                                  "job ended " + std::string(xrl::to_string(polled.state)) + ": " +
                                      polled.message);
                break;
            }
        } catch (const std::exception& e) {
            log.record(k, seconds_since(start) * 1e3, nullptr, e.what());
        }
    }
    const std::lock_guard lock(log.mutex);
    log.net.submit_us.insert(log.net.submit_us.end(), net.submit_us.begin(), net.submit_us.end());
    log.net.poll_us.insert(log.net.poll_us.end(), net.poll_us.begin(), net.poll_us.end());
    log.net.polls += net.polls;
    log.net.call_s += net.call_s;
}

/// Run both clients for `seconds`; returns the loop's wall time.
double run_phase(const xrl::Daemon& daemon, const Inputs& inputs,
                 std::vector<Request_stream>& streams, double seconds, bool traced, Client_log& log)
{
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            client_loop(daemon, inputs, streams[static_cast<std::size_t>(c)], deadline, traced,
                        log);
        });
    for (std::thread& thread : threads) thread.join();
    return seconds_since(start);
}

/// Set-up: the key space's graphs, the daemon (router, shard, service,
/// listener), and the two client connections.
struct Set_up {
    Inputs inputs;
    std::unique_ptr<xrl::Daemon> daemon;
    std::vector<std::unique_ptr<xrl::Client>> clients; ///< Destroyed before the daemon.
};

} // namespace

void run_serve_mixed(const Options& options, Report& report)
{
    Setup_timer setup_timer;
    const auto set_up = [&] {
        Set_up built;
        built.inputs = make_inputs(options.seed, options.size);
        built.daemon = std::make_unique<xrl::Daemon>(daemon_config());
        for (int c = 0; c < kClients; ++c) {
            xrl::Client_config config;
            config.host = built.daemon->host();
            config.port = built.daemon->port();
            built.clients.push_back(std::make_unique<xrl::Client>(config));
        }
        return built;
    };
    Set_up served = setup_timer.burst(set_up);
    served.clients.clear(); // each client loop opens its own connection
    const Inputs& inputs = served.inputs;
    std::unique_ptr<xrl::Daemon>& daemon = served.daemon;
    std::vector<std::uint64_t> key_values;
    for (const Key& key : inputs.keys) {
        key_values.push_back(inputs.graphs[key.graph].model_hash());
        key_values.push_back(key.request.seed);
    }
    report.set_info("inputs_digest", inputs_digest(key_values));
    report.set_info("keys", std::to_string(inputs.keys.size()));
    report.set_info("graphs", std::to_string(inputs.graphs.size()));
    report.set_info("loop", "closed, 2 clients");

    std::vector<Request_stream> streams;
    for (int c = 0; c < kClients; ++c) streams.emplace_back(options.seed, c, inputs.keys.size());

    Client_log untraced;
    const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
    // In two halves, with a set-up burst between them (see Setup_timer).
    double untraced_wall = run_phase(*daemon, inputs, streams, untraced_s / 2.0, false, untraced);
    setup_timer.burst(set_up);
    untraced_wall += run_phase(*daemon, inputs, streams, untraced_s / 2.0, false, untraced);

    Client_log traced;
    double traced_wall = 0.0;
    if (options.trace) {
        const double hits_before = registry_value("xrlflow_server_cache_hits_total");
        const double completed_before = registry_value("xrlflow_server_completed_total");
        const double coalesced_before = registry_value("xrlflow_server_coalesced_total");
        const xrl::Histogram::Snapshot latency_before = registry_histogram("xrlflow_job_latency_ms");
        const std::uint64_t errors_before = daemon->stats().protocol_errors;
        const Engine_phases engine_before;
        const Proc_counters proc_before = proc_counters();
        xrl::set_trace_enabled(true);
        traced_wall = run_phase(*daemon, inputs, streams, options.seconds / 2.0, true, traced);
        xrl::set_trace_enabled(false);
        report_proc_delta(report, proc_before, proc_counters());
        engine_before.report(report);
        write_trace(options.trace_path);

        const double completed = registry_value("xrlflow_server_completed_total") - completed_before;
        report.set_layer("serve.memo_hit_ratio",
                         completed > 0.0
                             ? (registry_value("xrlflow_server_cache_hits_total") - hits_before) / completed
                             : 0.0);
        report.set_layer("serve.coalesced",
                         registry_value("xrlflow_server_coalesced_total") - coalesced_before);
        report.set_layer("serve.job_latency_ms_p50",
                         histogram_delta(registry_histogram("xrlflow_job_latency_ms"), latency_before)
                             .quantile(0.5));
        report.set_layer("net.protocol_errors",
                         static_cast<double>(daemon->stats().protocol_errors - errors_before));
        report.set_layer("net.submit_us_p50", median(traced.net.submit_us));
        report.set_layer("net.submit_us_p99", quantile(traced.net.submit_us, 0.99));
        report.set_layer("net.poll_us_p50", median(traced.net.poll_us));
        report.set_layer("net.poll_us_p99", quantile(traced.net.poll_us, 0.99));
        const double jobs = static_cast<double>(traced.completed.size());
        report.set_layer("net.polls_per_job", jobs > 0.0 ? traced.net.polls / jobs : 0.0);

        std::vector<double> traced_ms;
        double latency_s = 0.0;
        for (const Completed& job : traced.completed) {
            traced_ms.push_back(job.latency_ms);
            latency_s += job.latency_ms * 1e-3;
        }
        std::vector<double> untraced_ms;
        for (const Completed& job : untraced.completed) untraced_ms.push_back(job.latency_ms);
        // Leaves: the client's submit and poll calls; the remainder is the
        // client's own work between calls.
        report.set_layer("unattributed_s", latency_s - traced.net.call_s);
        report.set_layer("trace.overhead_share",
                         (median(traced_ms) - median(untraced_ms)) / median(untraced_ms));
    }
    report.set_end_to_end("peak_rss_mb", proc_counters().peak_rss_mb);
    daemon.reset();
    setup_timer.burst(set_up);
    report.set_end_to_end("setup_s", setup_timer.median());

    // Output checks: every served result of a key must be byte-identical to
    // a direct Optimization_service call, and every key's optimised graph is
    // executed against its input.
    xrl::Optimization_service direct(service_config());
    std::vector<double> speedups;
    std::vector<std::string> key_error(inputs.keys.size());
    std::vector<std::vector<xrl::Tensor>> references(inputs.graphs.size());
    double shape_only = 0.0;
    for (std::size_t k = 0; k < inputs.keys.size(); ++k) {
        const Key& key = inputs.keys[k];
        const xrl::Graph& graph = inputs.graphs[key.graph];
        const xrl::Optimize_result result = direct.optimize(key.backend, graph, key.request);
        speedups.push_back(simulated_ms(graph) / simulated_ms(result.best_graph));
        bool executed = false;
        key_error[k] = check_semantics(graph, result.best_graph, options.seed,
                                       references[key.graph], &executed);
        shape_only += executed ? 0.0 : 1.0;
        const std::string bytes = comparable_bytes(result);
        for (const Client_log* log : {&untraced, &traced}) {
            const auto served = log->served_bytes.find(k);
            if (served != log->served_bytes.end() && served->second != bytes)
                key_error[k] = "served result differs from the direct service call";
        }
    }
    for (const Client_log* log : {&untraced, &traced})
        for (const Completed& job : log->completed) {
            std::string error = job.error.empty() ? key_error[job.key] : job.error;
            report.job(error.empty() ? "" : inputs.graph_names[inputs.keys[job.key].graph] + "/" +
                                                inputs.keys[job.key].backend + ": " + error);
        }

    std::vector<double> job_ms;
    for (const Completed& job : untraced.completed) job_ms.push_back(job.latency_ms);
    // optimise_s: the summed time-to-result of a fixed-size slice of
    // consecutive completions, median over the run's slices.
    const std::size_t slice = options.size == Size::tiny ? 10 : 100;
    std::vector<double> slice_s;
    for (std::size_t begin = 0; begin + slice <= job_ms.size(); begin += slice) {
        double total = 0.0;
        for (std::size_t i = begin; i < begin + slice; ++i) total += job_ms[i] * 1e-3;
        slice_s.push_back(total);
    }
    if (slice_s.empty()) report.fail("fewer jobs completed than one slice");

    report.set_exact("speedup_geomean", geomean(speedups));
    report.set_exact("checks.shape_only", shape_only);
    report.set_end_to_end("optimise_s", median(slice_s));
    report.set_end_to_end("speedup_geomean", geomean(speedups));
    report.set_end_to_end("jobs_per_s", static_cast<double>(job_ms.size()) / untraced_wall);
    report.set_end_to_end("job_p50_ms", median(job_ms));
    report.set_end_to_end("job_p99_ms", quantile(job_ms, 0.99));
    report.set_info("jobs", std::to_string(job_ms.size()));
    std::fprintf(stderr, "serve_mixed: %zu jobs untraced in %.1f s, %zu traced in %.1f s\n",
                 job_ms.size(), untraced_wall, traced.completed.size(), traced_wall);
}

} // namespace perfbench
