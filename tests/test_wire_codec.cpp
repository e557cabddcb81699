// Golden bytes for every binary layout the system writes: one fully
// populated value of each wire PDU, an Optimize_result (the warm-start
// store's record payload) and a graph with tombstones and a constant
// payload. Each encoding's FNV-1a hash is pinned, so any change to a
// layout — field order, width, a flag's encoding — fails here before it
// reaches a peer or a state directory.
//
// The same fixtures seed the decoder hardening tests below: typed
// rejection of out-of-range enums, the per-payload graph-slot budget,
// list counts checked against each item's true minimum wire size, and a
// deterministic mutation sweep (byte flips, truncations, splices) in which
// every mutant either decodes — and then re-encodes and renders — or is
// rejected with a Protocol_error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/result_serial.h"
#include "ir/graph_io.h"
#include "models/models.h"
#include "net/protocol.h"
#include "support/check.h"
#include "support/fnv.h"

namespace xrl {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: every field set to a non-default value, every list with at
// least two entries, every optional present.
// ---------------------------------------------------------------------------

Op_params golden_params()
{
    Op_params params;
    params.activation = Activation::gelu;
    params.stride_h = 2;
    params.stride_w = 3;
    params.pad_h = 1;
    params.pad_w = 4;
    params.groups = 5;
    params.kernel_h = 6;
    params.kernel_w = 7;
    params.axis = -1;
    params.split_sizes = {2, 1};
    params.begin = 1;
    params.end = 9;
    params.perm = {1, 0};
    params.target_shape = {3, -1};
    params.pads_before = {0, 1};
    params.pads_after = {2, 0};
    params.target_r = 5;
    params.target_s = 3;
    params.epsilon = 1e-3F;
    params.scalar = -0.5F;
    params.keep_dim = false;
    return params;
}

/// Tombstones at ids 2 and 4 (below and between alive nodes), a constant
/// payload with awkward float bit patterns, and a fully populated
/// parameter block.
Graph golden_graph()
{
    Graph graph;
    const Node_id x = graph.add_node(Op_kind::input, {}, {}, "x");
    graph.node_mut(x).output_shapes = {{2, 3}};
    const Node_id c =
        graph.add_constant(Tensor({2, 3}, {0.5F, -1.25F, 3.0F, 1e-7F, -0.0F, 42.0F}), "c");
    const Node_id dead = graph.add_node(Op_kind::relu, {{x, 0}}, {}, "dead");
    const Node_id sum = graph.add_node(Op_kind::add, {{x, 0}, {c, 0}}, golden_params(), "sum");
    const Node_id dead_too = graph.add_node(Op_kind::tanh, {{sum, 0}});
    const Node_id out = graph.add_node(Op_kind::relu, {{sum, 0}}, {}, "out");
    graph.erase_node(dead);
    graph.erase_node(dead_too);
    graph.set_outputs({{out, 0}, {sum, 0}});
    graph.infer_shapes();
    return graph;
}

Device_profile golden_profile()
{
    Device_profile profile;
    profile.name = "golden-gpu";
    profile.flops_per_ms = 1.5e10;
    profile.bytes_per_ms = 4.25e8;
    profile.kernel_launch_ms = 6e-3;
    profile.scheduler_overhead_ms = 2.5e-3;
    profile.measurement_noise = 0.02;
    profile.utilisation_knee_flops = 3e6;
    return profile;
}

Optimize_request golden_request(bool inline_profile)
{
    Optimize_request request;
    request.time_budget_seconds = 2.5;
    request.iteration_budget = 17;
    request.seed = 0xDEADBEEFCAFEULL;
    request.deterministic = false;
    request.device = inline_profile ? Target_device(golden_profile()) : Target_device("gpu0");
    return request;
}

Optimize_result golden_result()
{
    Optimize_result result;
    result.best_graph = golden_graph();
    result.backend = "taso";
    result.device = "gtx1080";
    result.initial_ms = 2.5;
    result.final_ms = 1.75;
    result.steps = 9;
    result.wall_seconds = 0.125;
    result.cancelled = true;
    result.from_cache = true;
    result.rule_counts = {{"fuse_matmul_add", 3}, {"merge_conv", 1}};
    result.metadata = {{"egraph_nodes", 128.0}, {"training_seconds", 0.25}};
    return result;
}

Hello golden_hello() { return {2, "golden-client"}; }

Hello_ok golden_hello_ok() { return {1, 3, "xrlflowd-golden", 4, {"pet", "taso", "tensat"}}; }

Submit golden_submit()
{
    Submit submit;
    submit.backend = "tensat";
    submit.request = golden_request(true);
    submit.graph = golden_graph();
    submit.priority = -7;
    submit.deadline_seconds = 12.25;
    submit.request_key = 0x1122334455667788ULL;
    submit.trace_id = 0xABCDEFULL;
    submit.parent_span = 0x42;
    return submit;
}

Submit_ok golden_submit_ok() { return {77, true}; }

Batch_submit golden_batch_submit()
{
    Batch_submit batch;
    batch.entries.push_back({"taso", golden_request(false), golden_graph()});
    batch.entries.push_back({"pet", golden_request(true), golden_graph()});
    batch.budget_seconds = 30.5;
    batch.deadline_seconds = 40.25;
    batch.priority = 3;
    batch.request_key = 9;
    batch.trace_id = 10;
    batch.parent_span = 11;
    return batch;
}

Batch_ok golden_batch_ok() { return {{{1, false}, {2, true}, {3, false}}}; }

Poll golden_poll() { return {99, 1.5}; }

Poll_ok golden_poll_ok()
{
    Poll_ok ok;
    ok.job_id = 99;
    ok.state = Job_state::done;
    ok.message = "finished";
    ok.progress = Optimize_progress{"xrlflow", 12, 3.25, 0.5};
    ok.result = golden_result();
    return ok;
}

Cancel golden_cancel() { return {5}; }

Cancel_ok golden_cancel_ok() { return {5, Job_state::cancelled}; }

Server_stats golden_server_stats(std::uint64_t base)
{
    Server_stats stats;
    stats.submitted = base + 1;
    stats.coalesced = base + 2;
    stats.rejected = base + 3;
    stats.shed = base + 4;
    stats.completed = base + 5;
    stats.cancelled = base + 6;
    stats.failed = base + 7;
    stats.cache_hits = base + 8;
    stats.queue_depth = base + 9;
    stats.running = base + 10;
    stats.inflight = base + 11;
    stats.peak_queue_depth = base + 12;
    stats.peak_running = base + 13;
    stats.p50_latency_ms = 1.5;
    stats.p95_latency_ms = 7.25;
    stats.uptime_seconds = 60.5;
    stats.snapshot_seq = base + 14;
    stats.backends["taso"] = {base + 15, base + 16, base + 17, base + 18, 2.5};
    stats.backends["xrlflow"] = {base + 19, base + 20, base + 21, base + 22, 0.75};
    return stats;
}

Shard_health_snapshot golden_health(std::uint64_t id, Breaker_state state)
{
    return {id, state, true, 3, id + 10, id + 11, id + 12, id + 13};
}

Stats_ok golden_stats_ok()
{
    Stats_ok stats;
    stats.router.submitted = 101;
    stats.router.affinity_routed = 102;
    stats.router.hash_routed = 103;
    stats.router.probe_routed = 104;
    stats.router.breaker_rerouted = 105;
    stats.router.uptime_seconds = 90.25;
    stats.router.snapshot_seq = 106;
    stats.router.total = golden_server_stats(1000);
    stats.router.shards = {golden_server_stats(2000), golden_server_stats(3000)};
    stats.router.routed_to = {40, 50};
    stats.router.health = {golden_health(7, Breaker_state::open),
                           golden_health(8, Breaker_state::half_open)};
    stats.daemon = {1, 2, 3, 4, 5, 6, 7, 8};
    return stats;
}

Metrics_ok golden_metrics_ok() { return {"# TYPE xrlflow_up gauge\nxrlflow_up 1\n"}; }

Trace_request golden_trace_request() { return {7, 8}; }

Trace_ok golden_trace_ok()
{
    Trace_ok trace;
    trace.trace_id = 0x55;
    trace.spans.push_back({0x55, 1, 0, "daemon/submit", 2, 1700000000000000ULL, 250,
                           {{"job", "3"}, {"backend", "taso"}}});
    trace.spans.push_back({0x55, 2, 1, "shard/execute", 3, 1700000000000100ULL, 125,
                           {{"candidates", "14"}, {"device", "gpu0"}}});
    return trace;
}

Error_pdu golden_error() { return {Protocol_error_code::unknown_job, "no such job", true}; }

std::uint64_t hash_of(std::string_view bytes) { return fnv1a_bytes(fnv1a_offset, bytes); }

std::string graph_bytes(const Graph& graph)
{
    Byte_writer out;
    serialise_graph_binary(out, graph);
    return out.take();
}

// ---------------------------------------------------------------------------
// Golden hashes (recorded on the codec these tests were written against;
// any difference is a layout change and needs a protocol/format version
// decision, not a new hash).
// ---------------------------------------------------------------------------

#define EXPECT_GOLDEN(bytes, expected)                                                   \
    EXPECT_EQ(hash_of(bytes), expected##ULL)                                             \
        << std::hex << "0x" << hash_of(bytes) << " (" << std::dec << (bytes).size()     \
        << " bytes)"

TEST(GoldenBytes, Graph) { EXPECT_GOLDEN(graph_bytes(golden_graph()), 0xc47f7d5fe4963fe2); }

TEST(GoldenBytes, OptimizeResult) { EXPECT_GOLDEN(result_to_bytes(golden_result()), 0x43f07b5b69f72ea2); }

TEST(GoldenBytes, EveryPdu)
{
    EXPECT_GOLDEN(encode(golden_hello()), 0x43aef35ba32e20d5);
    EXPECT_GOLDEN(encode(golden_hello_ok()), 0xb10e6784f8a948f);
    EXPECT_GOLDEN(encode(golden_submit()), 0x27eafc0b1da25319);
    EXPECT_GOLDEN(encode(golden_submit_ok()), 0x1329d4aed83b3dfd);
    EXPECT_GOLDEN(encode(golden_batch_submit()), 0x24b6cbd68d54517b);
    EXPECT_GOLDEN(encode(golden_batch_ok()), 0xfc84c99835bbf069);
    EXPECT_GOLDEN(encode(golden_poll()), 0x52c48fcf0259d3b5);
    EXPECT_GOLDEN(encode(golden_poll_ok()), 0xf3c39aab3e2879bd);
    EXPECT_GOLDEN(encode(golden_cancel()), 0xa4ee6299d05c3046);
    EXPECT_GOLDEN(encode(golden_cancel_ok()), 0x9d41d05d0ca6053f);
    EXPECT_GOLDEN(encode(golden_stats_ok()), 0x5bec462c7afd3ee6);
    EXPECT_GOLDEN(encode(golden_metrics_ok()), 0xad69afd5f7665881);
    EXPECT_GOLDEN(encode(golden_trace_request()), 0xe9f275308080958c);
    EXPECT_GOLDEN(encode(golden_trace_ok()), 0x9946e80273307698);
    EXPECT_GOLDEN(encode(golden_error()), 0x6d2812fc8134c001);
}

// ---------------------------------------------------------------------------
// Decoder hardening
// ---------------------------------------------------------------------------

/// Decoding must fail with a typed bad_payload whose message names
/// `reason` (any other exception fails the test too).
template <class Pdu>
void expect_bad_payload(std::string_view payload, const std::string& reason)
{
    try {
        (void)decode<Pdu>(payload);
        ADD_FAILURE() << "decode<" << to_string(Pdu::pdu_type) << "> accepted the payload";
    } catch (const Protocol_error& error) {
        EXPECT_EQ(error.code(), Protocol_error_code::bad_payload) << error.what();
        EXPECT_NE(std::string(error.what()).find(reason), std::string::npos) << error.what();
    }
}

std::string zeros(std::size_t count) { return std::string(count, '\0'); }

std::string u32_bytes(std::uint32_t value)
{
    Byte_writer out;
    out.u32(value);
    return out.take();
}

/// A binary graph of `slots` tombstones: one byte per slot on the wire.
std::string tombstone_graph(std::uint32_t slots)
{
    return u32_bytes(1) + u32_bytes(slots) + zeros(slots) + u32_bytes(0);
}

/// The encoding of an empty Graph{} (version, capacity 0, no outputs).
constexpr std::size_t empty_graph_bytes = 12;

TEST(WireDecode, ActivationOutOfRangeIsBadPayload)
{
    Submit submit = golden_submit();
    // Params blocks are immutable: give node 3 a fresh one.
    Op_params params = *submit.graph.node(3).params;
    params.activation = static_cast<Activation>(200);
    submit.graph.node_mut(3).params = std::move(params);
    expect_bad_payload<Submit>(encode(submit), "unknown activation 200");
}

TEST(WireDecode, TombstoneFloodIsRejectedBeforeAllocation)
{
    Submit submit = golden_submit();
    submit.graph = Graph{};
    std::string payload = encode(submit);
    payload.resize(payload.size() - empty_graph_bytes);
    payload += tombstone_graph(1000000);
    expect_bad_payload<Submit>(payload, "slot budget");

    // The same flood as poll_ok's result graph, which follows the job id,
    // state, message, absent progress, presence flag and result version.
    Optimize_result result = golden_result();
    result.best_graph = Graph{};
    Poll_ok ok = golden_poll_ok();
    ok.progress.reset();
    ok.result = std::move(result);
    const std::string reply = encode(ok);
    const std::size_t graph_at = 8 + 1 + 8 + ok.message.size() + 1 + 1 + 4;
    const std::string flooded = reply.substr(0, graph_at) + tombstone_graph(1000000) +
                                reply.substr(graph_at + empty_graph_bytes);
    expect_bad_payload<Poll_ok>(flooded, "slot budget");
}

TEST(WireDecode, BatchGraphsShareOneSlotBudget)
{
    // Each entry alone fits the budget; together they exceed it.
    const std::uint32_t slots = static_cast<std::uint32_t>(protocol_max_graph_slots / 2) + 1;
    Batch_submit batch = golden_batch_submit();
    batch.entries.resize(1);
    batch.entries[0].graph = Graph{};
    const std::string one = encode(batch);
    const std::size_t tail = 2 * sizeof(double) + sizeof(std::int32_t) + 3 * sizeof(std::uint64_t);
    const std::string entry = one.substr(4, one.size() - 4 - tail - empty_graph_bytes);
    const std::string entry_bytes = entry + tombstone_graph(slots);

    const std::string single = u32_bytes(1) + entry_bytes + one.substr(one.size() - tail);
    EXPECT_EQ(decode<Batch_submit>(single).entries.at(0).graph.capacity(), slots);

    const std::string pair =
        u32_bytes(2) + entry_bytes + entry_bytes + one.substr(one.size() - tail);
    expect_bad_payload<Batch_submit>(pair, "slot budget");
}

TEST(WireDecode, PaperScaleZooGraphsRoundTrip)
{
    for (const Model_spec& model : evaluation_models(Scale::paper)) {
        Submit submit = golden_submit();
        submit.graph = model.build();
        const std::string bytes = encode(submit);
        EXPECT_EQ(encode(decode<Submit>(bytes)), bytes) << model.name;
    }
}

// Each crafted count below is one item more than the remaining bytes hold
// at the item's true minimum wire size, so it must be refused up front as
// a corrupt count. A looser minimum would let it through to a later short
// read instead — a different message — so these fail if a minimum drifts.

TEST(WireDecode, ServerStatsEntryMinimumIs140Bytes)
{
    // router scalars, then `total` with no backends, then shards.
    const std::string payload = zeros(56) + zeros(136) + u32_bytes(0) + u32_bytes(2) + zeros(279);
    expect_bad_payload<Stats_ok>(payload, "corrupt count 2");
}

TEST(WireDecode, BackendStatsEntryMinimumIs48Bytes)
{
    const std::string payload = zeros(56) + zeros(136) + u32_bytes(2) + zeros(95);
    expect_bad_payload<Stats_ok>(payload, "corrupt count 2");
}

TEST(WireDecode, BatchEntryMinimumIs50Bytes)
{
    expect_bad_payload<Batch_submit>(u32_bytes(2) + zeros(99), "corrupt count 2");
}

TEST(WireDecode, TraceSpanMinimumIs60Bytes)
{
    expect_bad_payload<Trace_ok>(zeros(8) + u32_bytes(2) + zeros(119), "corrupt count 2");
}

TEST(WireDecode, SpanAnnotationMinimumIs16Bytes)
{
    const std::string payload = zeros(8) + u32_bytes(1) + zeros(56) + u32_bytes(2) + zeros(31);
    expect_bad_payload<Trace_ok>(payload, "corrupt count 2");
}

// ---------------------------------------------------------------------------
// Mutation sweep
// ---------------------------------------------------------------------------

void for_each_graph(const Submit& submit, const std::function<void(const Graph&)>& visit)
{
    visit(submit.graph);
}

void for_each_graph(const Batch_submit& batch, const std::function<void(const Graph&)>& visit)
{
    for (const Batch_submit::Entry& entry : batch.entries) visit(entry.graph);
}

void for_each_graph(const Poll_ok& ok, const std::function<void(const Graph&)>& visit)
{
    if (ok.result.has_value()) visit(ok.result->best_graph);
}

template <class Pdu>
void for_each_graph(const Pdu&, const std::function<void(const Graph&)>&)
{
}

struct Mutation_tally {
    int decoded = 0;
    int rejected = 0;
    int unrenderable = 0; ///< Decoded graphs the text renderer refused.
};

/// A decoded mutant must re-encode, and its graphs must render as text.
/// The renderer's own preconditions (acyclic, single-token names, constants
/// carrying payloads) are typed Contract_violations, not defects: the
/// binary form does not promise them, and the point here is that nothing
/// crashes, reads out of bounds or escapes untyped.
template <class Pdu>
void check_mutant(std::string_view bytes, Mutation_tally& tally)
{
    Pdu pdu;
    try {
        pdu = decode<Pdu>(bytes);
    } catch (const Protocol_error& error) {
        EXPECT_EQ(error.code(), Protocol_error_code::bad_payload) << error.what();
        ++tally.rejected;
        return;
    }
    ++tally.decoded;
    (void)encode(pdu);
    for_each_graph(pdu, [&tally](const Graph& graph) {
        std::ostringstream text;
        try {
            serialise_graph_text(text, graph);
        } catch (const Contract_violation&) {
            ++tally.unrenderable;
        }
    });
}

std::string mutate(const std::string& bytes, const std::vector<std::string>& donors,
                   std::mt19937_64& rng)
{
    std::string out = bytes;
    switch (rng() % 3) {
    case 0: { // flip one to three bytes
        const int flips = 1 + static_cast<int>(rng() % 3);
        for (int i = 0; i < flips && !out.empty(); ++i) {
            char& byte = out[rng() % out.size()];
            const auto mask = static_cast<unsigned char>(1 + rng() % 255);
            byte = static_cast<char>(static_cast<unsigned char>(byte) ^ mask);
        }
        break;
    }
    case 1: // truncate
        out.resize(out.empty() ? 0 : rng() % out.size());
        break;
    default: { // splice a run of another encoding in, replacing or inserting
        const std::string& donor = donors[rng() % donors.size()];
        const std::size_t length = 1 + rng() % std::min<std::size_t>(16, donor.size());
        const std::string run = donor.substr(rng() % (donor.size() - length + 1), length);
        const std::size_t at = rng() % (out.size() + 1);
        if (rng() % 2 == 0) out.replace(at, std::min(length, out.size() - at), run);
        else out.insert(at, run);
        break;
    }
    }
    return out;
}

TEST(WireDecode, MutatedPayloadsDecodeOrThrowProtocolError)
{
    constexpr int mutants_per_pdu = 3000;
    struct Fixture {
        const char* name;
        std::string bytes;
        void (*check)(std::string_view, Mutation_tally&);
    };
    const std::vector<Fixture> fixtures = {
        {"hello", encode(golden_hello()), &check_mutant<Hello>},
        {"hello_ok", encode(golden_hello_ok()), &check_mutant<Hello_ok>},
        {"submit", encode(golden_submit()), &check_mutant<Submit>},
        {"submit_ok", encode(golden_submit_ok()), &check_mutant<Submit_ok>},
        {"batch_submit", encode(golden_batch_submit()), &check_mutant<Batch_submit>},
        {"batch_ok", encode(golden_batch_ok()), &check_mutant<Batch_ok>},
        {"poll", encode(golden_poll()), &check_mutant<Poll>},
        {"poll_ok", encode(golden_poll_ok()), &check_mutant<Poll_ok>},
        {"cancel", encode(golden_cancel()), &check_mutant<Cancel>},
        {"cancel_ok", encode(golden_cancel_ok()), &check_mutant<Cancel_ok>},
        {"stats_ok", encode(golden_stats_ok()), &check_mutant<Stats_ok>},
        {"metrics_ok", encode(golden_metrics_ok()), &check_mutant<Metrics_ok>},
        {"trace", encode(golden_trace_request()), &check_mutant<Trace_request>},
        {"trace_ok", encode(golden_trace_ok()), &check_mutant<Trace_ok>},
        {"error", encode(golden_error()), &check_mutant<Error_pdu>},
    };
    std::vector<std::string> donors;
    donors.reserve(fixtures.size());
    for (const Fixture& fixture : fixtures) donors.push_back(fixture.bytes);

    std::mt19937_64 rng(20231017);
    for (const Fixture& fixture : fixtures) {
        Mutation_tally tally;
        for (int i = 0; i < mutants_per_pdu; ++i) {
            const std::string mutant = mutate(fixture.bytes, donors, rng);
            try {
                fixture.check(mutant, tally);
            } catch (const std::exception& error) {
                ADD_FAILURE() << fixture.name << " mutant " << i
                              << " escaped with a non-protocol error: " << error.what();
            }
        }
        EXPECT_EQ(tally.decoded + tally.rejected, mutants_per_pdu) << fixture.name;
        EXPECT_GT(tally.rejected, 0) << fixture.name;
    }
}

} // namespace
} // namespace xrl
