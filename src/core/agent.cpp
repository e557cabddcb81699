#include "core/agent.h"

#include <cmath>

#include "core/checkpoint.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace xrl {

namespace {

Rng seeded(std::uint64_t seed)
{
    return Rng(seed);
}

/// Node rows of behaviour-time GNN forwards: `run` counts the rows the
/// forward computed, `meta` the rows the full meta-graph has.
Counter& gnn_rows_counter(const char* form)
{
    return Metrics_registry::global().counter(
        "xrlflow_gnn_rows_total", "GNN node rows of the policy's inference forwards",
        {{"form", form}});
}

} // namespace

Agent::Agent(const Agent_config& config, std::uint64_t seed)
    : config_(config),
      encoder_([&] {
          Rng rng = seeded(seed);
          return Gnn_encoder(config.gnn, rng);
      }()),
      policy_head_([&] {
          Rng rng = seeded(seed ^ 0x1111ULL);
          return Mlp(2 * config.gnn.global_dim, config.head_hidden, 1, rng);
      }()),
      value_head_([&] {
          Rng rng = seeded(seed ^ 0x2222ULL);
          return Mlp(config.gnn.global_dim, config.head_hidden, 1, rng);
      }()),
      pad_embedding_([&] {
          Rng rng = seeded(seed ^ 0x3333ULL);
          return Tensor::random_uniform({1, config.gnn.global_dim}, rng, -0.1F, 0.1F);
      }()),
      noop_embedding_([&] {
          Rng rng = seeded(seed ^ 0x4444ULL);
          return Tensor::random_uniform({1, config.gnn.global_dim}, rng, -0.1F, 0.1F);
      }())
{
    XRL_EXPECTS(config_.max_candidates >= 1);
}

Agent::Forward Agent::forward(Tape& tape, const Encoded_graph& state)
{
    XRL_EXPECTS(state.num_graphs >= 1);
    const auto num_candidates = state.num_graphs - 1;
    XRL_EXPECTS(num_candidates <= config_.max_candidates);

    const Gnn_encoder::Output encoded = encoder_(tape, state);
    const Var embeddings = encoded.graph_embeddings; // (1 + K) x gd

    // Candidate slot embeddings: real candidates, then pad rows, then No-Op.
    std::vector<std::int64_t> candidate_rows(static_cast<std::size_t>(num_candidates));
    for (std::int64_t k = 0; k < num_candidates; ++k)
        candidate_rows[static_cast<std::size_t>(k)] = k + 1;
    Var rows = tape.gather_rows(embeddings, candidate_rows);

    const std::int64_t pad_count = config_.max_candidates - num_candidates;
    if (pad_count > 0) {
        const std::vector<std::int64_t> zeros(static_cast<std::size_t>(pad_count), 0);
        rows = tape.concat_rows(rows, tape.gather_rows(tape.param(pad_embedding_), zeros));
    }
    rows = tape.concat_rows(rows, tape.param(noop_embedding_));

    // Score each slot against the current graph's embedding.
    const std::vector<std::int64_t> current_rep(
        static_cast<std::size_t>(config_.max_candidates + 1), 0);
    const Var current = tape.gather_rows(embeddings, current_rep);
    const Var logits = policy_head_(tape, tape.concat_cols(current, rows));

    const Var value = value_head_(tape, tape.gather_rows(embeddings, {0}));
    return {logits, value};
}

Agent::Decision Agent::act(const Encoded_graph& state, const std::vector<std::uint8_t>& mask,
                           Rng& rng, bool greedy)
{
    static Histogram& phase_histogram = Metrics_registry::global().histogram(
        "xrlflow_rollout_phase_us", "RL rollout time by phase", duration_us_buckets(),
        {{"phase", "gnn_inference"}});
    static Counter& rows_run = gnn_rows_counter("run");
    static Counter& rows_meta = gnn_rows_counter("meta");
    const Scoped_timer_us timer(phase_histogram);
    const Span_scope span("rollout/gnn_inference");
    rows_run.increment(static_cast<std::uint64_t>(state.num_nodes));
    rows_meta.increment(state.node_graph.size()); // one readout entry per full meta-graph row
    Tape tape;
    const Forward fwd = forward(tape, state);
    const Tensor& logits = tape.value(fwd.logits);

    Decision decision;
    decision.action =
        greedy ? argmax_masked(logits, mask) : sample_masked(logits, mask, rng);
    const auto probs = masked_probabilities(logits, mask);
    decision.log_prob = std::log(std::max(probs[static_cast<std::size_t>(decision.action)], 1e-12));
    decision.value = tape.value(fwd.value).at(0);
    return decision;
}

std::vector<Parameter*> Agent::parameters()
{
    std::vector<Parameter*> out = encoder_.parameters();
    for (Parameter* p : policy_head_.parameters()) out.push_back(p);
    for (Parameter* p : value_head_.parameters()) out.push_back(p);
    out.push_back(&pad_embedding_);
    out.push_back(&noop_embedding_);
    return out;
}

void Agent::save(const std::string& path)
{
    save_parameters(path, parameters());
}

void Agent::load(const std::string& path)
{
    load_parameters(path, parameters());
}

} // namespace xrl
