#include "gnn/gnn.h"

#include "support/check.h"

namespace xrl {

Tensor one_hot_node_features(const Encoded_graph& enc)
{
    const auto n = static_cast<std::int64_t>(enc.node_kinds.size());
    Tensor features(Shape{n, op_kind_count()});
    for (std::int64_t i = 0; i < n; ++i)
        features.at(i * op_kind_count() + enc.node_kinds[static_cast<std::size_t>(i)]) = 1.0F;
    return features;
}

Node_update_layer::Node_update_layer(std::int64_t node_dim, std::int64_t out_dim, Rng& rng)
    : linear_(edge_feature_dim + node_dim, out_dim, rng)
{
}

Var Node_update_layer::operator()(Tape& tape, Var node_features, const Encoded_graph& enc)
{
    // Sum of incoming edge attributes per node. Nodes without inputs
    // (sources) aggregate to zero.
    const Var edge_attrs = tape.constant(enc.edge_features);
    const Var aggregated = tape.segment_sum(edge_attrs, enc.edge_dst, enc.num_nodes);
    const Var joined = tape.concat_cols(aggregated, node_features);
    return tape.relu(linear_(tape, joined));
}

Gat_layer::Gat_layer(std::int64_t dim, float leaky_slope, Rng& rng)
    : w_(dim, dim, rng),
      attention_(Tensor::random_uniform({2 * dim, 1}, rng, -0.1F, 0.1F)),
      leaky_slope_(leaky_slope)
{
}

std::vector<Parameter*> Gat_layer::parameters()
{
    auto params = w_.parameters();
    params.push_back(&attention_);
    return params;
}

Var Gat_layer::operator()(Tape& tape, Var h, const Encoded_graph& enc)
{
    const Var hw = w_(tape, h);
    const Var src_h = tape.gather_rows(hw, enc.attn_src);
    const Var dst_h = tape.gather_rows(hw, enc.attn_dst);
    const Var pair = tape.concat_cols(src_h, dst_h);
    const Var scores =
        tape.leaky_relu(tape.matmul(pair, tape.param(attention_)), leaky_slope_);
    const Var alpha = tape.segment_softmax(scores, enc.attn_dst, enc.num_nodes);
    const Var weighted = tape.mul(src_h, alpha); // (E x d) * (E x 1) broadcast
    const Var mixed = tape.segment_sum(weighted, enc.attn_dst, enc.num_nodes);
    return tape.relu(mixed);
}

Global_update_layer::Global_update_layer(std::int64_t node_dim, std::int64_t global_dim, Rng& rng)
    : linear_(node_dim + global_dim, global_dim, rng), global_dim_(global_dim)
{
}

Var Global_update_layer::operator()(Tape& tape, Var h, const Encoded_graph& enc)
{
    // Each member's rows in its own topological order: the full encoding's
    // rows are already laid out so, the compact one lists them.
    const Var members = enc.readout_rows.empty() ? h : tape.gather_rows(h, enc.readout_rows);
    const Var pooled = tape.segment_sum(members, enc.node_graph, enc.num_graphs);
    // Global attribute initialised to zero for every graph (§3.3.2).
    const Var zero_globals = tape.constant(Tensor(Shape{enc.num_graphs, global_dim_}));
    const Var joined = tape.concat_cols(pooled, zero_globals);
    return tape.relu(linear_(tape, joined));
}

Gnn_encoder::Gnn_encoder(const Gnn_config& config, Rng& rng)
    : config_(config),
      node_update_(op_kind_count(), config.hidden_dim, rng),
      global_update_(config.hidden_dim, config.global_dim, rng)
{
    XRL_EXPECTS(config.num_gat_layers >= 1);
    gat_layers_.reserve(static_cast<std::size_t>(config.num_gat_layers));
    for (int i = 0; i < config.num_gat_layers; ++i)
        gat_layers_.emplace_back(config.hidden_dim, config.leaky_slope, rng);
}

Gnn_encoder::Output Gnn_encoder::operator()(Tape& tape, const Encoded_graph& enc)
{
    XRL_EXPECTS(enc.num_nodes > 0);
    Var h = tape.constant(one_hot_node_features(enc));
    h = node_update_(tape, h, enc);
    for (Gat_layer& gat : gat_layers_) h = gat(tape, h, enc);
    const Var graph_embeddings = global_update_(tape, h, enc);
    return {h, graph_embeddings};
}

std::vector<Parameter*> Gnn_encoder::parameters()
{
    std::vector<Parameter*> out;
    for (Parameter* p : node_update_.parameters()) out.push_back(p);
    for (Gat_layer& gat : gat_layers_)
        for (Parameter* p : gat.parameters()) out.push_back(p);
    for (Parameter* p : global_update_.parameters()) out.push_back(p);
    return out;
}

} // namespace xrl
