// The graph neural network of §3.4: one edge-aware node-update layer
// (Eq. 6), k graph-attention layers (Eq. 7), and a final global-update
// readout (Eq. 8) that produces one embedding per member graph of the
// meta-graph.
#pragma once

#include <vector>

#include "gnn/encoding.h"
#include "nn/adam.h"
#include "nn/layers.h"

namespace xrl {

struct Gnn_config {
    std::int64_t hidden_dim = 32;   ///< Node embedding width.
    std::int64_t global_dim = 32;   ///< Graph embedding width.
    int num_gat_layers = 5;         ///< Paper Table 4: k = 5.
    float leaky_slope = 0.2F;       ///< GAT attention slope.
};

/// Eq. 6: h'_i = relu(W [sum of incoming edge attrs || h_i]) — learns each
/// operator's "kernel launch profile" from its type and operand shapes.
class Node_update_layer {
public:
    Node_update_layer(std::int64_t node_dim, std::int64_t out_dim, Rng& rng);

    Var operator()(Tape& tape, Var node_features, const Encoded_graph& enc);

    std::vector<Parameter*> parameters() { return linear_.parameters(); }

private:
    Linear linear_;
};

/// Eq. 7: graph attention — alpha_ij = softmax_j(leaky_relu(a^T [Wh_i || Wh_j])),
/// h'_i = relu(sum_j alpha_ij W h_j), over dataflow edges plus self loops.
class Gat_layer {
public:
    Gat_layer(std::int64_t dim, float leaky_slope, Rng& rng);

    Var operator()(Tape& tape, Var h, const Encoded_graph& enc);

    std::vector<Parameter*> parameters();

private:
    Linear w_;
    Parameter attention_;
    float leaky_slope_;
};

/// Eq. 8: g' = relu(W [sum_N h || g]) with g initialised to zero — one
/// embedding row per member graph, pooled over the encoding's readout
/// entries (each member's nodes in its own topological order).
class Global_update_layer {
public:
    Global_update_layer(std::int64_t node_dim, std::int64_t global_dim, Rng& rng);

    Var operator()(Tape& tape, Var h, const Encoded_graph& enc);

    std::vector<Parameter*> parameters() { return linear_.parameters(); }

private:
    Linear linear_;
    std::int64_t global_dim_;
};

/// The whole GNN: a meta-graph encoding (full or compact) in, (node
/// embeddings, per-graph embeddings) out.
class Gnn_encoder {
public:
    Gnn_encoder(const Gnn_config& config, Rng& rng);

    struct Output {
        Var node_embeddings;   ///< N x hidden.
        Var graph_embeddings;  ///< num_graphs x global_dim.
    };

    Output operator()(Tape& tape, const Encoded_graph& enc);

    std::vector<Parameter*> parameters();

    const Gnn_config& config() const { return config_; }

private:
    Gnn_config config_;
    Node_update_layer node_update_;
    std::vector<Gat_layer> gat_layers_;
    Global_update_layer global_update_;
};

/// One-hot node-kind matrix (N x op_kind_count) for an encoding.
Tensor one_hot_node_features(const Encoded_graph& enc);

} // namespace xrl
