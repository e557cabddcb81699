// Graph -> GNN input encoding (§3.3.2).
//
// Node attributes: one-hot operator kind (~40 kinds). Edge attributes: the
// carried tensor's shape, zero-padded to rank 4 on the leading dimensions
// and normalised by the constant M = 4096 (Table 4). The global attribute
// starts at zero and is produced by the learnable global-update layer.
//
// A *meta-graph* batches the current graph and all candidate graphs into
// one disjoint union — one GNN call embeds every graph of the state.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/graph.h"
#include "tensor/tensor.h"

namespace xrl {

constexpr std::int64_t edge_feature_dim = 4;
constexpr float edge_normaliser = 4096.0F; ///< Paper Table 4: M.

/// Compact GNN input (one-hot expansion happens inside the encoder).
struct Encoded_graph {
    std::vector<std::int32_t> node_kinds;       ///< N: operator-kind index per node.
    Tensor edge_features;                       ///< E x 4: normalised shapes.
    std::vector<std::int64_t> edge_src;         ///< E: producer node row.
    std::vector<std::int64_t> edge_dst;         ///< E: consumer node row.
    std::vector<std::int64_t> attn_src;         ///< E + N: dataflow + self loops.
    std::vector<std::int64_t> attn_dst;
    std::vector<std::int64_t> node_graph;       ///< N: which member graph owns the node.
    std::int64_t num_nodes = 0;
    std::int64_t num_graphs = 0;

    /// Approximate retained bytes (buffer-size accounting for tests).
    std::size_t memory_bytes() const;
};

/// Encode a single graph (member index 0).
Encoded_graph encode_graph_for_gnn(const Graph& graph);

/// Encode the meta-graph: member 0 is the current graph, members 1..K the
/// candidates.
Encoded_graph encode_meta_graph(const Graph& current, const std::vector<const Graph*>& candidates);

/// Reusable meta-graph encoder for the rollout hot loop: produces exactly
/// the Encoded_graph encode_meta_graph would (bit-identical — the parity
/// test in test_gnn holds it to that), but the output vectors and the
/// row-mapping scratch persist across encode() calls, so a steady-state
/// step reuses warm buffers instead of reallocating the whole encoding.
/// Single-owner, like the candidate engine.
class Meta_encoder {
public:
    /// Encode one state. The returned reference is invalidated by the next
    /// encode() call; copy it (e.g. into a PPO transition) to keep it.
    const Encoded_graph& encode(const Graph& current,
                                const std::vector<const Graph*>& candidates);

private:
    Encoded_graph enc_;
    std::vector<float> edge_rows_;
    std::vector<std::int64_t> row_of_; ///< Node_id -> meta-graph row scratch.
};

} // namespace xrl
