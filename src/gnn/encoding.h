// Graph -> GNN input encoding (§3.3.2).
//
// Node attributes: one-hot operator kind (~40 kinds). Edge attributes: the
// carried tensor's shape, zero-padded to rank 4 on the leading dimensions
// and normalised by the constant M = 4096 (Table 4). The global attribute
// starts at zero and is produced by the learnable global-update layer.
//
// A *meta-graph* is the state of one step: the current graph (the host)
// plus every candidate graph, each embedded by one GNN call. It has two
// encodings that give bit-identical graph embeddings:
//
//   * full    — the disjoint union of all members, one row per node of
//               each (encode_meta_graph, Meta_encoder::encode). The PPO
//               tape trains on this form.
//   * compact — the host's rows once, plus, per candidate, rows only for
//               its dirty nodes (Meta_encoder::encode_compact). A node is
//               dirty when it lies within `hops` dataflow hops downstream
//               of a changed node: one not alive in the host, or whose
//               kind or input-edge shapes differ from the host node with
//               the same id. A node that differs only in which nodes feed
//               it counts as one hop below a change (its node-update row is
//               the host's). A dirty row's edges from clean producers point
//               at the host's rows, and the readout pools each member's
//               rows through an explicit row list. Behaviour-time
//               inference (Agent::act) runs on this form.
//
// The compact form is exact, not approximate. A node's row after the node
// update and `hops` GAT layers depends only on the nodes at most `hops`
// hops upstream of it, so a clean node's row is the host's. Every kernel
// computes a row, or a destination's segment (its inputs in input order,
// then the self loop), independently of the others. And the readout sums
// each member's rows in that member's own topological order in both forms.
// The distances come from one pass over each candidate in topological
// order (topo_walk), with no Rewrite_delta, so a candidate is covered
// whatever its rule reports. A candidate is read as a Graph or as host plus
// overlay (Graph_reader), the environment's form, which is never copied:
// a node the overlay reads through to the host is the host's own Node, and
// an edge between two such nodes carries the host's shape, uncompared.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/graph.h"
#include "ir/graph_overlay.h"
#include "tensor/tensor.h"

namespace xrl {

constexpr std::int64_t edge_feature_dim = 4;
constexpr float edge_normaliser = 4096.0F; ///< Paper Table 4: M.

/// GNN input as kinds and shapes (the one-hot expansion happens inside the
/// encoder).
struct Encoded_graph {
    std::vector<std::int32_t> node_kinds;       ///< N: operator-kind index per node.
    Tensor edge_features;                       ///< E x 4: normalised shapes.
    std::vector<std::int64_t> edge_src;         ///< E: producer node row.
    std::vector<std::int64_t> edge_dst;         ///< E: consumer node row.
    std::vector<std::int64_t> attn_src;         ///< E + N: dataflow + self loops.
    std::vector<std::int64_t> attn_dst;
    /// Readout entries: every node of every member, member by member, each
    /// member in its own topological order. node_graph holds the entry's
    /// member; readout_rows the row that carries it, or is empty when entry
    /// i is row i (the full encoding, where the row list is the identity).
    std::vector<std::int64_t> node_graph;
    std::vector<std::int64_t> readout_rows;
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

/// Reusable meta-graph encoder for the rollout hot loop. encode() produces
/// exactly the Encoded_graph encode_meta_graph would (bit-identical — the
/// parity test in test_gnn holds it to that); encode_compact() produces the
/// compact form. The output vectors and the row-mapping scratch persist
/// across calls, so a steady-state step reuses warm buffers instead of
/// reallocating the whole encoding. Single-owner, like the candidate engine.
class Meta_encoder {
public:
    /// Encode one state in full: `current` and its candidates, each read as
    /// a Graph or as host plus overlay (the environment's candidates, whose
    /// host is `current`). The returned reference is invalidated by the
    /// next encode() call; copy it (e.g. into a PPO transition) to keep it.
    const Encoded_graph& encode(const Graph& current, std::span<const Graph_reader> candidates);
    const Encoded_graph& encode(const Graph& current,
                                const std::vector<const Graph*>& candidates);

    /// Encode one state compactly for a GNN of `hops` GAT layers
    /// (Gnn_config::num_gat_layers). The returned reference is invalidated
    /// by the next encode_compact() call.
    const Encoded_graph& encode_compact(const Graph& current,
                                        std::span<const Graph_reader> candidates, int hops);
    const Encoded_graph& encode_compact(const Graph& current,
                                        const std::vector<const Graph*>& candidates, int hops);

private:
    /// `graphs` as readers, in readers_.
    std::span<const Graph_reader> readers(const std::vector<const Graph*>& graphs);

    Encoded_graph full_;
    Encoded_graph compact_;
    std::vector<float> edge_rows_;
    std::vector<Graph_reader> readers_;
    std::vector<std::int64_t> row_of_;      ///< Node_id -> row scratch of the member in hand.
    std::vector<std::int64_t> host_row_of_; ///< Node_id -> the host's row (compact form).
    std::vector<int> distance_;             ///< Node_id -> first layer its row can differ.
    std::vector<std::uint8_t> shared_;      ///< Node_id -> the host's own Node object.
};

} // namespace xrl
