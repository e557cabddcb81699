#include "gnn/encoding.h"

#include <algorithm>

#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace xrl {

namespace {

/// The shape `edge` carries, read from `walk`'s node table.
const Shape& shape_of(const Topo_walk& walk, Edge edge)
{
    const Shape_list& shapes = walk.node(edge.node).output_shapes;
    XRL_EXPECTS(edge.port >= 0 && static_cast<std::size_t>(edge.port) < shapes.size());
    return shapes[static_cast<std::size_t>(edge.port)];
}

/// Append an edge's features: the carried tensor's shape, leading-padded
/// to rank 4 and normalised by M.
void append_edge_features(const Shape& shape, std::vector<float>& edge_rows)
{
    float padded[edge_feature_dim] = {0.0F, 0.0F, 0.0F, 0.0F};
    const std::size_t offset =
        shape.size() >= edge_feature_dim ? 0 : edge_feature_dim - shape.size();
    for (std::size_t d = 0; d < shape.size() && d + offset < edge_feature_dim; ++d)
        padded[d + offset] = static_cast<float>(shape[d]) / edge_normaliser;
    for (const float f : padded) edge_rows.push_back(f);
}

/// `row_of` is caller-provided scratch (Node_id -> meta-graph row) so the
/// hot loop's Meta_encoder can keep it warm across steps.
void append_graph(Encoded_graph& enc, const Graph_reader& graph, std::int64_t member,
                  std::vector<float>& edge_rows, std::vector<std::int64_t>& row_of)
{
    const Topo_walk& walk = topo_walk(graph);
    row_of.assign(walk.nodes.size(), -1);
    for (const Node_id id : walk.order) {
        row_of[static_cast<std::size_t>(id)] = enc.num_nodes;
        enc.node_kinds.push_back(static_cast<std::int32_t>(walk.node(id).kind));
        enc.node_graph.push_back(member);
        ++enc.num_nodes;
    }
    for (std::size_t i = 0; i < walk.nodes.size(); ++i) {
        if (walk.nodes[i] == nullptr) continue;
        const std::int64_t dst = row_of[i];
        for (const Edge& e : walk.nodes[i]->inputs) {
            const std::int64_t src = row_of[static_cast<std::size_t>(e.node)];
            XRL_ASSERT(src >= 0 && dst >= 0);
            enc.edge_src.push_back(src);
            enc.edge_dst.push_back(dst);
            append_edge_features(shape_of(walk, e), edge_rows);
        }
    }
}

/// The first GNN layer at which candidate node `mine`'s row can differ
/// from `theirs`, the host node of the same id (null when that id is not
/// alive in the host), on the node's own account, before any producer's
/// difference reaches it: 0 when the node update reads something else (no
/// host node, or another kind or other input-edge shapes); 1 when only its
/// producers are other nodes (the first GAT layer reads their rows);
/// `never` when it matches. `shared[p]` is 1 when the candidate's node p is
/// the host's own Node object, as a node an overlay reads through to the
/// host is: an edge from it to the same slot carries the host's shape, with
/// no comparison.
int own_change_layer(const Topo_walk& candidate, const Node& mine, const Graph& host,
                     const Node* theirs, const std::vector<std::uint8_t>& shared, int never)
{
    if (theirs == nullptr) return 0;
    if (mine.kind != theirs->kind || mine.inputs.size() != theirs->inputs.size()) return 0;
    bool rewired = false;
    for (std::size_t i = 0; i < mine.inputs.size(); ++i) {
        const Edge e = mine.inputs[i];
        const Edge h = theirs->inputs[i];
        const bool shared_edge = e == h && shared[static_cast<std::size_t>(e.node)] != 0;
        if (!shared_edge && shape_of(candidate, e) != host.shape_of(h)) return 0;
        rewired = rewired || e != h;
    }
    return rewired ? 1 : never;
}

/// `edge_rows` is copied (not moved) into the feature tensor so the
/// caller's buffer survives for the next encode.
void finalise(Encoded_graph& enc, const std::vector<float>& edge_rows)
{
    const auto num_edges = static_cast<std::int64_t>(enc.edge_src.size());
    enc.edge_features = Tensor(Shape{num_edges, edge_feature_dim}, edge_rows);
    // Attention connectivity: dataflow edges + one self loop per node so
    // every node attends at least to itself.
    enc.attn_src = enc.edge_src;
    enc.attn_dst = enc.edge_dst;
    for (std::int64_t i = 0; i < enc.num_nodes; ++i) {
        enc.attn_src.push_back(i);
        enc.attn_dst.push_back(i);
    }
}

void clear_encoding(Encoded_graph& enc)
{
    enc.node_kinds.clear();
    enc.node_graph.clear();
    enc.readout_rows.clear();
    enc.edge_src.clear();
    enc.edge_dst.clear();
    enc.attn_src.clear();
    enc.attn_dst.clear();
    enc.num_nodes = 0;
    enc.num_graphs = 0;
}

Histogram& encode_histogram()
{
    return Metrics_registry::global().histogram(
        "xrlflow_rollout_phase_us", "RL rollout time by phase", duration_us_buckets(),
        {{"phase", "gnn_encode"}});
}

} // namespace

std::size_t Encoded_graph::memory_bytes() const
{
    return node_kinds.size() * sizeof(std::int32_t) +
           static_cast<std::size_t>(edge_features.volume()) * sizeof(float) +
           (edge_src.size() + edge_dst.size() + attn_src.size() + attn_dst.size() +
            node_graph.size() + readout_rows.size()) *
               sizeof(std::int64_t);
}

Encoded_graph encode_graph_for_gnn(const Graph& graph)
{
    Encoded_graph enc;
    std::vector<float> edge_rows;
    std::vector<std::int64_t> row_of;
    append_graph(enc, graph, 0, edge_rows, row_of);
    enc.num_graphs = 1;
    finalise(enc, edge_rows);
    return enc;
}

Encoded_graph encode_meta_graph(const Graph& current, const std::vector<const Graph*>& candidates)
{
    Meta_encoder encoder;
    return encoder.encode(current, candidates);
}

std::span<const Graph_reader> Meta_encoder::readers(const std::vector<const Graph*>& graphs)
{
    readers_.clear();
    for (const Graph* g : graphs) {
        XRL_EXPECTS(g != nullptr);
        readers_.emplace_back(*g);
    }
    return readers_;
}

const Encoded_graph& Meta_encoder::encode(const Graph& current,
                                          const std::vector<const Graph*>& candidates)
{
    return encode(current, readers(candidates));
}

const Encoded_graph& Meta_encoder::encode_compact(const Graph& current,
                                                  const std::vector<const Graph*>& candidates,
                                                  int hops)
{
    return encode_compact(current, readers(candidates), hops);
}

const Encoded_graph& Meta_encoder::encode(const Graph& current,
                                          std::span<const Graph_reader> candidates)
{
    static Histogram& phase_histogram = encode_histogram();
    const Scoped_timer_us timer(phase_histogram);
    const Span_scope span("rollout/gnn_encode");
    clear_encoding(full_);
    edge_rows_.clear();
    append_graph(full_, current, 0, edge_rows_, row_of_);
    for (std::size_t k = 0; k < candidates.size(); ++k)
        append_graph(full_, candidates[k], static_cast<std::int64_t>(k + 1), edge_rows_, row_of_);
    full_.num_graphs = static_cast<std::int64_t>(candidates.size()) + 1;
    finalise(full_, edge_rows_);
    return full_;
}

const Encoded_graph& Meta_encoder::encode_compact(const Graph& current,
                                                  std::span<const Graph_reader> candidates,
                                                  int hops)
{
    XRL_EXPECTS(hops >= 0);
    static Histogram& phase_histogram = encode_histogram();
    const Scoped_timer_us timer(phase_histogram);
    const Span_scope span("rollout/gnn_encode");
    Encoded_graph& enc = compact_;
    clear_encoding(enc);
    edge_rows_.clear();
    append_graph(enc, current, 0, edge_rows_, host_row_of_);
    for (std::int64_t row = 0; row < enc.num_nodes; ++row) enc.readout_rows.push_back(row);

    // A node's distance is the first layer at which its row can differ
    // from the host's: its own change layer, or one past a producer's
    // distance. Its final row, after `hops` GAT layers, is the host's
    // unless the distance is at most `hops`.
    const int clean = hops + 1;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        const Topo_walk& candidate = topo_walk(candidates[k]);
        const auto member = static_cast<std::int64_t>(k + 1);
        const std::size_t capacity = candidate.nodes.size();
        row_of_.assign(capacity, -1);
        distance_.assign(capacity, clean);
        shared_.assign(capacity, 0);
        // Topological order settles every producer's distance and row
        // before its consumers read them.
        for (const Node_id id : candidate.order) {
            const Node& n = candidate.node(id);
            const auto i = static_cast<std::size_t>(id);
            const Node* theirs = current.is_alive(id) ? &current.node(id) : nullptr;
            shared_[i] = &n == theirs ? 1 : 0;
            int distance = own_change_layer(candidate, n, current, theirs, shared_, clean);
            for (const Edge& e : n.inputs)
                distance = std::min(distance, distance_[static_cast<std::size_t>(e.node)] + 1);
            distance_[i] = distance;
            enc.node_graph.push_back(member);
            if (distance == clean) { // the host's row is this node's row
                enc.readout_rows.push_back(host_row_of_[i]);
                continue;
            }
            const std::int64_t row = enc.num_nodes++;
            row_of_[i] = row;
            enc.node_kinds.push_back(static_cast<std::int32_t>(n.kind));
            enc.readout_rows.push_back(row);
            for (const Edge& e : n.inputs) {
                const auto producer = static_cast<std::size_t>(e.node);
                const std::int64_t src =
                    row_of_[producer] >= 0 ? row_of_[producer] : host_row_of_[producer];
                XRL_ASSERT(src >= 0);
                enc.edge_src.push_back(src);
                enc.edge_dst.push_back(row);
                append_edge_features(shape_of(candidate, e), edge_rows_);
            }
        }
    }
    enc.num_graphs = static_cast<std::int64_t>(candidates.size()) + 1;
    finalise(enc, edge_rows_);
    return enc;
}

} // namespace xrl
