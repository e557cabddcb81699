// A rewrite's candidate as edits on its host graph.
//
// A candidate differs from its host only around the splice: a few appended
// nodes, a few host nodes whose input slots were redirected, and the nodes
// the rewrite left dead. A Graph_overlay records exactly that and reads
// every other node through to the host, so building a candidate costs
// O(splice) instead of a whole-host copy. materialise() turns it into the
// Graph a host copy with the same edits would be — same ids, bytes and
// hash — for the callers that need a graph.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "support/check.h"

namespace xrl {

class Graph_overlay {
public:
    /// Start over as an unedited overlay on `host`, reusing this overlay's
    /// storage. `host` must stay alive and unchanged while the overlay is
    /// read or materialised.
    void reset(const Graph& host);

    const Graph& host() const { return *host_; }

    // -- edits ----------------------------------------------------------------

    /// Append a node, ids from the host's capacity on. The contract of
    /// Graph::add_node: inputs must reference alive nodes.
    Node_id add_node(Op_kind kind, std::vector<Edge> inputs, Shared_params params = {},
                     std::string name = "");

    /// Append a `constant` node carrying `value`.
    Node_id add_constant(Tensor value, std::string name = "");

    /// Redirect every use of `from` (graph outputs included) to `to`. The
    /// host nodes that read `from` are found through `host_users`, the
    /// host's use lists (Host_index::users()), and copied on write; appended
    /// and already-copied nodes are edited in place.
    void replace_all_uses(Edge from, Edge to,
                          const std::vector<std::vector<Edge_use>>& host_users);

    /// Tombstone `dead` (ascending, alive, no sources of kind input), which
    /// the caller proved to be exactly the nodes Graph::eliminate_dead_nodes
    /// would drop from the materialised candidate.
    void erase_dead_nodes(const std::vector<Node_id>& dead);

    /// Graph::infer_shapes_appended over the appended nodes.
    bool infer_shapes_appended();

    /// Graph::infer_shapes: every alive node's shapes, host nodes whose
    /// shapes change copied on write. Materialises the candidate into a
    /// scratch graph; the rewrite epilogue runs it only when a splice
    /// changed the shape of the edge it replaced.
    void infer_shapes();

    /// The checks Graph::validate(false) makes, restricted to the alive
    /// nodes `ids` and the outputs: for a candidate whose other nodes are
    /// the checked host's, unchanged.
    void validate_nodes(const std::vector<Node_id>& ids) const;

    // -- access ---------------------------------------------------------------

    /// The first appended id: the host's capacity.
    Node_id first_appended() const { return first_; }

    /// Total id slots: the host's plus the appended ones.
    std::size_t capacity() const { return static_cast<std::size_t>(first_) + appended_.size(); }

    /// Number of alive nodes.
    std::size_t size() const { return host_->size() + appended_.size() - dead_.size(); }

    bool is_alive(Node_id id) const
    {
        if (id < 0 || static_cast<std::size_t>(id) >= capacity()) return false;
        if (id < first_ && host_->alive_[static_cast<std::size_t>(id)] == 0) return false;
        return dead_.empty() || !std::binary_search(dead_.begin(), dead_.end(), id);
    }

    const Node& node(Node_id id) const
    {
        XRL_EXPECTS(is_alive(id));
        return stored(id);
    }

    const Shape& shape_of(Edge edge) const;
    const std::vector<Edge>& outputs() const { return outputs_; }

    /// Call `visit(id, node)` for every alive node, ascending id: one merge
    /// of the host's nodes with the copies and tombstones, no per-id lookup.
    template <typename Visit>
    void for_each_node(const Visit& visit) const
    {
        std::size_t copy = 0; // next copy_ids_ entry
        std::size_t dead = 0; // next dead_ entry
        const auto take = [](const std::vector<Node_id>& ids, std::size_t& next, Node_id id) {
            if (next == ids.size() || ids[next] != id) return false;
            ++next;
            return true;
        };
        for (Node_id id = 0; id < first_; ++id) {
            const auto i = static_cast<std::size_t>(id);
            const bool copied = take(copy_ids_, copy, id);
            if (take(dead_, dead, id) || host_->alive_[i] == 0) continue;
            visit(id, copied ? copies_[copy - 1] : host_->nodes_[i]);
        }
        for (std::size_t i = 0; i < appended_.size(); ++i) {
            const auto id = static_cast<Node_id>(first_ + static_cast<Node_id>(i));
            if (!take(dead_, dead, id)) visit(id, appended_[i]);
        }
    }

    /// Write the candidate into `out` (recycled storage): the host copied
    /// and every edit applied.
    void materialise(Graph& out) const;

    /// The materialised candidate. A whole-host copy: search paths call
    /// materialise() into recycled storage, and only for graphs they use.
    operator Graph() const; // NOLINT(google-explicit-constructor)

private:
    /// The node `id` reads as, without the alive check.
    const Node& stored(Node_id id) const
    {
        if (id >= first_) return appended_[static_cast<std::size_t>(id - first_)];
        const auto it = std::lower_bound(copy_ids_.begin(), copy_ids_.end(), id);
        if (it != copy_ids_.end() && *it == id)
            return copies_[static_cast<std::size_t>(it - copy_ids_.begin())];
        return host_->nodes_[static_cast<std::size_t>(id)];
    }
    /// Host node `id`'s copy, made on first write.
    Node& copy_on_write(Node_id id);

    const Graph* host_ = nullptr;
    Node_id first_ = 0;             ///< The host's capacity.
    std::vector<Node> appended_;    ///< Ids first_ on.
    std::vector<Node_id> copy_ids_; ///< Copied host nodes' ids, ascending.
    std::vector<Node> copies_;      ///< Their copies, parallel to copy_ids_.
    std::vector<Node_id> dead_;     ///< Tombstones, ascending.
    std::vector<Edge> outputs_;
};

/// Read access to one graph's nodes, whether a Graph or a Graph_overlay —
/// what per-node analyses (shape inference, cost terms) take, so a
/// candidate is checked and priced without being materialised.
class Graph_reader {
public:
    Graph_reader(const Graph& graph) : graph_(&graph) {} // NOLINT(google-explicit-constructor)
    Graph_reader(const Graph_overlay& overlay) // NOLINT(google-explicit-constructor)
        : overlay_(&overlay)
    {
    }

    const Node& node(Node_id id) const
    {
        return overlay_ != nullptr ? overlay_->node(id) : graph_->node(id);
    }

    const Shape& shape_of(Edge edge) const
    {
        return overlay_ != nullptr ? overlay_->shape_of(edge) : graph_->shape_of(edge);
    }

    std::size_t capacity() const
    {
        return overlay_ != nullptr ? overlay_->capacity() : graph_->capacity();
    }

    template <typename Visit>
    void for_each_node(const Visit& visit) const
    {
        if (overlay_ != nullptr) {
            overlay_->for_each_node(visit);
        } else {
            graph_->for_each_node(visit);
        }
    }

private:
    const Graph* graph_ = nullptr;
    const Graph_overlay* overlay_ = nullptr;
};

/// A graph's alive nodes in topological order, with the flat (CSR) use
/// lists the order was computed from and each id's node.
struct Topo_walk {
    /// By id: the node the graph reads as, null for a dead id.
    std::vector<const Node*> nodes;
    /// Kahn's order: the alive nodes without inputs by ascending id, then
    /// every node once its last input's producer has been taken, producers
    /// releasing their users in use-list order.
    std::vector<Node_id> order;
    /// uses[use_begin[id], use_begin[id + 1]) are node `id`'s uses, by
    /// ascending user id, then input slot (Graph::build_users' order).
    std::vector<std::int32_t> use_begin;
    std::vector<Edge_use> uses;

    std::span<const Edge_use> users(Node_id id) const
    {
        const auto i = static_cast<std::size_t>(id);
        return {uses.data() + use_begin[i], uses.data() + use_begin[i + 1]};
    }

    /// Alive node `id`, without the graph's lookup.
    const Node& node(Node_id id) const
    {
        const Node* n = nodes[static_cast<std::size_t>(id)];
        XRL_ASSERT(n != nullptr);
        return *n;
    }
};

/// The topological order Graph::topo_order returns, and the use lists, of
/// `graph` — a Graph or a candidate as host plus overlay. Computed into this
/// thread's reused scratch: valid until the next call on the same thread.
/// Throws Contract_violation if the graph has a cycle.
const Topo_walk& topo_walk(const Graph_reader& graph);

} // namespace xrl
