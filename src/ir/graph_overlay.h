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

private:
    const Graph* graph_ = nullptr;
    const Graph_overlay* overlay_ = nullptr;
};

} // namespace xrl
