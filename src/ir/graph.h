// Computation-graph IR: a DAG of tensor operators.
//
// The same representation TASO exposes (§3.1 of the paper): operators are
// nodes, tensors are edges. Graphs have value semantics — the environment
// generates candidate graphs by copying and transforming them, exactly as
// the paper's candidate cache does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/op.h"
#include "tensor/tensor.h"

namespace xrl {

class Byte_writer; // support/record_file.h
class Byte_reader;

using Node_id = std::int32_t;
constexpr Node_id invalid_node = -1;

/// A tensor value: output `port` of node `node`.
struct Edge {
    Node_id node = invalid_node;
    std::int32_t port = 0;

    bool operator==(const Edge&) const = default;
};

/// One use of a value: input slot `input_index` of node `user`.
struct Edge_use {
    Node_id user = invalid_node;
    std::int32_t input_index = 0;

    bool operator==(const Edge_use&) const = default;
};

/// Immutable, structurally-shared list of a node's output shapes. Shape
/// inference replaces a node's shapes wholesale and never mutates them in
/// place, so graph copies share one allocation per node. A node's params
/// are shared the same way (Shared_params, ir/op.h), so the full-graph copy
/// behind every candidate materialisation copies handles, not contents (the
/// hot path of candidate generation).
class Shape_list {
public:
    Shape_list() = default;
    Shape_list(std::vector<Shape> shapes)
        : shapes_(shapes.empty()
                      ? nullptr
                      : std::make_shared<const std::vector<Shape>>(std::move(shapes)))
    {
    }
    Shape_list(std::initializer_list<Shape> shapes)
        : Shape_list(std::vector<Shape>(shapes))
    {
    }

    bool empty() const { return shapes_ == nullptr || shapes_->empty(); }
    std::size_t size() const { return shapes_ == nullptr ? 0 : shapes_->size(); }
    const Shape& front() const { return items().front(); }
    const Shape& operator[](std::size_t i) const { return items()[i]; }
    auto begin() const { return items().begin(); }
    auto end() const { return items().end(); }
    std::vector<Shape> to_vector() const { return items(); }

    /// Value equality against a freshly inferred shape vector — the
    /// keep-if-equal guard shape inference uses to preserve structural
    /// sharing across re-inference.
    bool equals(const std::vector<Shape>& other) const
    {
        return items() == other;
    }

    /// True when both lists share one allocation (not merely equal values).
    bool shares_storage_with(const Shape_list& other) const
    {
        return shapes_ != nullptr && shapes_ == other.shapes_;
    }

    /// Graphs referencing this list's allocation (0 for the empty list).
    long use_count() const { return shapes_ == nullptr ? 0 : shapes_.use_count(); }

private:
    const std::vector<Shape>& items() const
    {
        static const std::vector<Shape> none;
        return shapes_ == nullptr ? none : *shapes_;
    }

    std::shared_ptr<const std::vector<Shape>> shapes_;
};

/// An operator instance.
struct Node {
    Op_kind kind = Op_kind::input;
    Shared_params params;                   ///< Read as `params->field`.
    std::vector<Edge> inputs;
    Shape_list output_shapes;               ///< Filled by Graph::infer_shapes().
    std::shared_ptr<const Tensor> payload;  ///< Literal value for `constant` nodes.
    std::string name;                       ///< Optional debug label.
};

/// Number of output ports an op kind produces (split: one per piece).
std::int32_t num_outputs(const Node& node);

// -- canonical_hash, one node at a time ---------------------------------------
//
// Graph::canonical_hash is a Merkle hash: a node's term mixes its own
// prefix (kind and params) with its producers' terms. The functions below
// are its only definition, shared by Graph::canonical_hash and the rewrite
// epilogue's memoised hash (Host_memo), so the two cannot drift.

/// A node's own part of its term: its kind and params (whose hash the
/// params block caches).
inline std::uint64_t node_hash_prefix(const Node& node)
{
    return hash_combine(hash_combine(0x51edULL, static_cast<std::uint64_t>(node.kind)),
                        node.params.hash());
}

/// node_hash's tail: a constant's payload and a source's id.
std::uint64_t node_hash_finish(std::uint64_t partial, Node_id id, const Node& node);

/// A node's term from its prefix: each input's producer term and port,
/// then node_hash_finish. `producer_term(Node_id)` returns a producer's term.
template <typename Producer_term>
std::uint64_t node_hash(Node_id id, const Node& node, std::uint64_t prefix,
                        const Producer_term& producer_term)
{
    std::uint64_t h = prefix;
    for (const Edge& e : node.inputs) {
        h = hash_combine(h, producer_term(e.node));
        h = hash_combine(h, static_cast<std::uint64_t>(e.port));
    }
    return node_hash_finish(h, id, node);
}

/// The graph's hash from its output producers' terms.
template <typename Producer_term>
std::uint64_t outputs_hash(const std::vector<Edge>& outputs, const Producer_term& producer_term)
{
    std::uint64_t h = 0xabcdULL;
    for (const Edge& e : outputs) {
        h = hash_combine(h, producer_term(e.node));
        h = hash_combine(h, static_cast<std::uint64_t>(e.port));
    }
    return h;
}

/// Directed acyclic graph of operators with value semantics.
///
/// Node ids are stable: erasing leaves a tombstone so surviving ids keep
/// meaning across transformations (important for binding executor inputs
/// before/after a substitution).
class Graph {
public:
    // -- construction -------------------------------------------------------

    /// Pre-allocate node storage (rewrites know how many nodes they add).
    void reserve(std::size_t capacity);

    /// Release node storage reserved beyond the id space (for a graph that
    /// is kept, not rewritten further). Nodes move; none is copied.
    void shrink_to_fit();

    /// Append a node; inputs must reference alive nodes. Returns its id.
    /// `params` is another node's block (shared) or an Op_params (wrapped
    /// in a new block).
    Node_id add_node(Op_kind kind, std::vector<Edge> inputs, Shared_params params = {},
                     std::string name = "");

    /// Append a `constant` node carrying `value`.
    Node_id add_constant(Tensor value, std::string name = "");

    /// Declare the graph outputs (order is significant).
    void set_outputs(std::vector<Edge> outputs);
    const std::vector<Edge>& outputs() const { return outputs_; }

    // -- access -------------------------------------------------------------

    const Node& node(Node_id id) const;
    Node& node_mut(Node_id id);
    bool is_alive(Node_id id) const;

    /// Total id slots ever allocated (alive + tombstones).
    std::size_t capacity() const { return nodes_.size(); }

    /// Number of alive nodes.
    std::size_t size() const { return alive_count_; }

    /// Ids of all alive nodes, ascending.
    std::vector<Node_id> node_ids() const;

    /// Call `visit(id, node)` for every alive node, ascending id.
    template <typename Visit>
    void for_each_node(const Visit& visit) const
    {
        for (std::size_t i = 0; i < nodes_.size(); ++i)
            if (alive_[i] != 0) visit(static_cast<Node_id>(i), nodes_[i]);
    }

    /// Shape of the tensor carried by an edge (requires inferred shapes).
    const Shape& shape_of(Edge edge) const;

    /// Uses of every node's outputs: users()[id] lists (user, input_index).
    std::vector<std::vector<Edge_use>> build_users() const;

    // -- structure queries ---------------------------------------------------

    /// Alive nodes in topological order; throws if the graph has a cycle.
    std::vector<Node_id> topo_order() const;

    bool is_acyclic() const;

    /// Structural hash of the sub-DAG reachable from the outputs. Two graphs
    /// with equal hashes are treated as the same candidate by the
    /// environment's dedup cache.
    std::uint64_t canonical_hash() const;

    /// canonical_hash extended with the tensor shapes of every input and
    /// weight the outputs reach. canonical_hash is deliberately shape-blind
    /// — rewrite dedup happens within one host graph, where the sources are
    /// invariant — but caches keyed across *different* models (the
    /// optimization service's memo cache, the server's coalesce keys) must
    /// not collide a network with a structurally identical one at different
    /// widths. Equal canonical hashes plus equal source shapes imply equal
    /// model hashes, so canonically identical graphs never split keys.
    std::uint64_t model_hash() const;

    /// Per-id flags: reachable from the outputs through input edges (the
    /// sub-DAG canonical_hash / model_hash / DCE are defined over).
    std::vector<std::uint8_t> reachable_mask() const;

    /// Buffer-reusing variant: fills `reachable` in place.
    void reachable_mask(std::vector<std::uint8_t>& reachable) const;

    // -- mutation ------------------------------------------------------------

    /// Remove a node. Precondition: nothing uses its outputs.
    void erase_node(Node_id id);

    /// Drop nodes unreachable from the outputs; returns how many were
    /// removed. Source nodes (inputs) are kept even when unused so the
    /// external interface of the graph never changes.
    int eliminate_dead_nodes();

    /// Run shape inference over the whole graph in topological order.
    void infer_shapes();

    /// Incremental shape inference over the alive nodes with id >=
    /// `first_new`, in ascending id order. Correct for nodes appended after
    /// a copy (append order is topological among the new nodes). Returns
    /// false — leaving the graph unchanged for ids it did not reach — when
    /// some input's shape is missing, in which case the caller must fall
    /// back to the full pass.
    bool infer_shapes_appended(Node_id first_new);

    /// Check all invariants (edge validity, acyclicity, shapes if inferred);
    /// throws Contract_violation on failure. The rewrite epilogue passes
    /// `check_acyclic = false` because its own cycle check already ran.
    void validate(bool check_acyclic = true) const;

    /// Graphviz DOT rendering for debugging / documentation.
    std::string to_dot() const;

private:
    /// The bit-exact binary (de)serialiser (ir/graph_io.h) restores the id
    /// space — tombstones included — which no public mutation sequence can
    /// reproduce, so it works on the representation directly.
    friend void serialise_graph_binary(Byte_writer& out, const Graph& graph);
    friend Graph deserialise_graph_binary(Byte_reader& in);
    /// Graph_overlay::materialise applies its edits to the host copy in
    /// place, tombstones included.
    friend class Graph_overlay;

    void validate_node(std::size_t i) const;
    void validate_outputs() const;
    void tombstone(std::size_t i);

    std::vector<Node> nodes_;
    std::vector<std::uint8_t> alive_;
    std::vector<Edge> outputs_;
    std::size_t alive_count_ = 0;
};

} // namespace xrl
