// E-graph: the equality-saturation data structure used by Tensat
// (Yang et al., MLSys'21), the paper's second baseline (§2.2.1, Figure 8).
//
// E-classes group equivalent expressions; e-nodes are operators over
// e-class children. Rewrite rules are applied non-destructively (both sides
// coexist) until saturation or a node limit — the limit is the reason the
// paper notes Tensat "cannot guarantee that its optimised tensor graph
// structure is optimal".
//
// Multi-output operators (split) are represented by a tuple-valued e-class
// plus projection e-nodes selecting one port.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "ir/graph.h"

namespace xrl {

using Eclass_id = std::int32_t;

/// An operator over e-class operands.
struct E_node {
    Op_kind kind = Op_kind::input;
    Shared_params params;
    std::vector<Eclass_id> children;

    /// For leaves (input/weight): the originating graph node, preserving
    /// source identity through extraction.
    std::int64_t leaf_id = -1;

    /// For leaves: their shape (non-leaves infer from children).
    Shape leaf_shape;

    /// Constant payload (shared with the source graph).
    std::shared_ptr<const Tensor> payload;

    /// >= 0: this node projects output port `proj_port` of children[0]
    /// (a tuple-valued class). kind is ignored for projections.
    std::int32_t proj_port = -1;
};

bool enode_equal(const E_node& a, const E_node& b);
std::uint64_t enode_hash(const E_node& n);

class E_graph {
public:
    /// Add a node (children canonicalised). Returns the class containing it
    /// (existing class when hash-consing finds a duplicate). Computes and
    /// checks the class shape.
    Eclass_id add(E_node node);

    /// Canonical representative of a class.
    Eclass_id find(Eclass_id id) const;

    /// Union two classes; returns true when they were distinct. The graph
    /// becomes dirty until rebuild() restores congruence.
    bool merge(Eclass_id a, Eclass_id b);

    /// Restore the congruence invariant after merges (upward merging until
    /// fixpoint).
    void rebuild();

    std::size_t num_classes() const;
    std::size_t num_nodes() const;

    /// E-nodes of a (canonical) class.
    const std::vector<E_node>& class_nodes(Eclass_id id) const;

    /// Output shapes of the class value (size > 1 for tuple classes).
    const std::vector<Shape>& class_shapes(Eclass_id id) const;

    /// All canonical class ids.
    std::vector<Eclass_id> canonical_classes() const;

    /// Compute the shapes an e-node would produce (also used before add).
    std::vector<Shape> infer_enode_shapes(const E_node& node) const;

private:
    E_node canonicalise(E_node node) const;

    mutable std::vector<Eclass_id> parent_;
    std::vector<std::vector<E_node>> nodes_;   // indexed by class id; only roots own nodes
    std::vector<std::vector<Shape>> shapes_;   // indexed by class id (root authoritative)
    std::unordered_map<std::uint64_t, std::vector<std::pair<E_node, Eclass_id>>> hashcons_;
    bool dirty_ = false;
};

// ---------------------------------------------------------------------------
// Graph <-> e-graph conversion and extraction
// ---------------------------------------------------------------------------

struct Egraph_encoding {
    E_graph egraph;
    std::vector<Eclass_id> roots;  ///< One class per graph output.
};

/// Encode a computation graph into a fresh e-graph.
Egraph_encoding encode_graph(const Graph& graph);

/// Greedy minimum-cost extraction: per-class best e-node by (op cost + sum
/// of child class costs), iterated to fixpoint, then materialised as a
/// Graph. Returns std::nullopt if some root has no finite-cost derivation
/// (cannot happen for encodings of real graphs).
std::optional<Graph> extract_best(const E_graph& egraph, const std::vector<Eclass_id>& roots,
                                  const Cost_model& cost);

} // namespace xrl
