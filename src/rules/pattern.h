// Subgraph pattern matching and substitution.
//
// A Pattern is a pair of small graphs (source, target) over shared
// variables, exactly as in TASO's rewrite rules (paper Figure 2): applying
// a rule means pattern-matching the source against the host computation
// graph and splicing in the target. Variables are `input` nodes; the i-th
// variable of the target binds to whatever matched the i-th variable of the
// source.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/graph.h"
#include "ir/graph_overlay.h"
#include "ir/op.h"

namespace xrl {

/// How a source-pattern node's parameters participate in matching.
enum class Param_match : std::uint8_t {
    exact,   ///< Host params must equal the pattern node's params.
    ignore,  ///< Any params match (geometry wildcards, e.g. conv stride).
};

/// Copy parameters from a matched source node into a target node when the
/// target is instantiated; optionally overriding the fused activation.
struct Param_transfer {
    Node_id from_source_node = invalid_node;
    std::optional<Activation> set_activation;
};

/// A rewrite pattern. Invariants: `source` and `target` have the same number
/// of variables (input nodes, matched by order of node id) and the same
/// number of outputs.
struct Pattern {
    std::string name;
    Graph source;
    Graph target;

    /// Per source node id: matching mode (defaults to exact).
    std::unordered_map<Node_id, Param_match> param_modes;

    /// When a source node's params are ignored, optionally still require its
    /// fused activation to equal this value.
    std::unordered_map<Node_id, Activation> required_activation;

    /// Pairs of source nodes whose matched host params must be equal
    /// (e.g. two convolutions with identical geometry).
    std::vector<std::pair<Node_id, Node_id>> equal_params;

    /// Per target node id: params copied from the matched source node.
    std::unordered_map<Node_id, Param_transfer> param_transfers;

    /// Ordered variable lists (computed by finalise()).
    std::vector<Node_id> source_variables;
    std::vector<Node_id> target_variables;

    /// Topological order of `target` (computed by finalise()): the pattern
    /// is immutable after construction, so the substitution hot path reads
    /// this instead of re-sorting the target per materialised candidate.
    std::vector<Node_id> target_order;

    /// Validate structure and compute the variable lists. Call once after
    /// construction.
    void finalise();
};

/// A successful match of a pattern source against a host graph. Bindings
/// are flat vectors sorted by pattern node id — stable op ids, never
/// pointers or hash-map iteration order — so every consumer (fingerprints,
/// materialisation order, the binding key) is deterministic by
/// construction, independent of allocator behaviour.
struct Pattern_match {
    /// Source variable node -> host edge bound to it; sorted by first.
    std::vector<std::pair<Node_id, Edge>> var_bindings;
    /// Source internal node -> host node; sorted by first.
    std::vector<std::pair<Node_id, Node_id>> node_map;
    /// match_binding_key of the two maps, filled by the matcher (which
    /// already computes it for its own dedup); the candidate engine reuses
    /// it for fingerprints instead of rehashing.
    std::uint64_t binding_key = 0;

    /// Host edge bound to a source variable, or nullptr when unbound.
    const Edge* find_var(Node_id source_var) const;
    /// Host node matched to a source internal node, or invalid_node.
    Node_id mapped_node(Node_id source_node) const;
};

/// Order-independent 64-bit key over a match's bindings (both sorted by
/// pattern node id). One definition serves both the matcher's own dedup of
/// matches reached via different search orders and the candidate engine's
/// pre-materialisation fingerprints — the two must never diverge.
std::uint64_t match_binding_key(const std::vector<std::pair<Node_id, Edge>>& var_bindings,
                                const std::vector<std::pair<Node_id, Node_id>>& node_map);

/// A splice point recorded by a rewrite: every use of `before` (an edge of
/// the pre-rewrite graph) was redirected to `after`.
struct Rewired_edge {
    Edge before;
    Edge after;

    bool operator==(const Rewired_edge&) const = default;
};

/// What one rewrite did to the host's node set, reported by
/// finalise_rewrite: exactly the information needed to patch a Host_index
/// in place instead of rebuilding it. Self-contained — the producer lists
/// are snapshotted from the pre-rewrite host, so the patch needs no access
/// to that graph (which the environment has already overwritten by the
/// time the next step's index is needed).
struct Rewrite_delta {
    /// Host ids (below the host's capacity) alive before the rewrite, dead
    /// after.
    std::vector<Node_id> removed;
    /// Appended ids (from the host's capacity on) that survived dead-node
    /// elimination, ascending.
    std::vector<Node_id> added;
    /// Producers of the removed nodes' inputs — every use list that may hold
    /// an entry whose user died (apply_delta filters exactly these, plus the
    /// rewired splice points, against the post-rewrite graph).
    std::vector<Node_id> stale_use_producers;
    /// The splice points (uses moved from before.node to after.node).
    std::vector<Rewired_edge> rewired;
    /// True when incremental shape inference held: every node the host and
    /// the result share kept its shapes, so only the added nodes' shapes
    /// (and costs) are new. False when the full pass ran.
    bool shapes_local = false;
    /// False: the producer did not describe the change (a failed build);
    /// the index must be rebuilt.
    bool valid = false;

    bool operator==(const Rewrite_delta&) const = default;
};

/// Per-host acceleration structure, shareable across every rule matched
/// against the same graph within one candidate-generation step: alive node
/// ids bucketed by operator kind (so root enumeration visits only
/// kind-compatible nodes) plus the host's use lists (the matcher's
/// outside-use check). Invalidated by any mutation of the host — except
/// via apply_delta, which patches buckets and use lists in place from a
/// Rewrite_delta and is equivalent to a from-scratch rebuild (the A/B gate
/// in test_incremental_index proves exact equality).
class Host_index {
public:
    /// Empty index; call rebuild() before use.
    Host_index() = default;
    explicit Host_index(const Graph& host) { rebuild(host); }

    /// Recompute from scratch, reusing this instance's storage.
    void rebuild(const Graph& host);

    /// Patch buckets and use lists for one rewrite step: `new_host` is the
    /// post-rewrite graph (same id space grown by the appended nodes),
    /// `delta` the change finalise_rewrite reported. Produces bit-identical
    /// state to rebuild(new_host).
    void apply_delta(const Graph& new_host, const Rewrite_delta& delta);

    /// Exact structural equality (the incremental-vs-rebuild parity check).
    bool equals(const Host_index& other) const
    {
        return by_kind_ == other.by_kind_ && users_ == other.users_;
    }

    const std::vector<Node_id>& of_kind(Op_kind kind) const
    {
        return by_kind_[static_cast<std::size_t>(kind)];
    }

    const std::vector<std::vector<Edge_use>>& users() const { return users_; }

private:
    std::array<std::vector<Node_id>, static_cast<std::size_t>(Op_kind::count_)> by_kind_;
    std::vector<std::vector<Edge_use>> users_;
    /// Kind per id slot — tombstoning wipes a node's kind from the graph,
    /// so bucket removal must remember it here.
    std::vector<Op_kind> kind_of_;
    /// Scratch for apply_delta (ids whose use lists need re-sorting).
    std::vector<Node_id> touched_;
};

/// What the rewrite epilogue reads about one host instead of walking the
/// whole host again for every candidate built from it. Per alive node: its
/// canonical-hash term (node_hash, so a candidate rehashes only what its
/// splice changed) and its depth, the longest input path from a source
/// (which bounds the cycle check to the splice). For the graph: its
/// canonical hash, and the alive non-input nodes its outputs do not reach —
/// pre-DCE clutter, which dead-node elimination drops from every candidate.
/// Built once per host on the caller's thread, then read-only, so
/// concurrent builds share it (docs/CONCURRENCY.md).
class Host_memo {
public:
    /// Empty memo; call rebuild() before use.
    Host_memo() = default;
    explicit Host_memo(const Graph& host) { rebuild(host); }

    /// Recompute from scratch, reusing this instance's storage. `host` must
    /// be acyclic.
    void rebuild(const Graph& host);

    std::uint64_t canonical_hash() const { return canonical_hash_; }
    std::uint64_t term(Node_id id) const { return facts_[static_cast<std::size_t>(id)].term; }
    std::int32_t depth(Node_id id) const { return facts_[static_cast<std::size_t>(id)].depth; }
    bool unreachable(Node_id id) const { return facts_[static_cast<std::size_t>(id)].unreachable; }
    /// The unreachable nodes, ascending.
    const std::vector<Node_id>& unreachable_ids() const { return unreachable_; }

private:
    struct Node_facts {
        std::uint64_t term = 0;
        std::int32_t depth = -1; ///< -1: not yet visited (or a tombstone).
        bool unreachable = false;
    };

    std::vector<Node_facts> facts_;
    std::vector<Node_id> unreachable_;
    std::uint64_t canonical_hash_ = 0;
    std::vector<std::pair<Node_id, std::uint32_t>> stack_; ///< rebuild() scratch.
};

/// One host as a rewrite's build reads it: the graph, its Host_index and its
/// Host_memo, all three describing the same graph.
struct Host_view {
    const Graph& graph;
    const Host_index& index;
    const Host_memo& memo;
};

/// Find (up to `limit`) matches of `pattern.source` in `host`.
///
/// Enforced conditions: operator kinds and arities agree; params agree per
/// `param_modes`/`equal_params`; the mapping is injective on internal
/// nodes; matched internal nodes that do not produce a pattern output have
/// no uses outside the match (TASO's substitution condition).
std::vector<Pattern_match> find_matches(const Graph& host, const Pattern& pattern,
                                        std::size_t limit = SIZE_MAX);

/// Index-reusing variant: `index` must have been built from `host`. The
/// candidate engine builds the index once per step and matches the whole
/// rule corpus against it.
std::vector<Pattern_match> find_matches(const Graph& host, const Host_index& index,
                                        const Pattern& pattern, std::size_t limit = SIZE_MAX);

/// Splice `pattern.target` into `host` at `match`.
///
/// Returns the transformed graph (shapes inferred, dead nodes removed,
/// validated), or std::nullopt when the transformation is structurally
/// invalid at this site (shape inference failure or a cycle).
std::optional<Graph> apply_match(const Graph& host, const Pattern& pattern,
                                 const Pattern_match& match);

/// The splice alone (Pattern_rule's Rewrite_rule::splice): appends
/// `pattern.target` to `out`, an unedited overlay on `host.graph`, and
/// redirects the matched outputs' uses to it — found through the host's use
/// lists, so no host node is scanned or copied but the ones redirected —
/// recording the redirected edges in `rewired`. Returns false when
/// instantiation rejects the site; finalise_rewrite does the rest.
bool splice_match(Graph_overlay& out, const Host_view& host, const Pattern& pattern,
                  const Pattern_match& match, std::vector<Rewired_edge>& rewired);

/// The shared epilogue of every rewrite (Rewrite_rule::build). `g` is an
/// overlay on `host.graph` edited only by appending nodes and redirecting
/// the `rewired` edges; no host node's kind, params or payload changed.
/// Performs the cycle check, dead-node elimination (tombstones in the
/// overlay), shape inference — incrementally over the appended nodes when
/// every splice keeps the shape it replaced, the full pass otherwise —
/// validation, and optionally the canonical hash and the node-set delta
/// relative to the host (for incremental index upkeep and delta pricing).
///
/// Every step but a failed incremental shape inference is local to the
/// splice, read from `host`'s index and memo: the cycle check follows only
/// paths through redirected slots, no deeper than their shallowest user;
/// dead nodes cascade from the redirected producers over the use lists,
/// plus the memo's unreachable nodes; validation covers the appended nodes
/// and the redirected users; the hash recomputes only appended nodes and
/// the host nodes downstream of a redirected slot, each reading its params
/// block's cached hash. Debug builds also materialise the splice, run
/// finalise_rewrite_full on it and assert that `g` materialises to the same
/// graph bytes, with the same hash and delta.
///
/// Returns false (overlay state unspecified) when the rewrite is
/// structurally invalid at this site.
bool finalise_rewrite(Graph_overlay& g, const Host_view& host,
                      const std::vector<Rewired_edge>& rewired,
                      std::uint64_t* canonical_hash_out = nullptr,
                      Rewrite_delta* delta_out = nullptr);

/// The same epilogue from whole-graph passes on a materialised candidate
/// (is_acyclic, eliminate_dead_nodes, a scan of the id space for the delta,
/// validate, canonical_hash): the reference finalise_rewrite is checked
/// against. `g` is `host` with the splice's edits applied.
bool finalise_rewrite_full(Graph& g, const Graph& host, const std::vector<Rewired_edge>& rewired,
                           std::uint64_t* canonical_hash_out = nullptr,
                           Rewrite_delta* delta_out = nullptr);

} // namespace xrl
