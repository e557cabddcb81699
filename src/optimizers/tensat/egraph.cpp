#include "optimizers/tensat/egraph.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "ir/shape_inference.h"
#include "support/check.h"

namespace xrl {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 0x100000001b3ULL;
}

} // namespace

bool enode_equal(const E_node& a, const E_node& b)
{
    return a.kind == b.kind && a.params == b.params && a.children == b.children &&
           a.leaf_id == b.leaf_id && a.proj_port == b.proj_port && a.payload == b.payload;
}

std::uint64_t enode_hash(const E_node& n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = mix(h, static_cast<std::uint64_t>(n.kind));
    h = mix(h, n.params.hash());
    for (const Eclass_id c : n.children) h = mix(h, static_cast<std::uint64_t>(c));
    h = mix(h, static_cast<std::uint64_t>(n.leaf_id + 1));
    h = mix(h, static_cast<std::uint64_t>(n.proj_port + 1));
    h = mix(h, reinterpret_cast<std::uintptr_t>(n.payload.get()));
    return h;
}

Eclass_id E_graph::find(Eclass_id id) const
{
    while (parent_[static_cast<std::size_t>(id)] != id) {
        // Path halving.
        parent_[static_cast<std::size_t>(id)] =
            parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(id)])];
        id = parent_[static_cast<std::size_t>(id)];
    }
    return id;
}

E_node E_graph::canonicalise(E_node node) const
{
    for (Eclass_id& c : node.children) c = find(c);
    return node;
}

std::vector<Shape> E_graph::infer_enode_shapes(const E_node& node) const
{
    if (node.proj_port >= 0) {
        XRL_EXPECTS(node.children.size() == 1);
        const auto& tuple_shapes = class_shapes(node.children[0]);
        XRL_EXPECTS(node.proj_port < static_cast<std::int32_t>(tuple_shapes.size()));
        return {tuple_shapes[static_cast<std::size_t>(node.proj_port)]};
    }
    if (is_source(node.kind)) {
        if (node.kind == Op_kind::constant) {
            XRL_EXPECTS(node.payload != nullptr);
            return {node.payload->shape()};
        }
        return {node.leaf_shape};
    }
    // Build a throwaway graph: one input per child carrying the child's
    // (single-output) shape, then the node itself; reuse shape inference.
    Graph g;
    std::vector<Edge> inputs;
    inputs.reserve(node.children.size());
    for (const Eclass_id c : node.children) {
        const auto& child_shapes = class_shapes(c);
        XRL_EXPECTS(child_shapes.size() == 1);
        const Node_id in = g.add_node(Op_kind::input, {});
        g.node_mut(in).output_shapes = {child_shapes.front()};
        inputs.push_back({in, 0});
    }
    const Node_id id = g.add_node(node.kind, std::move(inputs), node.params);
    return infer_output_shapes(g, id);
}

Eclass_id E_graph::add(E_node node)
{
    node = canonicalise(node);
    const std::uint64_t h = enode_hash(node);
    const auto bucket = hashcons_.find(h);
    if (bucket != hashcons_.end()) {
        for (const auto& [existing, cls] : bucket->second)
            if (enode_equal(existing, node)) return find(cls);
    }
    const std::vector<Shape> shapes = infer_enode_shapes(node);
    const auto id = static_cast<Eclass_id>(parent_.size());
    parent_.push_back(id);
    nodes_.push_back({node});
    shapes_.push_back(shapes);
    hashcons_[h].emplace_back(std::move(node), id);
    return id;
}

bool E_graph::merge(Eclass_id a, Eclass_id b)
{
    a = find(a);
    b = find(b);
    if (a == b) return false;
    // Equivalent values must agree on shape — a safety net against unsound
    // rewrites.
    XRL_EXPECTS(shapes_[static_cast<std::size_t>(a)] == shapes_[static_cast<std::size_t>(b)]);
    if (nodes_[static_cast<std::size_t>(a)].size() < nodes_[static_cast<std::size_t>(b)].size())
        std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
    auto& na = nodes_[static_cast<std::size_t>(a)];
    auto& nb = nodes_[static_cast<std::size_t>(b)];
    na.insert(na.end(), std::make_move_iterator(nb.begin()), std::make_move_iterator(nb.end()));
    nb.clear();
    dirty_ = true;
    return true;
}

void E_graph::rebuild()
{
    if (!dirty_) return;
    // Whole-graph repair: recanonicalise every e-node, dedup within class,
    // re-hashcons globally, merging classes that now share a node. Repeat
    // until a fixpoint (upward merging).
    bool changed = true;
    while (changed) {
        changed = false;
        hashcons_.clear();
        for (std::size_t cls = 0; cls < nodes_.size(); ++cls) {
            if (find(static_cast<Eclass_id>(cls)) != static_cast<Eclass_id>(cls)) continue;
            auto& list = nodes_[cls];
            std::vector<E_node> unique_nodes;
            for (E_node& n : list) {
                E_node canon = canonicalise(std::move(n));
                bool duplicate = false;
                for (const E_node& u : unique_nodes)
                    if (enode_equal(u, canon)) {
                        duplicate = true;
                        break;
                    }
                if (!duplicate) unique_nodes.push_back(std::move(canon));
            }
            list = std::move(unique_nodes);
        }
        for (std::size_t cls = 0; cls < nodes_.size(); ++cls) {
            if (find(static_cast<Eclass_id>(cls)) != static_cast<Eclass_id>(cls)) continue;
            for (const E_node& n : nodes_[cls]) {
                const std::uint64_t h = enode_hash(n);
                auto& bucket = hashcons_[h];
                bool merged_here = false;
                for (const auto& [existing, other] : bucket) {
                    if (enode_equal(existing, n) && find(other) != static_cast<Eclass_id>(cls)) {
                        merge(static_cast<Eclass_id>(cls), other);
                        changed = true;
                        merged_here = true;
                        break;
                    }
                }
                if (!merged_here) bucket.emplace_back(n, static_cast<Eclass_id>(cls));
            }
            if (changed) break; // class list mutated by merge; restart scan
        }
    }
    dirty_ = false;
}

std::size_t E_graph::num_classes() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < parent_.size(); ++i)
        if (find(static_cast<Eclass_id>(i)) == static_cast<Eclass_id>(i)) ++count;
    return count;
}

std::size_t E_graph::num_nodes() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (find(static_cast<Eclass_id>(i)) == static_cast<Eclass_id>(i)) count += nodes_[i].size();
    return count;
}

const std::vector<E_node>& E_graph::class_nodes(Eclass_id id) const
{
    return nodes_[static_cast<std::size_t>(find(id))];
}

const std::vector<Shape>& E_graph::class_shapes(Eclass_id id) const
{
    return shapes_[static_cast<std::size_t>(find(id))];
}

std::vector<Eclass_id> E_graph::canonical_classes() const
{
    std::vector<Eclass_id> out;
    for (std::size_t i = 0; i < parent_.size(); ++i)
        if (find(static_cast<Eclass_id>(i)) == static_cast<Eclass_id>(i))
            out.push_back(static_cast<Eclass_id>(i));
    return out;
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

Egraph_encoding encode_graph(const Graph& graph)
{
    Egraph_encoding enc;
    // Per (node, port): e-class carrying that value.
    std::unordered_map<std::int64_t, Eclass_id> value_class;
    auto key = [](Node_id node, std::int32_t port) {
        return (static_cast<std::int64_t>(node) << 8) | port;
    };

    for (const Node_id id : graph.topo_order()) {
        const Node& n = graph.node(id);
        E_node enode;
        enode.kind = n.kind;
        enode.params = n.params;
        if (is_source(n.kind)) {
            enode.leaf_id = id;
            if (n.kind == Op_kind::constant)
                enode.payload = n.payload;
            else
                enode.leaf_shape = n.output_shapes.front();
        } else {
            for (const Edge& e : n.inputs)
                enode.children.push_back(value_class.at(key(e.node, e.port)));
        }
        const Eclass_id cls = enc.egraph.add(std::move(enode));

        if (num_outputs(n) == 1) {
            value_class[key(id, 0)] = cls;
        } else {
            for (std::int32_t port = 0; port < num_outputs(n); ++port) {
                E_node proj;
                proj.kind = Op_kind::identity;
                proj.children = {cls};
                proj.proj_port = port;
                value_class[key(id, port)] = enc.egraph.add(std::move(proj));
            }
        }
    }
    for (const Edge& e : graph.outputs()) enc.roots.push_back(value_class.at(key(e.node, e.port)));
    return enc;
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

namespace {

/// Isolated cost of instantiating one e-node (0 for projections/leaves).
double enode_cost_ms(const E_graph& eg, const E_node& n, const Cost_model& cost)
{
    if (n.proj_port >= 0 || is_source(n.kind)) return 0.0;
    Graph g;
    std::vector<Edge> inputs;
    for (const Eclass_id c : n.children) {
        const auto& shapes = eg.class_shapes(c);
        const Node_id in = g.add_node(Op_kind::input, {});
        g.node_mut(in).output_shapes = {shapes.front()};
        inputs.push_back({in, 0});
    }
    const Node_id id = g.add_node(n.kind, std::move(inputs), n.params);
    g.node_mut(id).output_shapes = infer_output_shapes(g, id);
    return cost.op_cost_ms(g, id);
}

} // namespace

std::optional<Graph> extract_best(const E_graph& eg, const std::vector<Eclass_id>& roots,
                                  const Cost_model& cost)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const auto classes = eg.canonical_classes();

    // Dense maps keyed by canonical class id.
    std::unordered_map<Eclass_id, double> best_cost;
    std::unordered_map<Eclass_id, const E_node*> best_node;
    for (const Eclass_id c : classes) best_cost[c] = inf;

    // Fixpoint iteration (greedy bottom-up costs; handles the DAG/cycle
    // structure of e-graphs safely).
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Eclass_id c : classes) {
            for (const E_node& n : eg.class_nodes(c)) {
                double total = enode_cost_ms(eg, n, cost);
                bool feasible = true;
                for (const Eclass_id child : n.children) {
                    const double child_cost = best_cost[eg.find(child)];
                    if (child_cost == inf) {
                        feasible = false;
                        break;
                    }
                    total += child_cost;
                }
                if (!feasible) continue;
                if (total < best_cost[c] - 1e-12) {
                    best_cost[c] = total;
                    best_node[c] = &n;
                    changed = true;
                }
            }
        }
    }

    for (const Eclass_id r : roots)
        if (best_cost[eg.find(r)] == inf) return std::nullopt;

    // Materialise the chosen derivation.
    Graph out;
    std::unordered_map<Eclass_id, Edge> built;

    // Recursive build with explicit stack (post-order).
    std::function<Edge(Eclass_id)> build = [&](Eclass_id c) -> Edge {
        c = eg.find(c);
        const auto it = built.find(c);
        if (it != built.end()) return it->second;
        const E_node& n = *best_node.at(c);

        Edge result;
        if (n.proj_port >= 0) {
            const Edge tuple = build(n.children[0]);
            result = Edge{tuple.node, n.proj_port};
        } else if (is_source(n.kind)) {
            Node_id id;
            if (n.kind == Op_kind::constant) {
                id = out.add_node(Op_kind::constant, {});
                out.node_mut(id).payload = n.payload;
            } else {
                id = out.add_node(n.kind, {});
                out.node_mut(id).output_shapes = {n.leaf_shape};
            }
            result = Edge{id, 0};
        } else {
            std::vector<Edge> inputs;
            inputs.reserve(n.children.size());
            for (const Eclass_id child : n.children) inputs.push_back(build(child));
            const Node_id id = out.add_node(n.kind, std::move(inputs), n.params);
            result = Edge{id, 0};
        }
        built.emplace(c, result);
        return result;
    };

    std::vector<Edge> outputs;
    outputs.reserve(roots.size());
    for (const Eclass_id r : roots) outputs.push_back(build(r));
    out.set_outputs(std::move(outputs));
    out.infer_shapes();
    out.validate();
    return out;
}

} // namespace xrl
