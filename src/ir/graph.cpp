#include "ir/graph.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "ir/graph_overlay.h"
#include "ir/shape_inference.h"
#include "support/check.h"

namespace xrl {

namespace {

std::uint64_t hash_payload(const Tensor& t)
{
    std::uint64_t h = 0xfeedULL;
    for (const std::int64_t d : t.shape()) h = hash_combine(h, static_cast<std::uint64_t>(d));
    for (std::int64_t i = 0; i < t.volume(); ++i) {
        // Quantise so that float noise does not defeat dedup of identical
        // constants.
        h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(t.at(i) * 1e6F)));
    }
    return h;
}

} // namespace

std::int32_t num_outputs(const Node& node)
{
    if (node.kind == Op_kind::split)
        return static_cast<std::int32_t>(node.params->split_sizes.size());
    return 1;
}

std::uint64_t node_hash_finish(std::uint64_t partial, Node_id id, const Node& node)
{
    std::uint64_t h = partial;
    if (node.kind == Op_kind::constant && node.payload != nullptr)
        h = hash_combine(h, hash_payload(*node.payload));
    if (node.kind == Op_kind::input || node.kind == Op_kind::weight) {
        // Source identity matters: two distinct inputs must not collide.
        h = hash_combine(h, static_cast<std::uint64_t>(id));
    }
    return h;
}

void Graph::reserve(std::size_t capacity)
{
    nodes_.reserve(capacity);
    alive_.reserve(capacity);
}

void Graph::shrink_to_fit()
{
    nodes_.shrink_to_fit();
    alive_.shrink_to_fit();
}

Node_id Graph::add_node(Op_kind kind, std::vector<Edge> inputs, Shared_params params,
                        std::string name)
{
    for (const Edge& e : inputs) {
        XRL_EXPECTS(is_alive(e.node));
        XRL_EXPECTS(e.port >= 0 && e.port < num_outputs(node(e.node)));
    }
    Node n;
    n.kind = kind;
    n.params = std::move(params);
    n.inputs = std::move(inputs);
    n.name = std::move(name);
    nodes_.push_back(std::move(n));
    alive_.push_back(1);
    ++alive_count_;
    return static_cast<Node_id>(nodes_.size() - 1);
}

Node_id Graph::add_constant(Tensor value, std::string name)
{
    const Node_id id = add_node(Op_kind::constant, {}, {}, std::move(name));
    nodes_[static_cast<std::size_t>(id)].payload = std::make_shared<const Tensor>(std::move(value));
    return id;
}

void Graph::set_outputs(std::vector<Edge> outputs)
{
    for (const Edge& e : outputs) {
        XRL_EXPECTS(is_alive(e.node));
        XRL_EXPECTS(e.port >= 0 && e.port < num_outputs(node(e.node)));
    }
    outputs_ = std::move(outputs);
}

const Node& Graph::node(Node_id id) const
{
    XRL_EXPECTS(is_alive(id));
    return nodes_[static_cast<std::size_t>(id)];
}

Node& Graph::node_mut(Node_id id)
{
    XRL_EXPECTS(is_alive(id));
    return nodes_[static_cast<std::size_t>(id)];
}

bool Graph::is_alive(Node_id id) const
{
    return id >= 0 && static_cast<std::size_t>(id) < nodes_.size() &&
           alive_[static_cast<std::size_t>(id)] != 0;
}

std::vector<Node_id> Graph::node_ids() const
{
    std::vector<Node_id> ids;
    ids.reserve(alive_count_);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (alive_[i] != 0) ids.push_back(static_cast<Node_id>(i));
    return ids;
}

const Shape& Graph::shape_of(Edge edge) const
{
    const Node& n = node(edge.node);
    XRL_EXPECTS(edge.port >= 0 && static_cast<std::size_t>(edge.port) < n.output_shapes.size());
    return n.output_shapes[static_cast<std::size_t>(edge.port)];
}

std::vector<std::vector<Edge_use>> Graph::build_users() const
{
    std::vector<std::vector<Edge_use>> users(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (alive_[i] == 0) continue;
        const Node& n = nodes_[i];
        for (std::size_t slot = 0; slot < n.inputs.size(); ++slot)
            users[static_cast<std::size_t>(n.inputs[slot].node)].push_back(
                {static_cast<Node_id>(i), static_cast<std::int32_t>(slot)});
    }
    return users;
}

std::vector<Node_id> Graph::topo_order() const
{
    return topo_walk(*this).order;
}

namespace {

/// Per-thread buffers for the O(V) passes the rewrite epilogue runs once
/// per materialised candidate (cycle check, canonical hash, DCE). No
/// values survive a call — only the capacity is reused — and none of the
/// passes call each other, so sharing one scratch per thread is safe.
struct Traversal_scratch {
    std::vector<std::uint8_t> colour;                     // DFS colouring / memo state
    std::vector<std::pair<Node_id, std::uint32_t>> stack; // DFS frames (node, next slot)
    std::vector<std::uint64_t> node_hash;                 // canonical_hash memo
    std::vector<std::uint8_t> reachable;                  // DCE mask
    std::vector<Node_id> id_stack;                        // reachable_mask worklist
};

Traversal_scratch& traversal_scratch()
{
    thread_local Traversal_scratch scratch;
    return scratch;
}

} // namespace

bool Graph::is_acyclic() const
{
    // Iterative three-colour DFS along input edges. Unlike Kahn's
    // algorithm this needs no use lists, which matters because the rewrite
    // epilogue runs this check once per candidate on the hot path.
    Traversal_scratch& scratch = traversal_scratch();
    std::vector<std::uint8_t>& colour = scratch.colour;
    colour.assign(nodes_.size(), 0); // 0 white, 1 grey, 2 black
    std::vector<std::pair<Node_id, std::uint32_t>>& stack = scratch.stack; // node, next slot
    stack.clear();
    for (std::size_t seed = 0; seed < nodes_.size(); ++seed) {
        if (alive_[seed] == 0 || colour[seed] != 0) continue;
        colour[seed] = 1;
        stack.emplace_back(static_cast<Node_id>(seed), 0);
        while (!stack.empty()) {
            const Node_id id = stack.back().first;
            const Node& n = nodes_[static_cast<std::size_t>(id)];
            std::uint32_t& slot = stack.back().second;
            if (slot == n.inputs.size()) {
                colour[static_cast<std::size_t>(id)] = 2;
                stack.pop_back();
                continue;
            }
            const auto child = static_cast<std::size_t>(n.inputs[slot].node);
            ++slot;
            if (colour[child] == 0) {
                colour[child] = 1;
                stack.emplace_back(static_cast<Node_id>(child), 0);
            } else if (colour[child] == 1) {
                return false; // back edge
            }
        }
    }
    return true;
}

std::uint64_t Graph::canonical_hash() const
{
    // Memoised post-order DFS from the outputs: visits only the sub-DAG
    // the hash is defined over, with no topological sort or use lists.
    // Throws (like the topological sort it replaced) when that sub-DAG
    // contains a cycle.
    Traversal_scratch& scratch = traversal_scratch();
    std::vector<std::uint64_t>& terms = scratch.node_hash;
    terms.assign(nodes_.size(), 0);
    std::vector<std::uint8_t>& state = scratch.colour;
    state.assign(nodes_.size(), 0); // 0 new, 1 in progress, 2 done
    std::vector<std::pair<Node_id, std::uint32_t>>& stack = scratch.stack; // node, next slot
    stack.clear();
    const auto term = [&terms](Node_id id) { return terms[static_cast<std::size_t>(id)]; };
    for (const Edge& out : outputs_) {
        if (state[static_cast<std::size_t>(out.node)] == 2) continue;
        state[static_cast<std::size_t>(out.node)] = 1;
        stack.emplace_back(out.node, 0);
        while (!stack.empty()) {
            const Node_id id = stack.back().first;
            const Node& n = nodes_[static_cast<std::size_t>(id)];
            std::uint32_t& slot = stack.back().second;
            if (slot < n.inputs.size()) {
                const auto child = static_cast<std::size_t>(n.inputs[slot].node);
                ++slot;
                if (state[child] == 0) {
                    state[child] = 1;
                    stack.emplace_back(static_cast<Node_id>(child), 0);
                } else {
                    XRL_ENSURES(state[child] == 2); // in-progress child: cycle
                }
                continue;
            }
            terms[static_cast<std::size_t>(id)] = node_hash(id, n, node_hash_prefix(n), term);
            state[static_cast<std::size_t>(id)] = 2;
            stack.pop_back();
        }
    }
    return outputs_hash(outputs_, term);
}

std::uint64_t Graph::model_hash() const
{
    // Source shapes pin down every downstream shape (inference is a pure
    // function of them and the structure), so mixing them into the
    // structural hash is enough to separate width/sequence variants.
    //
    // The sub-DAG mirrors canonical_hash exactly: only sources the outputs
    // reach (an alive-but-unreachable node — pre-DCE clutter — must not
    // split the keys of canonically identical graphs), and only inputs and
    // weights, which canonical_hash identifies by node id; constants are
    // value-identified there and their payload hash already covers shape.
    const std::vector<std::uint8_t> reachable = reachable_mask();

    std::uint64_t h = hash_combine(canonical_hash(), 0x5a4e5ULL);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (reachable[i] == 0) continue;
        const Node& n = nodes_[i];
        if (n.kind != Op_kind::input && n.kind != Op_kind::weight) continue;
        h = hash_combine(h, static_cast<std::uint64_t>(i));
        for (const Shape& shape : n.output_shapes) {
            h = hash_combine(h, 0x51a7eULL);
            for (const std::int64_t dim : shape)
                h = hash_combine(h, static_cast<std::uint64_t>(dim));
        }
    }
    return h;
}

void Graph::erase_node(Node_id id)
{
    XRL_EXPECTS(is_alive(id));
    const auto users = build_users();
    XRL_EXPECTS(users[static_cast<std::size_t>(id)].empty());
    for (const Edge& e : outputs_) XRL_EXPECTS(e.node != id);
    alive_[static_cast<std::size_t>(id)] = 0;
    nodes_[static_cast<std::size_t>(id)] = Node{};
    --alive_count_;
}

std::vector<std::uint8_t> Graph::reachable_mask() const
{
    std::vector<std::uint8_t> reachable;
    reachable_mask(reachable);
    return reachable;
}

void Graph::reachable_mask(std::vector<std::uint8_t>& reachable) const
{
    reachable.assign(nodes_.size(), 0);
    std::vector<Node_id>& stack = traversal_scratch().id_stack;
    stack.clear();
    for (const Edge& e : outputs_) {
        if (reachable[static_cast<std::size_t>(e.node)] == 0) {
            reachable[static_cast<std::size_t>(e.node)] = 1;
            stack.push_back(e.node);
        }
    }
    while (!stack.empty()) {
        const Node_id id = stack.back();
        stack.pop_back();
        for (const Edge& e : nodes_[static_cast<std::size_t>(id)].inputs) {
            if (reachable[static_cast<std::size_t>(e.node)] == 0) {
                reachable[static_cast<std::size_t>(e.node)] = 1;
                stack.push_back(e.node);
            }
        }
    }
}

int Graph::eliminate_dead_nodes()
{
    // reachable_mask() into per-thread scratch: DCE runs once per
    // materialised candidate, so the mask must not be a fresh allocation.
    std::vector<std::uint8_t>& reachable = traversal_scratch().reachable;
    reachable_mask(reachable);
    // Tombstone unreachable nodes directly: every user of a dead node is
    // itself dead, so erase_node's per-node "no users" scan is redundant
    // here (it made DCE quadratic on the candidate-generation hot path).
    int removed = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (alive_[i] == 0 || reachable[i] != 0) continue;
        if (nodes_[i].kind == Op_kind::input) continue;
        tombstone(i);
        ++removed;
    }
    return removed;
}

void Graph::tombstone(std::size_t i)
{
    alive_[i] = 0;
    nodes_[i] = Node{};
    --alive_count_;
}

void Graph::infer_shapes()
{
    for (const Node_id id : topo_order()) {
        Node& n = nodes_[static_cast<std::size_t>(id)];
        if (keeps_existing_shapes(n)) continue;
        std::vector<Shape> inferred = infer_output_shapes(*this, id);
        if (!n.output_shapes.equals(inferred)) n.output_shapes = Shape_list(std::move(inferred));
    }
}

bool Graph::infer_shapes_appended(Node_id first_new)
{
    const std::size_t first = first_new > 0 ? static_cast<std::size_t>(first_new) : 0;
    for (std::size_t i = first; i < nodes_.size(); ++i) {
        if (alive_[i] == 0) continue;
        if (keeps_existing_shapes(nodes_[i])) continue;
        for (const Edge& e : nodes_[i].inputs) {
            const Node& producer = nodes_[static_cast<std::size_t>(e.node)];
            if (static_cast<std::size_t>(e.port) >= producer.output_shapes.size()) return false;
        }
        std::vector<Shape> inferred = infer_output_shapes(*this, static_cast<Node_id>(i));
        if (!nodes_[i].output_shapes.equals(inferred))
            nodes_[i].output_shapes = Shape_list(std::move(inferred));
    }
    return true;
}

void Graph::validate_node(std::size_t i) const
{
    const Node& n = nodes_[i];
    for (const Edge& e : n.inputs) {
        XRL_ENSURES(is_alive(e.node));
        XRL_ENSURES(e.port >= 0 && e.port < num_outputs(node(e.node)));
    }
    if (!n.output_shapes.empty())
        XRL_ENSURES(static_cast<std::int32_t>(n.output_shapes.size()) == num_outputs(n));
}

void Graph::validate(bool check_acyclic) const
{
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (alive_[i] != 0) validate_node(i);
    validate_outputs();
    if (check_acyclic) XRL_ENSURES(is_acyclic());
}

void Graph::validate_outputs() const
{
    for (const Edge& e : outputs_) {
        XRL_ENSURES(is_alive(e.node));
        XRL_ENSURES(e.port >= 0 && e.port < num_outputs(node(e.node)));
    }
}

std::string Graph::to_dot() const
{
    std::ostringstream os;
    os << "digraph G {\n  rankdir=TB;\n";
    for (const Node_id id : node_ids()) {
        const Node& n = node(id);
        os << "  n" << id << " [label=\"" << op_kind_name(n.kind);
        if (!n.name.empty()) os << "\\n" << n.name;
        if (!n.output_shapes.empty()) os << "\\n" << shape_to_string(n.output_shapes.front());
        os << "\"];\n";
    }
    for (const Node_id id : node_ids()) {
        const Node& n = node(id);
        for (const Edge& e : n.inputs)
            os << "  n" << e.node << " -> n" << id << " [label=\"" << e.port << "\"];\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace xrl
