#include "ir/graph_overlay.h"

#include <algorithm>

#include "ir/shape_inference.h"
#include "support/check.h"

namespace xrl {

void Graph_overlay::reset(const Graph& host)
{
    host_ = &host;
    first_ = static_cast<Node_id>(host.capacity());
    appended_.clear();
    copy_ids_.clear();
    copies_.clear();
    dead_.clear();
    outputs_ = host.outputs();
}

Node_id Graph_overlay::add_node(Op_kind kind, std::vector<Edge> inputs, Shared_params params,
                                std::string name)
{
    for (const Edge& e : inputs) {
        XRL_EXPECTS(is_alive(e.node));
        XRL_EXPECTS(e.port >= 0 && e.port < num_outputs(stored(e.node)));
    }
    Node& n = appended_.emplace_back();
    n.kind = kind;
    n.params = std::move(params);
    n.inputs = std::move(inputs);
    n.name = std::move(name);
    return static_cast<Node_id>(capacity() - 1);
}

Node_id Graph_overlay::add_constant(Tensor value, std::string name)
{
    const Node_id id = add_node(Op_kind::constant, {}, {}, std::move(name));
    appended_.back().payload = std::make_shared<const Tensor>(std::move(value));
    return id;
}

void Graph_overlay::replace_all_uses(Edge from, Edge to,
                                     const std::vector<std::vector<Edge_use>>& host_users)
{
    XRL_EXPECTS(is_alive(from.node) && is_alive(to.node));
    XRL_EXPECTS(host_users.size() == host_->capacity());
    // Host nodes still reading `from` as the host does; a slot an earlier
    // redirect moved to `from` is in a copy already, and so is found below.
    if (from.node < first_appended()) {
        for (const Edge_use& use : host_users[static_cast<std::size_t>(from.node)]) {
            const auto slot = static_cast<std::size_t>(use.input_index);
            if (stored(use.user).inputs[slot] == from) copy_on_write(use.user).inputs[slot] = to;
        }
    }
    const auto redirect = [&](std::vector<Edge>& edges) {
        for (Edge& e : edges)
            if (e == from) e = to;
    };
    for (Node& n : copies_) redirect(n.inputs);
    for (Node& n : appended_) redirect(n.inputs);
    redirect(outputs_);
}

void Graph_overlay::erase_dead_nodes(const std::vector<Node_id>& dead)
{
    for (const Node_id id : dead)
        XRL_EXPECTS(is_alive(id) && stored(id).kind != Op_kind::input);
    XRL_EXPECTS(std::is_sorted(dead.begin(), dead.end()));
    const auto middle = static_cast<std::ptrdiff_t>(dead_.size());
    dead_.insert(dead_.end(), dead.begin(), dead.end());
    std::inplace_merge(dead_.begin(), dead_.begin() + middle, dead_.end());
}

bool Graph_overlay::infer_shapes_appended()
{
    const Node_id first = first_appended();
    for (std::size_t i = 0; i < appended_.size(); ++i) {
        const auto id = static_cast<Node_id>(first + static_cast<Node_id>(i));
        if (!is_alive(id)) continue;
        if (keeps_existing_shapes(appended_[i])) continue;
        for (const Edge& e : appended_[i].inputs)
            if (static_cast<std::size_t>(e.port) >= stored(e.node).output_shapes.size())
                return false;
        std::vector<Shape> inferred = infer_output_shapes(*this, id);
        if (!appended_[i].output_shapes.equals(inferred))
            appended_[i].output_shapes = Shape_list(std::move(inferred));
    }
    return true;
}

void Graph_overlay::infer_shapes()
{
    Graph full;
    materialise(full);
    full.infer_shapes();
    // Re-inference keeps a node's shape list when its value is unchanged, so
    // a host node whose list is no longer the one it had has new shapes.
    const Node_id first = first_appended();
    for (Node_id id = 0; static_cast<std::size_t>(id) < capacity(); ++id) {
        if (!is_alive(id)) continue;
        const Shape_list& inferred = full.node(id).output_shapes;
        if (id >= first) {
            appended_[static_cast<std::size_t>(id - first)].output_shapes = inferred;
            continue;
        }
        const Shape_list& current = stored(id).output_shapes;
        if (inferred.shares_storage_with(current) || (inferred.empty() && current.empty()))
            continue;
        copy_on_write(id).output_shapes = inferred;
    }
}

void Graph_overlay::validate_nodes(const std::vector<Node_id>& ids) const
{
    const auto check_edge = [this](const Edge& e) {
        XRL_ENSURES(is_alive(e.node));
        XRL_ENSURES(e.port >= 0 && e.port < num_outputs(stored(e.node)));
    };
    for (const Node_id id : ids) {
        XRL_ENSURES(is_alive(id));
        const Node& n = stored(id);
        for (const Edge& e : n.inputs) check_edge(e);
        if (!n.output_shapes.empty())
            XRL_ENSURES(static_cast<std::int32_t>(n.output_shapes.size()) == num_outputs(n));
    }
    for (const Edge& e : outputs_) check_edge(e);
}

const Shape& Graph_overlay::shape_of(Edge edge) const
{
    const Node& n = node(edge.node);
    XRL_EXPECTS(edge.port >= 0 && static_cast<std::size_t>(edge.port) < n.output_shapes.size());
    return n.output_shapes[static_cast<std::size_t>(edge.port)];
}

void Graph_overlay::materialise(Graph& out) const
{
    XRL_EXPECTS(&out != host_);
    // Copy-assignment into a recycled `out` reuses its nested buffers and
    // shares each node's params block and shape list. The eighth-of-capacity
    // slack amortises node-array regrowth when `out` is recycled for a host
    // that gains a few ids per accepted rewrite.
    out = *host_;
    out.reserve(capacity() + host_->capacity() / 8);
    for (const Node& n : appended_) {
        out.nodes_.push_back(n);
        out.alive_.push_back(1);
    }
    out.alive_count_ += appended_.size();
    for (std::size_t i = 0; i < copies_.size(); ++i)
        out.nodes_[static_cast<std::size_t>(copy_ids_[i])] = copies_[i];
    for (const Node_id id : dead_) out.tombstone(static_cast<std::size_t>(id));
    out.outputs_ = outputs_;
}

Graph_overlay::operator Graph() const
{
    Graph out;
    materialise(out);
    return out;
}

namespace {

/// topo_walk's per-thread buffers: only their capacity outlives a call.
struct Walk_scratch {
    Topo_walk walk;
    std::vector<std::int32_t> pending; ///< By id: inputs not yet taken.
    std::vector<std::int32_t> cursor;  ///< By id: next free use slot.
};

} // namespace

const Topo_walk& topo_walk(const Graph_reader& graph)
{
    thread_local Walk_scratch scratch;
    Topo_walk& walk = scratch.walk;
    const std::size_t capacity = graph.capacity();
    std::vector<const Node*>& nodes = walk.nodes;
    std::vector<std::int32_t>& pending = scratch.pending;
    nodes.assign(capacity, nullptr);
    pending.assign(capacity, 0);
    walk.use_begin.assign(capacity + 1, 0);
    walk.order.clear();

    // Count each producer's uses, seed the sources in id order.
    std::size_t alive = 0;
    graph.for_each_node([&](Node_id id, const Node& n) {
        const auto i = static_cast<std::size_t>(id);
        nodes[i] = &n;
        ++alive;
        pending[i] = static_cast<std::int32_t>(n.inputs.size());
        if (n.inputs.empty()) walk.order.push_back(id);
        for (const Edge& e : n.inputs) ++walk.use_begin[static_cast<std::size_t>(e.node) + 1];
    });
    for (std::size_t i = 0; i < capacity; ++i) walk.use_begin[i + 1] += walk.use_begin[i];

    // Fill the use lists in (user, slot) order.
    std::vector<std::int32_t>& cursor = scratch.cursor;
    cursor.assign(walk.use_begin.begin(), walk.use_begin.end() - 1);
    walk.uses.resize(static_cast<std::size_t>(walk.use_begin[capacity]));
    for (std::size_t i = 0; i < capacity; ++i) {
        if (nodes[i] == nullptr) continue;
        const std::vector<Edge>& inputs = nodes[i]->inputs;
        for (std::size_t slot = 0; slot < inputs.size(); ++slot) {
            std::int32_t& next = cursor[static_cast<std::size_t>(inputs[slot].node)];
            walk.uses[static_cast<std::size_t>(next++)] = {static_cast<Node_id>(i),
                                                           static_cast<std::int32_t>(slot)};
        }
    }

    // Kahn's algorithm, the order vector doubling as the ready queue.
    walk.order.reserve(alive);
    for (std::size_t head = 0; head < walk.order.size(); ++head)
        for (const Edge_use& use : walk.users(walk.order[head]))
            if (--pending[static_cast<std::size_t>(use.user)] == 0) walk.order.push_back(use.user);
    XRL_ENSURES(walk.order.size() == alive); // otherwise: cycle
    return walk;
}

Node& Graph_overlay::copy_on_write(Node_id id)
{
    XRL_EXPECTS(id < first_appended());
    const auto it = std::lower_bound(copy_ids_.begin(), copy_ids_.end(), id);
    const auto at = it - copy_ids_.begin();
    if (it == copy_ids_.end() || *it != id) {
        copy_ids_.insert(it, id);
        copies_.insert(copies_.begin() + at, host_->node(id));
    }
    return copies_[static_cast<std::size_t>(at)];
}

} // namespace xrl
