#include "rules/pattern.h"

#include <algorithm>
#include <unordered_set>

#include "support/check.h"

namespace xrl {

namespace {

bool is_variable(const Graph& pattern_graph, Node_id id)
{
    return pattern_graph.node(id).kind == Op_kind::input;
}

} // namespace

void Pattern::finalise()
{
    XRL_EXPECTS(!source.outputs().empty());
    XRL_EXPECTS(source.outputs().size() == target.outputs().size());

    source_variables.clear();
    target_variables.clear();
    for (const Node_id id : source.node_ids())
        if (source.node(id).kind == Op_kind::input) source_variables.push_back(id);
    for (const Node_id id : target.node_ids())
        if (target.node(id).kind == Op_kind::input) target_variables.push_back(id);
    XRL_EXPECTS(source_variables.size() == target_variables.size());

    // Every internal source node must be reachable from the outputs: the
    // matcher explores the pattern downward from its output producers.
    // (Unused variables are permitted — generated rules keep a fixed-size
    // variable list even when an identity drops an operand.)
    std::unordered_set<Node_id> reachable;
    std::vector<Node_id> stack;
    for (const Edge& e : source.outputs()) {
        if (reachable.insert(e.node).second) stack.push_back(e.node);
    }
    while (!stack.empty()) {
        const Node_id id = stack.back();
        stack.pop_back();
        for (const Edge& e : source.node(id).inputs)
            if (reachable.insert(e.node).second) stack.push_back(e.node);
    }
    for (const Node_id id : source.node_ids())
        XRL_EXPECTS(reachable.contains(id) || is_variable(source, id));

    // Patterns are immutable once finalised, so the substitution hot path
    // can reuse one topological sort of the target instead of recomputing
    // it per materialised candidate.
    target_order = target.topo_order();
}

const Edge* Pattern_match::find_var(Node_id source_var) const
{
    const auto it = std::lower_bound(
        var_bindings.begin(), var_bindings.end(), source_var,
        [](const std::pair<Node_id, Edge>& entry, Node_id key) { return entry.first < key; });
    if (it == var_bindings.end() || it->first != source_var) return nullptr;
    return &it->second;
}

Node_id Pattern_match::mapped_node(Node_id source_node) const
{
    const auto it = std::lower_bound(
        node_map.begin(), node_map.end(), source_node,
        [](const std::pair<Node_id, Node_id>& entry, Node_id key) { return entry.first < key; });
    if (it == node_map.end() || it->first != source_node) return invalid_node;
    return it->second;
}

void Host_index::rebuild(const Graph& host)
{
    for (auto& bucket : by_kind_) bucket.clear();
    const std::size_t capacity = host.capacity();
    users_.resize(capacity);
    for (auto& list : users_) list.clear();
    kind_of_.assign(capacity, Op_kind::input);
    // One ascending pass reproduces build_users() ordering exactly: each
    // producer's use list ends up sorted by (user, slot).
    for (std::size_t i = 0; i < capacity; ++i) {
        const auto id = static_cast<Node_id>(i);
        if (!host.is_alive(id)) continue;
        const Node& n = host.node(id);
        by_kind_[static_cast<std::size_t>(n.kind)].push_back(id);
        kind_of_[i] = n.kind;
        for (std::size_t slot = 0; slot < n.inputs.size(); ++slot)
            users_[static_cast<std::size_t>(n.inputs[slot].node)].push_back(
                {id, static_cast<std::int32_t>(slot)});
    }
}

void Host_index::apply_delta(const Graph& new_host, const Rewrite_delta& delta)
{
    XRL_EXPECTS(delta.valid);
    const std::size_t capacity = new_host.capacity();
    XRL_EXPECTS(users_.size() <= capacity); // ids never shrink within a trajectory
    users_.resize(capacity);
    kind_of_.resize(capacity, Op_kind::input);
    touched_.clear();

    // Producers whose use lists may hold stale entries: inputs of removed
    // nodes, and splice points whose uses were redirected.
    std::vector<Node_id> affected = delta.stale_use_producers;
    for (const Rewired_edge& rw : delta.rewired) affected.push_back(rw.before.node);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

    // Filter each affected list against the post-rewrite graph: an entry
    // (u, slot) survives where u is alive and still reads this producer at
    // that slot; it moves when the slot was rewired to another producer
    // (consulting the graph makes chained redirects converge); it dies with
    // u. Filtering preserves the (user, slot) order of survivors.
    std::vector<std::pair<Node_id, Edge_use>> moves;
    for (const Node_id producer : affected) {
        auto& list = users_[static_cast<std::size_t>(producer)];
        if (!new_host.is_alive(producer)) {
            // A removed splice point: every surviving use was redirected to
            // the replacement producer, so move those before the `removed`
            // pass below clears this list (dropping them would lose the
            // replacement's uses entirely).
            for (const Edge_use& use : list) {
                if (!new_host.is_alive(use.user)) continue;
                const Edge now =
                    new_host.node(use.user).inputs[static_cast<std::size_t>(use.input_index)];
                moves.emplace_back(now.node, use);
            }
            continue;
        }
        std::size_t write = 0;
        for (const Edge_use& use : list) {
            if (!new_host.is_alive(use.user)) continue;
            const Edge now =
                new_host.node(use.user).inputs[static_cast<std::size_t>(use.input_index)];
            if (now.node == producer) {
                list[write++] = use;
            } else {
                moves.emplace_back(now.node, use);
            }
        }
        list.resize(write);
    }
    for (const auto& [producer, use] : moves) {
        users_[static_cast<std::size_t>(producer)].push_back(use);
        touched_.push_back(producer);
    }

    // Appended nodes: ids are larger than every existing one, so pushing
    // ascending keeps the kind buckets sorted exactly as a rebuild would.
    for (const Node_id added : delta.added) {
        const Node& n = new_host.node(added);
        by_kind_[static_cast<std::size_t>(n.kind)].push_back(added);
        kind_of_[static_cast<std::size_t>(added)] = n.kind;
        for (std::size_t slot = 0; slot < n.inputs.size(); ++slot) {
            users_[static_cast<std::size_t>(n.inputs[slot].node)].push_back(
                {added, static_cast<std::int32_t>(slot)});
            touched_.push_back(n.inputs[slot].node);
        }
    }

    // Removed nodes leave their kind bucket; nothing uses them any more.
    for (const Node_id removed : delta.removed) {
        auto& bucket = by_kind_[static_cast<std::size_t>(
            kind_of_[static_cast<std::size_t>(removed)])];
        const auto it = std::lower_bound(bucket.begin(), bucket.end(), removed);
        XRL_ASSERT(it != bucket.end() && *it == removed);
        bucket.erase(it);
        users_[static_cast<std::size_t>(removed)].clear();
    }

    // Restore build_users() ordering on every list that gained entries.
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
    for (const Node_id id : touched_) {
        auto& list = users_[static_cast<std::size_t>(id)];
        std::sort(list.begin(), list.end(), [](const Edge_use& a, const Edge_use& b) {
            return a.user != b.user ? a.user < b.user : a.input_index < b.input_index;
        });
    }
}

namespace {

/// Backtracking state with an undo log. Bindings live in flat vectors in
/// insertion order — the vectors are their own trail, so rollback is a
/// resize — and lookups are linear scans (patterns have a handful of
/// nodes, where scanning beats hashing and nothing allocates per branch).
struct Match_state {
    std::vector<std::pair<Node_id, Edge>> vars;     // source variable -> host edge
    std::vector<std::pair<Node_id, Node_id>> nodes; // source internal -> host node
    std::vector<Node_id> used_host;                 // parallel to `nodes`

    struct Mark {
        std::size_t vars = 0;
        std::size_t nodes = 0;
    };

    Mark mark() const { return {vars.size(), nodes.size()}; }

    const Edge* find_var(Node_id pattern_var) const
    {
        for (const auto& [var, edge] : vars)
            if (var == pattern_var) return &edge;
        return nullptr;
    }

    Node_id find_node(Node_id pattern_id) const
    {
        for (const auto& [pattern_node, host_node] : nodes)
            if (pattern_node == pattern_id) return host_node;
        return invalid_node;
    }

    bool host_used(Node_id host_id) const
    {
        return std::find(used_host.begin(), used_host.end(), host_id) != used_host.end();
    }

    void bind_var(Node_id pattern_var, const Edge& host_edge)
    {
        vars.emplace_back(pattern_var, host_edge);
    }

    void bind_node(Node_id pattern_id, Node_id host_id)
    {
        nodes.emplace_back(pattern_id, host_id);
        used_host.push_back(host_id);
    }

    void rollback(const Mark& m)
    {
        vars.resize(m.vars);
        nodes.resize(m.nodes);
        used_host.resize(m.nodes);
    }

    void clear()
    {
        vars.clear();
        nodes.clear();
        used_host.clear();
    }
};

/// Per-thread matcher buffers: a Matcher lives for one find_matches call
/// (one rule against one host) but runs once per rule per step, so its
/// working vectors keep their capacity across calls. Results are excluded
/// — they are moved out to the caller.
struct Matcher_scratch {
    Match_state state;
    std::vector<Node_id> roots;
    std::vector<Node_id> output_producers;
    std::vector<std::uint64_t> seen;
};

Matcher_scratch& matcher_scratch()
{
    thread_local Matcher_scratch scratch;
    return scratch;
}

class Matcher {
public:
    Matcher(const Graph& host, const Host_index& index, const Pattern& pattern, std::size_t limit)
        : host_(host), index_(index), pattern_(pattern), limit_(limit),
          scratch_(matcher_scratch()), roots_(scratch_.roots), seen_(scratch_.seen)
    {
        roots_.clear();
        seen_.clear();
        scratch_.output_producers.clear();
        scratch_.state.clear();
        for (const Edge& e : pattern_.source.outputs()) {
            if (std::find(roots_.begin(), roots_.end(), e.node) == roots_.end() &&
                !is_variable(pattern_.source, e.node))
                roots_.push_back(e.node);
        }
    }

    std::vector<Pattern_match> run()
    {
        enumerate_roots(0, scratch_.state);
        return std::move(results_);
    }

private:
    bool params_match(const Node& pattern_node, const Node& host_node, Node_id pattern_id) const
    {
        const auto mode_it = pattern_.param_modes.find(pattern_id);
        const Param_match mode = mode_it == pattern_.param_modes.end() ? Param_match::exact : mode_it->second;
        if (mode == Param_match::exact) return pattern_node.params == host_node.params;
        const auto act_it = pattern_.required_activation.find(pattern_id);
        if (act_it != pattern_.required_activation.end())
            return host_node.params->activation == act_it->second;
        return true;
    }

    // Each match_* call either succeeds with its bindings recorded on the
    // trail, or fails leaving `state` exactly as it found it.

    bool match_edge(Match_state& state, const Edge& pattern_edge, const Edge& host_edge)
    {
        if (is_variable(pattern_.source, pattern_edge.node)) {
            if (const Edge* bound = state.find_var(pattern_edge.node)) return *bound == host_edge;
            state.bind_var(pattern_edge.node, host_edge);
            return true;
        }
        if (pattern_edge.port != host_edge.port) return false;
        return match_node(state, pattern_edge.node, host_edge.node);
    }

    bool match_node(Match_state& state, Node_id pattern_id, Node_id host_id)
    {
        const Node_id existing = state.find_node(pattern_id);
        if (existing != invalid_node) return existing == host_id;
        if (state.host_used(host_id)) return false;

        const Node& pn = pattern_.source.node(pattern_id);
        const Node& hn = host_.node(host_id);
        if (pn.kind != hn.kind) return false;
        if (pn.inputs.size() != hn.inputs.size()) return false;
        if (!params_match(pn, hn, pattern_id)) return false;

        const Match_state::Mark before_bind = state.mark();
        state.bind_node(pattern_id, host_id);

        if (is_commutative(pn.kind) && pn.inputs.size() == 2) {
            // Try both operand orders; backtrack via the undo log.
            const Match_state::Mark after_bind = state.mark();
            if (match_edge(state, pn.inputs[0], hn.inputs[0]) &&
                match_edge(state, pn.inputs[1], hn.inputs[1]))
                return true;
            state.rollback(after_bind);
            if (match_edge(state, pn.inputs[0], hn.inputs[1]) &&
                match_edge(state, pn.inputs[1], hn.inputs[0]))
                return true;
            state.rollback(before_bind);
            return false;
        }

        for (std::size_t slot = 0; slot < pn.inputs.size(); ++slot) {
            if (!match_edge(state, pn.inputs[slot], hn.inputs[slot])) {
                state.rollback(before_bind);
                return false;
            }
        }
        return true;
    }

    void enumerate_roots(std::size_t root_index, Match_state& state)
    {
        if (results_.size() >= limit_) return;
        if (root_index == roots_.size()) {
            finish_match(state);
            return;
        }
        const Node_id root = roots_[root_index];
        const Op_kind kind = pattern_.source.node(root).kind;
        for (const Node_id host_id : index_.of_kind(kind)) {
            if (results_.size() >= limit_) return;
            const Match_state::Mark mark = state.mark();
            if (match_node(state, root, host_id)) {
                enumerate_roots(root_index + 1, state);
                state.rollback(mark);
            }
        }
    }

    void finish_match(const Match_state& state)
    {
        // Equal-params constraints between matched source nodes.
        for (const auto& [a, b] : pattern_.equal_params) {
            const Node& ha = host_.node(state.find_node(a));
            const Node& hb = host_.node(state.find_node(b));
            if (!(ha.params == hb.params)) return;
        }

        // Internal matched nodes that do not produce a pattern output must
        // have all their uses inside the match, and must not be graph
        // outputs (TASO's substitution validity condition).
        const std::vector<Node_id>& matched = state.used_host;
        std::vector<Node_id>& output_producers = scratch_.output_producers;
        output_producers.clear();
        for (const Edge& e : pattern_.source.outputs()) {
            if (!is_variable(pattern_.source, e.node))
                output_producers.push_back(state.find_node(e.node));
        }
        const auto contains = [](const std::vector<Node_id>& ids, Node_id id) {
            return std::find(ids.begin(), ids.end(), id) != ids.end();
        };
        for (const Node_id hn : matched) {
            if (contains(output_producers, hn)) continue;
            for (const Edge_use& use : index_.users()[static_cast<std::size_t>(hn)])
                if (!contains(matched, use.user)) return;
            for (const Edge& out : host_.outputs())
                if (out.node == hn) return;
        }

        // Canonical (sorted-by-pattern-id) bindings; the sort keys are
        // stable node ids, so the result order never depends on discovery
        // order or allocation.
        Pattern_match match;
        match.var_bindings.assign(state.vars.begin(), state.vars.end());
        std::sort(match.var_bindings.begin(), match.var_bindings.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        match.node_map.assign(state.nodes.begin(), state.nodes.end());
        std::sort(match.node_map.begin(), match.node_map.end());
        match.binding_key = match_binding_key(match.var_bindings, match.node_map);

        // Dedup identical matches reached via different search orders. A
        // linear scan over a flat vector: match counts are capped at the
        // per-rule limit, far below hash-set break-even.
        if (std::find(seen_.begin(), seen_.end(), match.binding_key) != seen_.end()) return;
        seen_.push_back(match.binding_key);
        results_.push_back(std::move(match));
    }

    const Graph& host_;
    const Host_index& index_;
    const Pattern& pattern_;
    std::size_t limit_;
    Matcher_scratch& scratch_;
    std::vector<Node_id>& roots_;
    std::vector<std::uint64_t>& seen_;
    std::vector<Pattern_match> results_;
};

/// Per-thread scratch for splice_match: the buffers are tiny but the
/// function runs once per materialised candidate, so fresh vectors would be
/// the dominant allocation of the engine's hot loop.
struct Apply_scratch {
    std::vector<Edge> target_var_edges;
    std::vector<Node_id> instantiated;
};

Apply_scratch& apply_scratch()
{
    thread_local Apply_scratch scratch;
    return scratch;
}

} // namespace

std::uint64_t match_binding_key(const std::vector<std::pair<Node_id, Edge>>& var_bindings,
                                const std::vector<std::pair<Node_id, Node_id>>& node_map)
{
    std::uint64_t key = 0x811c9dc5ULL;
    auto mix = [&key](std::uint64_t v) { key = (key ^ v) * 0x100000001b3ULL; };
    for (const auto& [pattern_node, host_node] : node_map) {
        mix(static_cast<std::uint64_t>(pattern_node));
        mix(static_cast<std::uint64_t>(host_node));
    }
    for (const auto& [pattern_var, edge] : var_bindings) {
        mix(static_cast<std::uint64_t>(pattern_var));
        mix(static_cast<std::uint64_t>(edge.node));
        mix(static_cast<std::uint64_t>(edge.port));
    }
    return key;
}

std::vector<Pattern_match> find_matches(const Graph& host, const Pattern& pattern, std::size_t limit)
{
    const Host_index index(host);
    return Matcher(host, index, pattern, limit).run();
}

std::vector<Pattern_match> find_matches(const Graph& host, const Host_index& index,
                                        const Pattern& pattern, std::size_t limit)
{
    return Matcher(host, index, pattern, limit).run();
}

std::optional<Graph> apply_match(const Graph& host, const Pattern& pattern, const Pattern_match& match)
{
    const Host_index index(host);
    const Host_memo memo(host);
    const Host_view view{host, index, memo};
    Graph_overlay overlay;
    overlay.reset(host);
    std::vector<Rewired_edge> rewired;
    if (!splice_match(overlay, view, pattern, match, rewired) ||
        !finalise_rewrite(overlay, view, rewired))
        return std::nullopt;
    return Graph(overlay);
}

bool splice_match(Graph_overlay& out, const Host_view& host, const Pattern& pattern,
                  const Pattern_match& match, std::vector<Rewired_edge>& rewired)
{
    XRL_EXPECTS(!pattern.target_order.empty()); // Pattern::finalise() was called
    XRL_EXPECTS(&out.host() == &host.graph);

    // Map source variable index -> bound host edge, then target variable
    // node -> that edge. Target node ids are dense and tiny, so flat
    // vectors beat hash maps here.
    const std::size_t target_slots = pattern.target.capacity();
    Apply_scratch& scratch = apply_scratch();
    std::vector<Edge>& target_var_edges = scratch.target_var_edges;
    target_var_edges.assign(target_slots, Edge{invalid_node, 0});
    for (std::size_t i = 0; i < pattern.target_variables.size(); ++i) {
        const Node_id source_var = pattern.source_variables[i];
        const Edge* bound = match.find_var(source_var);
        if (bound == nullptr) {
            // A variable unused by any matched edge (can happen when the
            // source output *is* the variable); nothing to bind.
            continue;
        }
        target_var_edges[static_cast<std::size_t>(pattern.target_variables[i])] = *bound;
    }

    // Instantiate target nodes in topological order.
    std::vector<Node_id>& instantiated = scratch.instantiated; // target node -> new host node
    instantiated.assign(target_slots, invalid_node);
    auto resolve = [&](const Edge& target_edge) -> Edge {
        if (is_variable(pattern.target, target_edge.node)) {
            const Edge bound = target_var_edges[static_cast<std::size_t>(target_edge.node)];
            XRL_EXPECTS(bound.node != invalid_node);
            return bound;
        }
        const Node_id mapped = instantiated[static_cast<std::size_t>(target_edge.node)];
        XRL_EXPECTS(mapped != invalid_node);
        return Edge{mapped, target_edge.port};
    };

    try {
        for (const Node_id tid : pattern.target_order) {
            const Node& tn = pattern.target.node(tid);
            if (tn.kind == Op_kind::input) continue;
            if (tn.kind == Op_kind::constant) {
                XRL_EXPECTS(tn.payload != nullptr);
                const Node_id nid = out.add_constant(*tn.payload, tn.name);
                instantiated[static_cast<std::size_t>(tid)] = nid;
                continue;
            }
            std::vector<Edge> inputs;
            inputs.reserve(tn.inputs.size());
            for (const Edge& e : tn.inputs) inputs.push_back(resolve(e));

            Shared_params params = tn.params;
            const auto transfer = pattern.param_transfers.find(tid);
            if (transfer != pattern.param_transfers.end()) {
                const Node_id matched_host = match.mapped_node(transfer->second.from_source_node);
                XRL_EXPECTS(matched_host != invalid_node);
                params = host.graph.node(matched_host).params; // the host's block, shared
                if (transfer->second.set_activation.has_value())
                    params = params.with_activation(*transfer->second.set_activation);
            }
            const Node_id nid = out.add_node(tn.kind, std::move(inputs), std::move(params), tn.name);
            instantiated[static_cast<std::size_t>(tid)] = nid;
        }

        // Rewire each source output to the corresponding target output.
        rewired.clear();
        rewired.reserve(pattern.source.outputs().size());
        for (std::size_t k = 0; k < pattern.source.outputs().size(); ++k) {
            const Edge src_out = pattern.source.outputs()[k];
            Edge old_edge;
            if (is_variable(pattern.source, src_out.node)) {
                const Edge* bound = match.find_var(src_out.node);
                XRL_EXPECTS(bound != nullptr);
                old_edge = *bound;
            } else {
                const Node_id mapped = match.mapped_node(src_out.node);
                XRL_EXPECTS(mapped != invalid_node);
                old_edge = Edge{mapped, src_out.port};
            }
            const Edge new_edge = resolve(pattern.target.outputs()[k]);
            if (old_edge == new_edge) continue;
            out.replace_all_uses(old_edge, new_edge, host.index.users());
            rewired.push_back({old_edge, new_edge});
        }

        return true;
    } catch (const Contract_violation&) {
        // Instantiation itself rejected the site (unbound variable or a
        // malformed constant payload).
        return false;
    }
}

} // namespace xrl
