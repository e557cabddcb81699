// The rewrite epilogue (finalise_rewrite) and the per-host memo it reads.
//
// A candidate is its host with a few nodes appended and a few slots
// redirected, held as a Graph_overlay on the host. Every whole-graph pass
// the epilogue used to run per candidate — cycle check, dead-node
// elimination, the delta's scan of the id space, validation and the
// canonical hash — has an answer for the host already, and the candidate
// differs from it only around the splice. The host's answers live in
// Host_memo (built once per host) and Host_index (its use lists);
// finalise_rewrite works from them, touches only the splice and records its
// tombstones and shapes in the overlay.
#include "rules/pattern.h"

#include <algorithm>
#include <climits>
#include <utility>

#include "rules/candidate_engine.h"
#include "support/check.h"
#include "support/metrics.h"

#ifndef NDEBUG
#include "ir/graph_io.h"
#include "support/record_file.h"
#endif

namespace xrl {

void Host_memo::rebuild(const Graph& host)
{
    const std::size_t capacity = host.capacity();
    facts_.assign(capacity, Node_facts{});
    unreachable_.clear();

    // Post-order DFS over every alive node: a node's term and depth need
    // its producers' first. -2 marks a node in progress (a cycle if met).
    constexpr std::int32_t in_progress = -2;
    for (std::size_t seed = 0; seed < capacity; ++seed) {
        if (!host.is_alive(static_cast<Node_id>(seed)) || facts_[seed].depth != -1) continue;
        facts_[seed].depth = in_progress;
        stack_.emplace_back(static_cast<Node_id>(seed), 0);
        while (!stack_.empty()) {
            const Node_id id = stack_.back().first;
            const Node& n = host.node(id);
            std::uint32_t& slot = stack_.back().second;
            if (slot < n.inputs.size()) {
                const auto child = static_cast<std::size_t>(n.inputs[slot].node);
                ++slot;
                XRL_ENSURES(facts_[child].depth != in_progress); // the host has a cycle
                if (facts_[child].depth == -1) {
                    facts_[child].depth = in_progress;
                    stack_.emplace_back(static_cast<Node_id>(child), 0);
                }
                continue;
            }
            Node_facts& facts = facts_[static_cast<std::size_t>(id)];
            facts.term =
                node_hash(id, n, node_hash_prefix(n), [this](Node_id p) { return term(p); });
            std::int32_t depth = 0;
            for (const Edge& e : n.inputs) depth = std::max(depth, this->depth(e.node) + 1);
            facts.depth = depth;
            stack_.pop_back();
        }
    }
    canonical_hash_ = outputs_hash(host.outputs(), [this](Node_id p) { return term(p); });

    // Reachability from the outputs; `unreachable` doubles as the visited
    // mark (set on every alive node, cleared as the walk reaches it).
    for (std::size_t i = 0; i < capacity; ++i)
        facts_[i].unreachable = host.is_alive(static_cast<Node_id>(i));
    std::vector<std::pair<Node_id, std::uint32_t>>& stack = stack_;
    for (const Edge& e : host.outputs()) {
        if (!facts_[static_cast<std::size_t>(e.node)].unreachable) continue;
        facts_[static_cast<std::size_t>(e.node)].unreachable = false;
        stack.emplace_back(e.node, 0);
        while (!stack.empty()) {
            const Node_id id = stack.back().first;
            stack.pop_back();
            for (const Edge& in : host.node(id).inputs) {
                Node_facts& facts = facts_[static_cast<std::size_t>(in.node)];
                if (!facts.unreachable) continue;
                facts.unreachable = false;
                stack.emplace_back(in.node, 0);
            }
        }
    }
    // Dead-node elimination keeps sources of kind input.
    for (std::size_t i = 0; i < capacity; ++i) {
        if (!facts_[i].unreachable) continue;
        if (host.node(static_cast<Node_id>(i)).kind == Op_kind::input) {
            facts_[i].unreachable = false;
            continue;
        }
        unreachable_.push_back(static_cast<Node_id>(i));
    }
}

namespace {

/// The appended nodes always need shapes (`appended`: whether inference
/// over them completed); the rest of the graph is untouched as long as
/// every splice carries the same shape as the edge it replaced, so the full
/// re-inference pass is skipped. Returns whether inference stayed local.
/// `Candidate` is the candidate as a Graph or a Graph_overlay.
template <typename Candidate>
bool finish_rewrite_shapes(Candidate& g, bool appended, const Graph& host,
                           const std::vector<Rewired_edge>& rewired)
{
    const auto shape_known = [](const auto& graph, const Edge& e) {
        return static_cast<std::size_t>(e.port) < graph.node(e.node).output_shapes.size();
    };
    bool incremental = appended;
    if (incremental) {
        for (const Rewired_edge& rw : rewired) {
            if (!g.is_alive(rw.after.node)) continue; // splice ended up unused
            if (!shape_known(host, rw.before) || !shape_known(g, rw.after) ||
                !(host.shape_of(rw.before) == g.shape_of(rw.after))) {
                incremental = false;
                break;
            }
        }
    }
    if (!incremental) g.infer_shapes();
    return incremental;
}

/// Per-thread working state of one finalise_rewrite call. Per-node flags
/// carry the epoch of the call that set them, so a call resets nothing for
/// the nodes it never touches; vectors keep their capacity across calls.
struct Finalise_scratch {
    enum Flag : std::uint8_t {
        dirty = 1,   ///< Downstream of a redirected slot: term recomputed.
        dead = 2,    ///< Found dead by the cascade.
        revived = 4, ///< A host-unreachable node the candidate reaches.
        grey = 8,    ///< Cycle-check DFS: on the stack.
        black = 16,  ///< Cycle-check DFS: finished.
        hashed = 32, ///< `terms` holds the node's term.
    };
    struct Mark {
        std::uint32_t epoch = 0;
        std::uint8_t flags = 0;
    };

    std::vector<Mark> marks;
    std::uint32_t epoch = 0;
    std::vector<std::uint64_t> terms;
    std::vector<Edge_use> slots;                        ///< Redirected host slots.
    std::vector<Node_id> users;                         ///< Their users, unique.
    std::vector<std::pair<Node_id, Node_id>> new_uses;  ///< (producer, user) edges the host lacks.
    std::vector<Node_id> work;
    std::vector<Node_id> dead_ids;
    std::vector<std::pair<Node_id, std::uint32_t>> stack;

    void begin(std::size_t capacity)
    {
        if (marks.size() < capacity) marks.resize(capacity);
        if (terms.size() < capacity) terms.resize(capacity);
        if (++epoch == 0) {
            std::fill(marks.begin(), marks.end(), Mark{});
            epoch = 1;
        }
    }

    bool has(Node_id id, Flag flag) const
    {
        const Mark& m = marks[static_cast<std::size_t>(id)];
        return m.epoch == epoch && (m.flags & flag) != 0;
    }

    void set(Node_id id, Flag flag)
    {
        Mark& m = marks[static_cast<std::size_t>(id)];
        if (m.epoch != epoch) m = {epoch, 0};
        m.flags = static_cast<std::uint8_t>(m.flags | flag);
    }

    void clear(Node_id id, Flag flag)
    {
        Mark& m = marks[static_cast<std::size_t>(id)];
        if (m.epoch == epoch) m.flags = static_cast<std::uint8_t>(m.flags & ~flag);
    }
};

Finalise_scratch& finalise_scratch()
{
    thread_local Finalise_scratch scratch;
    return scratch;
}

using Flag = Finalise_scratch::Flag;

/// finalise_rewrite from the host's memo and index. The steps, in order:
/// find the redirected slots, check cycles through them, sweep dead nodes,
/// fill the delta, infer shapes, validate, hash.
bool finalise_local(Graph_overlay& g, const Host_view& host,
                    const std::vector<Rewired_edge>& rewired, std::uint64_t* hash_out,
                    Rewrite_delta* delta_out)
{
    const Graph& h = host.graph;
    const Host_memo& memo = host.memo;
    const std::vector<std::vector<Edge_use>>& host_users = host.index.users();
    const auto first = static_cast<Node_id>(h.capacity());
    const auto end = static_cast<Node_id>(g.capacity());
    XRL_EXPECTS(end >= first);
    const auto is_host = [first](Node_id id) { return id < first; };
    Finalise_scratch& s = finalise_scratch();
    s.begin(g.capacity());

    // 1. The splice. Only uses of a rewired `before` can have moved, so the
    // redirected slots are among those producers' use lists. The edges the
    // host lacks are their new producers plus every appended node's inputs.
    s.slots.clear();
    for (const Rewired_edge& rw : rewired) {
        if (!is_host(rw.before.node)) continue;
        for (const Edge_use& use : host_users[static_cast<std::size_t>(rw.before.node)]) {
            const auto slot = static_cast<std::size_t>(use.input_index);
            const Edge old = h.node(use.user).inputs[slot];
            if (old == rw.before && !(g.node(use.user).inputs[slot] == old)) s.slots.push_back(use);
        }
    }
    const auto by_user_slot = [](const Edge_use& a, const Edge_use& b) {
        return a.user != b.user ? a.user < b.user : a.input_index < b.input_index;
    };
    std::sort(s.slots.begin(), s.slots.end(), by_user_slot);
    s.slots.erase(std::unique(s.slots.begin(), s.slots.end()), s.slots.end());
    s.users.clear();
    s.new_uses.clear();
    std::int32_t min_depth = INT32_MAX;
    for (const Edge_use& use : s.slots) {
        if (s.users.empty() || s.users.back() != use.user) {
            s.users.push_back(use.user);
            min_depth = std::min(min_depth, memo.depth(use.user));
        }
        s.new_uses.emplace_back(
            g.node(use.user).inputs[static_cast<std::size_t>(use.input_index)].node, use.user);
    }
    for (Node_id a = first; a < end; ++a)
        for (const Edge& e : g.node(a).inputs) s.new_uses.emplace_back(e.node, a);
    std::sort(s.new_uses.begin(), s.new_uses.end());

    // 2. Cycles. The host is acyclic and appended nodes read only nodes that
    // existed before them, so every cycle runs through a redirected slot:
    // through a redirected host user, or an appended node (whose slots the
    // rewiring may also have redirected). Host edges lead strictly to
    // shallower nodes, so a host node shallower than every redirected user
    // reaches none of them and lies on no cycle. A three-colour DFS from
    // those users and the appended nodes, skipping such nodes, finds every
    // cycle.
    const auto off_cycle = [&](Node_id id) { return is_host(id) && memo.depth(id) < min_depth; };
    const auto acyclic_from = [&](Node_id seed) {
        if (s.has(seed, Flag::black)) return true;
        s.set(seed, Flag::grey);
        s.stack.clear();
        s.stack.emplace_back(seed, 0);
        while (!s.stack.empty()) {
            const Node_id id = s.stack.back().first;
            const Node& n = g.node(id);
            std::uint32_t& slot = s.stack.back().second;
            if (slot == n.inputs.size()) {
                s.set(id, Flag::black);
                s.stack.pop_back();
                continue;
            }
            const Node_id child = n.inputs[slot].node;
            ++slot;
            if (off_cycle(child) || s.has(child, Flag::black)) continue;
            if (s.has(child, Flag::grey)) return false; // back edge
            s.set(child, Flag::grey);
            s.stack.emplace_back(child, 0);
        }
        return true;
    };
    for (const Node_id user : s.users)
        if (!acyclic_from(user)) return false; // the rewrite closed a cycle
    for (Node_id a = first; a < end; ++a)
        if (!acyclic_from(a)) return false;

    // 3. Dead nodes. On an acyclic graph a node is dead exactly when it is
    // no output and every user is dead. Liveness can fall only where a node
    // lost a use — a rewired producer — and then cascades to its producers;
    // appended nodes are checked too. Host nodes the outputs never reached
    // start dead (the memo lists them); one of them revives only when an
    // edge the host lacks reaches it from a live node, and then so does
    // everything it reads.
    const auto is_output = [&g](Node_id id) {
        for (const Edge& e : g.outputs())
            if (e.node == id) return true;
        return false;
    };
    const auto live = [&](Node_id id) {
        if (s.has(id, Flag::dead)) return false;
        return !is_host(id) || !memo.unreachable(id) || s.has(id, Flag::revived);
    };
    const auto has_live_user = [&](Node_id id) {
        if (is_host(id)) {
            for (const Edge_use& use : host_users[static_cast<std::size_t>(id)]) {
                const Edge now = g.node(use.user).inputs[static_cast<std::size_t>(use.input_index)];
                if (now.node == id && live(use.user)) return true;
            }
        }
        const auto lo = std::lower_bound(s.new_uses.begin(), s.new_uses.end(),
                                         std::pair<Node_id, Node_id>{id, INT32_MIN});
        for (auto it = lo; it != s.new_uses.end() && it->first == id; ++it)
            if (live(it->second)) return true;
        return false;
    };
    s.work.clear();
    s.dead_ids.clear();
    for (const Rewired_edge& rw : rewired) s.work.push_back(rw.before.node);
    for (Node_id a = first; a < end; ++a) s.work.push_back(a);
    while (!s.work.empty()) {
        const Node_id id = s.work.back();
        s.work.pop_back();
        if (!live(id)) continue;
        const Node& n = g.node(id);
        if (n.kind == Op_kind::input || is_output(id) || has_live_user(id)) continue;
        s.set(id, Flag::dead);
        s.dead_ids.push_back(id);
        for (const Edge& e : n.inputs) s.work.push_back(e.node);
    }
    if (!memo.unreachable_ids().empty()) {
        for (const Edge& e : g.outputs())
            if (!live(e.node)) s.work.push_back(e.node);
        for (const auto& [producer, user] : s.new_uses)
            if (live(user) && !live(producer)) s.work.push_back(producer);
        while (!s.work.empty()) {
            const Node_id id = s.work.back();
            s.work.pop_back();
            if (live(id)) continue;
            s.set(id, Flag::revived);
            s.clear(id, Flag::dead);
            for (const Edge& e : g.node(id).inputs) s.work.push_back(e.node);
        }
        const std::vector<Node_id>& clutter = memo.unreachable_ids();
        s.dead_ids.insert(s.dead_ids.end(), clutter.begin(), clutter.end());
        std::erase_if(s.dead_ids, live);
    }
    std::sort(s.dead_ids.begin(), s.dead_ids.end());
    g.erase_dead_nodes(s.dead_ids);

    // 4. The delta, in the order a scan of the id space would list it.
    if (delta_out != nullptr) {
        delta_out->removed.clear();
        delta_out->added.clear();
        delta_out->stale_use_producers.clear();
        delta_out->rewired = rewired;
        for (const Node_id id : s.dead_ids) {
            if (!is_host(id)) break;
            delta_out->removed.push_back(id);
            for (const Edge& e : h.node(id).inputs)
                delta_out->stale_use_producers.push_back(e.node);
        }
        for (Node_id a = first; a < end; ++a)
            if (g.is_alive(a)) delta_out->added.push_back(a);
    }

    // 5. Shapes, then the checks validate() makes, on the nodes that differ
    // from the host's: the appended ones and the redirected users.
    const bool shapes_local = finish_rewrite_shapes(g, g.infer_shapes_appended(), h, rewired);
    if (delta_out != nullptr) delta_out->shapes_local = shapes_local;
    s.work.clear();
    for (const Node_id user : s.users)
        if (g.is_alive(user)) s.work.push_back(user);
    for (Node_id a = first; a < end; ++a)
        if (g.is_alive(a)) s.work.push_back(a);
    g.validate_nodes(s.work);

    // 6. The hash. A host node keeps its memoised term unless it is
    // downstream of a redirected slot; those and the appended nodes are
    // rehashed, from the outputs down, stopping at every kept term.
    if (hash_out != nullptr) {
        s.work.assign(s.users.begin(), s.users.end());
        while (!s.work.empty()) {
            const Node_id id = s.work.back();
            s.work.pop_back();
            if (s.has(id, Flag::dirty)) continue;
            s.set(id, Flag::dirty);
            for (const Edge_use& use : host_users[static_cast<std::size_t>(id)])
                s.work.push_back(use.user);
        }
        const auto kept = [&](Node_id id) { return is_host(id) && !s.has(id, Flag::dirty); };
        const auto term = [&](Node_id id) {
            return kept(id) ? memo.term(id) : s.terms[static_cast<std::size_t>(id)];
        };
        for (const Edge& out : g.outputs()) {
            if (kept(out.node) || s.has(out.node, Flag::hashed)) continue;
            s.stack.clear();
            s.stack.emplace_back(out.node, 0);
            while (!s.stack.empty()) {
                const Node_id id = s.stack.back().first;
                const Node& n = g.node(id);
                std::uint32_t& slot = s.stack.back().second;
                if (slot < n.inputs.size()) {
                    const Node_id child = n.inputs[slot].node;
                    ++slot;
                    if (!kept(child) && !s.has(child, Flag::hashed)) s.stack.emplace_back(child, 0);
                    continue;
                }
                s.terms[static_cast<std::size_t>(id)] = node_hash(id, n, node_hash_prefix(n), term);
                s.set(id, Flag::hashed);
                s.stack.pop_back();
            }
        }
        *hash_out = outputs_hash(g.outputs(), term);
    }
    if (delta_out != nullptr) delta_out->valid = true;
    return true;
}

#ifndef NDEBUG
std::string graph_bytes(const Graph& g)
{
    Byte_writer out;
    serialise_graph_binary(out, g);
    return out.take();
}
#endif

} // namespace

bool finalise_rewrite(Graph_overlay& g, const Host_view& host,
                      const std::vector<Rewired_edge>& rewired, std::uint64_t* canonical_hash_out,
                      Rewrite_delta* delta_out)
{
    // Histogram only (no span): this runs once per candidate build — span
    // records would dominate the trace buffer without adding shape.
    static Histogram& finalise_histogram = candidate_phase_histogram("finalise_rewrite");
    const Scoped_timer_us timer(finalise_histogram);
    if (delta_out != nullptr) delta_out->valid = false;
#ifndef NDEBUG
    // The splice materialised, through the whole-graph passes, must agree
    // with the overlay's result to the byte.
    Graph full;
    g.materialise(full);
    std::uint64_t hash = 0;
    Rewrite_delta delta;
    if (canonical_hash_out == nullptr) canonical_hash_out = &hash;
    if (delta_out == nullptr) delta_out = &delta;
#endif
    bool built = false;
    try {
        built = finalise_local(g, host, rewired, canonical_hash_out, delta_out);
    } catch (const Contract_violation&) {
        // Shape inference rejected this instantiation (the rule does not
        // apply at this site for these operand shapes).
        built = false;
    }
#ifndef NDEBUG
    std::uint64_t full_hash = 0;
    Rewrite_delta full_delta;
    XRL_ENSURES(finalise_rewrite_full(full, host.graph, rewired, &full_hash, &full_delta) == built);
    if (built) {
        XRL_ENSURES(*canonical_hash_out == full_hash);
        XRL_ENSURES(*delta_out == full_delta);
        XRL_ENSURES(graph_bytes(Graph(g)) == graph_bytes(full));
    }
#endif
    return built;
}

bool finalise_rewrite_full(Graph& g, const Graph& host, const std::vector<Rewired_edge>& rewired,
                           std::uint64_t* canonical_hash_out, Rewrite_delta* delta_out)
{
    if (delta_out != nullptr) delta_out->valid = false;
    try {
        if (!g.is_acyclic()) return false; // the rewrite closed a cycle
        g.eliminate_dead_nodes();

        // The node set is final after dead-node elimination; record what
        // changed relative to the host while the host is at hand.
        const std::size_t first = host.capacity();
        if (delta_out != nullptr) {
            delta_out->removed.clear();
            delta_out->added.clear();
            delta_out->stale_use_producers.clear();
            delta_out->rewired = rewired;
            for (std::size_t i = 0; i < first; ++i) {
                const auto id = static_cast<Node_id>(i);
                if (!host.is_alive(id) || g.is_alive(id)) continue;
                delta_out->removed.push_back(id);
                for (const Edge& e : host.node(id).inputs)
                    delta_out->stale_use_producers.push_back(e.node);
            }
            for (std::size_t i = first; i < g.capacity(); ++i)
                if (g.is_alive(static_cast<Node_id>(i)))
                    delta_out->added.push_back(static_cast<Node_id>(i));
        }

        const bool shapes_local = finish_rewrite_shapes(
            g, g.infer_shapes_appended(static_cast<Node_id>(first)), host, rewired);
        if (delta_out != nullptr) delta_out->shapes_local = shapes_local;
        // The cycle check already ran, and dead-node elimination cannot
        // introduce a cycle — skip the re-check.
        g.validate(/*check_acyclic=*/false);
        if (canonical_hash_out != nullptr) *canonical_hash_out = g.canonical_hash();
        if (delta_out != nullptr) delta_out->valid = true;
        return true;
    } catch (const Contract_violation&) {
        return false;
    }
}

} // namespace xrl
