#include "rules/bespoke_rules.h"

#include <algorithm>

#include "support/check.h"

namespace xrl {

namespace {

/// A bespoke site naming one or two host nodes.
Rewrite_site site_at(Node_id first, Node_id second = invalid_node)
{
    Rewrite_site site;
    site.nodes = {first, second};
    return site;
}

bool is_graph_output(const Graph& g, Node_id id)
{
    for (const Edge& e : g.outputs())
        if (e.node == id) return true;
    return false;
}

class Merge_matmul_shared_lhs_rule final : public Rewrite_rule {
public:
    Merge_matmul_shared_lhs_rule() : Rewrite_rule("merge-matmul-shared-lhs") {}

    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        const std::vector<Node_id>& matmuls = index.of_kind(Op_kind::matmul);
        for (std::size_t i = 0; i < matmuls.size(); ++i) {
            for (std::size_t j = i + 1; j < matmuls.size(); ++j) {
                const Node& m1 = host.node(matmuls[i]);
                const Node& m2 = host.node(matmuls[j]);
                if (!(m1.params == m2.params)) continue;
                if (!(m1.inputs[0] == m2.inputs[0])) continue;
                const Shape& w1 = host.shape_of(m1.inputs[1]);
                const Shape& w2 = host.shape_of(m2.inputs[1]);
                if (w1.size() != 2 || w2.size() != 2) continue;
                if (w1[0] != w2[0]) continue;
                if (m1.inputs[1] == m2.inputs[1]) continue; // degenerate
                out.push_back(site_at(matmuls[i], matmuls[j]));
            }
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const auto [id1, id2] = site.nodes;
        const std::int64_t n1 = host.shape_of(host.node(id1).inputs[1])[1];
        const std::int64_t n2 = host.shape_of(host.node(id2).inputs[1])[1];
        const Edge x = host.node(id1).inputs[0];
        const Edge w1 = host.node(id1).inputs[1];
        const Edge w2 = host.node(id2).inputs[1];
        const Shared_params matmul_params = host.node(id1).params;
        Op_params concat_params;
        concat_params.axis = 1;
        const Node_id wc = g.add_node(Op_kind::concat, {w1, w2}, concat_params);
        const Node_id merged = g.add_node(Op_kind::matmul, {x, {wc, 0}}, matmul_params);

        const auto out_rank = static_cast<std::int64_t>(host.shape_of({id1, 0}).size());
        Op_params split_params;
        split_params.axis = out_rank - 1;
        split_params.split_sizes = {n1, n2};
        const Node_id sp = g.add_node(Op_kind::split, {{merged, 0}}, split_params);

        g.replace_all_uses({id1, 0}, {sp, 0}, view.index.users());
        g.replace_all_uses({id2, 0}, {sp, 1}, view.index.users());
        rewired = {{{id1, 0}, {sp, 0}}, {{id2, 0}, {sp, 1}}};
        return true;
    }
};

class Merge_conv_shared_input_rule final : public Rewrite_rule {
public:
    Merge_conv_shared_input_rule() : Rewrite_rule("merge-conv-shared-input") {}

    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        const std::vector<Node_id>& convs = index.of_kind(Op_kind::conv2d);
        for (std::size_t i = 0; i < convs.size(); ++i) {
            for (std::size_t j = i + 1; j < convs.size(); ++j) {
                const Node& c1 = host.node(convs[i]);
                const Node& c2 = host.node(convs[j]);
                if (!(c1.params == c2.params)) continue;
                if (c1.params->groups != 1) continue;
                if (!(c1.inputs[0] == c2.inputs[0])) continue;
                const Shape& w1 = host.shape_of(c1.inputs[1]);
                const Shape& w2 = host.shape_of(c2.inputs[1]);
                // Filter geometry must agree for filter-bank concatenation.
                if (w1[1] != w2[1] || w1[2] != w2[2] || w1[3] != w2[3]) continue;
                if (c1.inputs[1] == c2.inputs[1]) continue;
                out.push_back(site_at(convs[i], convs[j]));
            }
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const auto [id1, id2] = site.nodes;
        const std::int64_t k1 = host.shape_of(host.node(id1).inputs[1])[0];
        const std::int64_t k2 = host.shape_of(host.node(id2).inputs[1])[0];
        const Edge x = host.node(id1).inputs[0];
        const Edge w1 = host.node(id1).inputs[1];
        const Edge w2 = host.node(id2).inputs[1];
        const Shared_params conv_params = host.node(id1).params;
        Op_params concat_params;
        concat_params.axis = 0; // filter-bank axis K
        const Node_id wc = g.add_node(Op_kind::concat, {w1, w2}, concat_params);
        const Node_id merged = g.add_node(Op_kind::conv2d, {x, {wc, 0}}, conv_params);

        Op_params split_params;
        split_params.axis = 1; // channel axis of the NCHW output
        split_params.split_sizes = {k1, k2};
        const Node_id sp = g.add_node(Op_kind::split, {{merged, 0}}, split_params);

        g.replace_all_uses({id1, 0}, {sp, 0}, view.index.users());
        g.replace_all_uses({id2, 0}, {sp, 1}, view.index.users());
        rewired = {{{id1, 0}, {sp, 0}}, {{id2, 0}, {sp, 1}}};
        return true;
    }
};

class Eliminate_split_concat_rule final : public Rewrite_rule {
public:
    Eliminate_split_concat_rule() : Rewrite_rule("eliminate-split-concat") {}

    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        for (const Node_id id : index.of_kind(Op_kind::concat)) {
            const Node& cat = host.node(id);
            // All inputs must be consecutive ports 0..n-1 of one split node.
            const Node_id split_id = cat.inputs.front().node;
            const Node& sp = host.node(split_id);
            if (sp.kind != Op_kind::split) continue;
            if (sp.params->axis != cat.params->axis) continue;
            if (cat.inputs.size() != sp.params->split_sizes.size()) continue;
            bool in_order = true;
            for (std::size_t port = 0; port < cat.inputs.size(); ++port) {
                if (cat.inputs[port].node != split_id ||
                    cat.inputs[port].port != static_cast<std::int32_t>(port)) {
                    in_order = false;
                    break;
                }
            }
            if (!in_order) continue;
            out.push_back(site_at(id));
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const Node_id id = site.nodes[0];
        const Edge replacement = host.node(host.node(id).inputs.front().node).inputs[0];
        g.replace_all_uses({id, 0}, replacement, view.index.users());
        rewired = {{{id, 0}, replacement}};
        return true;
    }
};

class Eliminate_concat_split_rule final : public Rewrite_rule {
public:
    Eliminate_concat_split_rule() : Rewrite_rule("eliminate-concat-split") {}

    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        for (const Node_id id : index.of_kind(Op_kind::split)) {
            const Node& sp = host.node(id);
            const Node_id cat_id = sp.inputs[0].node;
            const Node& cat = host.node(cat_id);
            if (cat.kind != Op_kind::concat) continue;
            if (cat.params->axis != sp.params->axis) continue;
            if (cat.inputs.size() != sp.params->split_sizes.size()) continue;
            bool sizes_match = true;
            const auto axis = static_cast<std::size_t>(cat.params->axis);
            for (std::size_t piece = 0; piece < cat.inputs.size(); ++piece) {
                if (host.shape_of(cat.inputs[piece])[axis] != sp.params->split_sizes[piece]) {
                    sizes_match = false;
                    break;
                }
            }
            if (!sizes_match) continue;
            out.push_back(site_at(id));
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const Node_id id = site.nodes[0];
        const Node_id cat_id = host.node(id).inputs[0].node;
        const std::size_t pieces = host.node(cat_id).inputs.size();
        rewired.clear();
        for (std::size_t piece = 0; piece < pieces; ++piece) {
            const Edge before{id, static_cast<std::int32_t>(piece)};
            const Edge after = host.node(cat_id).inputs[piece];
            g.replace_all_uses(before, after, view.index.users());
            rewired.push_back({before, after});
        }
        return true;
    }
};

class Fold_batch_norm_rule final : public Rewrite_rule {
public:
    Fold_batch_norm_rule() : Rewrite_rule("fold-batch-norm-into-conv") {}

    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        const auto& users = index.users();
        for (const Node_id id : index.of_kind(Op_kind::batch_norm)) {
            const Node& bn = host.node(id);
            const Node_id conv_id = bn.inputs[0].node;
            const Node& conv = host.node(conv_id);
            if (conv.kind != Op_kind::conv2d) continue;
            if (conv.params->activation != Activation::none) continue;
            // The conv output must feed only this batch norm.
            if (users[static_cast<std::size_t>(conv_id)].size() != 1) continue;
            if (is_graph_output(host, conv_id)) continue;
            out.push_back(site_at(id, conv_id));
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const auto [bn_id, conv_id] = site.nodes;
        const Node& bn = host.node(bn_id);
        const Node& conv = host.node(conv_id);
        const Edge x = conv.inputs[0];
        const Edge w = conv.inputs[1];
        const Edge gamma = bn.inputs[1];
        const Edge beta = bn.inputs[2];
        const Edge mean = bn.inputs[3];
        const Edge variance = bn.inputs[4];
        const std::int64_t k = host.shape_of(w)[0];
        const Shared_params conv_params = conv.params;
        const float eps = bn.params->epsilon;

        // d = gamma / sqrt(var + eps)   -- weight-only arithmetic.
        const Node_id eps_c = g.add_constant(Tensor::scalar(eps), "bn-eps");
        const Node_id var_eps = g.add_node(Op_kind::add, {variance, {eps_c, 0}});
        const Node_id stddev = g.add_node(Op_kind::sqrt, {{var_eps, 0}});
        const Node_id d = g.add_node(Op_kind::div, {gamma, {stddev, 0}});

        Op_params reshape_w;
        reshape_w.target_shape = {k, 1, 1, 1};
        const Node_id d_col = g.add_node(Op_kind::reshape, {{d, 0}}, reshape_w);
        const Node_id w_scaled = g.add_node(Op_kind::mul, {w, {d_col, 0}});

        const Node_id folded_conv = g.add_node(Op_kind::conv2d, {x, {w_scaled, 0}}, conv_params);

        // bias = beta - mean * d, broadcast over (1, K, 1, 1).
        const Node_id mean_d = g.add_node(Op_kind::mul, {mean, {d, 0}});
        const Node_id bias = g.add_node(Op_kind::sub, {beta, {mean_d, 0}});
        Op_params reshape_b;
        reshape_b.target_shape = {1, k, 1, 1};
        const Node_id bias_col = g.add_node(Op_kind::reshape, {{bias, 0}}, reshape_b);
        const Node_id y = g.add_node(Op_kind::add, {{folded_conv, 0}, {bias_col, 0}});

        g.replace_all_uses({bn_id, 0}, {y, 0}, view.index.users());
        rewired = {{{bn_id, 0}, {y, 0}}};
        return true;
    }
};

class Merge_conv_add_enlarge_rule final : public Rewrite_rule {
public:
    Merge_conv_add_enlarge_rule() : Rewrite_rule("merge-conv-add-enlarge") {}

    /// A site is an add of two convolutions that feed only it and can merge
    /// in at least one order; splice merges in the first order that can, the
    /// larger kernel hosting the enlarged smaller one. (Both orders can
    /// merge only when the kernels are the same size, and then the two
    /// splices mirror each other.)
    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        const auto& users = index.users();
        for (const Node_id id : index.of_kind(Op_kind::add)) {
            const Node& a = host.node(id);
            const Node_id lhs = a.inputs[0].node;
            const Node_id rhs = a.inputs[1].node;
            if (lhs == rhs) continue;
            if (host.node(lhs).kind != Op_kind::conv2d || host.node(rhs).kind != Op_kind::conv2d)
                continue;
            // Both convs must feed only the add.
            const auto feeds_only_add = [&](Node_id conv) {
                const auto& uses = users[static_cast<std::size_t>(conv)];
                return uses.size() == 1 && uses.front().user == id &&
                       !is_graph_output(host, conv);
            };
            if (!feeds_only_add(lhs) || !feeds_only_add(rhs)) continue;
            if (mergeable(host, lhs, rhs) || mergeable(host, rhs, lhs)) out.push_back(site_at(id));
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const Node_id id = site.nodes[0];
        const Node_id lhs = host.node(id).inputs[0].node;
        const Node_id rhs = host.node(id).inputs[1].node;
        for (const auto& [big, small] : {std::pair{lhs, rhs}, std::pair{rhs, lhs}}) {
            if (!mergeable(host, big, small)) continue;
            merge(g, view, id, big, small, rewired);
            return true;
        }
        return false;
    }

private:
    static bool mergeable(const Graph& host, Node_id big, Node_id small)
    {
        const Node& cb = host.node(big);
        const Node& cs = host.node(small);
        if (cb.params->activation != Activation::none || cs.params->activation != Activation::none)
            return false;
        if (cb.params->groups != 1 || cs.params->groups != 1) return false;
        if (cb.params->stride_h != cs.params->stride_h || cb.params->stride_w != cs.params->stride_w)
            return false;
        if (!(cb.inputs[0] == cs.inputs[0])) return false;
        const Shape& wb = host.shape_of(cb.inputs[1]);
        const Shape& ws = host.shape_of(cs.inputs[1]);
        if (wb[0] != ws[0] || wb[1] != ws[1]) return false;
        if (wb[2] < ws[2] || wb[3] < ws[3]) return false;
        if ((wb[2] - ws[2]) % 2 != 0 || (wb[3] - ws[3]) % 2 != 0) return false;
        // Padding must line up so the enlarged kernel sees the same window.
        if (cb.params->pad_h - cs.params->pad_h != (wb[2] - ws[2]) / 2) return false;
        if (cb.params->pad_w - cs.params->pad_w != (wb[3] - ws[3]) / 2) return false;
        return true;
    }

    static void merge(Graph_overlay& g, const Host_view& view, Node_id add_id, Node_id big,
                      Node_id small, std::vector<Rewired_edge>& rewired)
    {
        const Graph& host = view.graph;
        const Edge x = host.node(big).inputs[0];
        const Edge w_big = host.node(big).inputs[1];
        const Edge w_small = host.node(small).inputs[1];
        const Shared_params conv_params = host.node(big).params;
        const Shape& wb = host.shape_of(w_big);

        Op_params enlarge_params;
        enlarge_params.target_r = wb[2];
        enlarge_params.target_s = wb[3];
        const Node_id enlarged = g.add_node(Op_kind::enlarge, {w_small}, enlarge_params);
        const Node_id w_sum = g.add_node(Op_kind::add, {w_big, {enlarged, 0}});
        const Node_id merged = g.add_node(Op_kind::conv2d, {x, {w_sum, 0}}, conv_params);

        g.replace_all_uses({add_id, 0}, {merged, 0}, view.index.users());
        rewired = {{{add_id, 0}, {merged, 0}}};
    }
};

class Fold_embedding_projection_rule final : public Rewrite_rule {
public:
    Fold_embedding_projection_rule() : Rewrite_rule("fold-embedding-projection") {}

    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        const auto& users = index.users();
        for (const Node_id id : index.of_kind(Op_kind::matmul)) {
            const Node& mm = host.node(id);
            if (mm.params->activation != Activation::none) continue;
            const Node_id emb_id = mm.inputs[0].node;
            const Node& emb = host.node(emb_id);
            if (emb.kind != Op_kind::embedding) continue;
            // The embedding must feed only this projection.
            if (users[static_cast<std::size_t>(emb_id)].size() != 1) continue;
            if (is_graph_output(host, emb_id)) continue;
            if (host.shape_of(mm.inputs[1]).size() != 2) continue;
            out.push_back(site_at(id));
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const Node_id id = site.nodes[0];
        const Node_id emb_id = host.node(id).inputs[0].node;
        const Edge ids = host.node(emb_id).inputs[0];
        const Edge table = host.node(emb_id).inputs[1];
        const Edge projection = host.node(id).inputs[1];
        const Node_id folded_table = g.add_node(Op_kind::matmul, {table, projection});
        const Node_id folded = g.add_node(Op_kind::embedding, {ids, {folded_table, 0}});
        g.replace_all_uses({id, 0}, {folded, 0}, view.index.users());
        rewired = {{{id, 0}, {folded, 0}}};
        return true;
    }
};

} // namespace

std::unique_ptr<Rewrite_rule> make_merge_matmul_shared_lhs_rule()
{
    return std::make_unique<Merge_matmul_shared_lhs_rule>();
}

std::unique_ptr<Rewrite_rule> make_merge_conv_shared_input_rule()
{
    return std::make_unique<Merge_conv_shared_input_rule>();
}

std::unique_ptr<Rewrite_rule> make_eliminate_split_concat_rule()
{
    return std::make_unique<Eliminate_split_concat_rule>();
}

std::unique_ptr<Rewrite_rule> make_eliminate_concat_split_rule()
{
    return std::make_unique<Eliminate_concat_split_rule>();
}

std::unique_ptr<Rewrite_rule> make_fold_batch_norm_rule()
{
    return std::make_unique<Fold_batch_norm_rule>();
}

std::unique_ptr<Rewrite_rule> make_merge_conv_add_enlarge_rule()
{
    return std::make_unique<Merge_conv_add_enlarge_rule>();
}

std::unique_ptr<Rewrite_rule> make_fold_embedding_projection_rule()
{
    return std::make_unique<Fold_embedding_projection_rule>();
}

} // namespace xrl
