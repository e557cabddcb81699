#include "optimizers/pet/pet_optimizer.h"

#include "rules/corpus.h"

namespace xrl {

namespace {

bool pet_counts_op(Op_kind kind)
{
    switch (kind) {
    case Op_kind::matmul:
    case Op_kind::conv2d:
    case Op_kind::max_pool2d:
    case Op_kind::avg_pool2d:
    case Op_kind::global_avg_pool:
    case Op_kind::batch_norm:
    case Op_kind::layer_norm:
    case Op_kind::softmax:
    case Op_kind::reduce_sum:
    case Op_kind::reduce_mean:
    case Op_kind::embedding:
        return true;
    default:
        return false; // element-wise + data movement: invisible to PET
    }
}

class Pet_spatial_split_rule final : public Rewrite_rule {
public:
    Pet_spatial_split_rule() : Rewrite_rule("pet-spatial-split") {}

    void find_sites(const Graph& host, const Host_index& index, std::size_t /*limit*/,
                    std::vector<Rewrite_site>& out) const override
    {
        for (const Node_id id : index.of_kind(Op_kind::conv2d)) {
            const Node& conv = host.node(id);
            if (conv.params->stride_h != 1 || conv.params->stride_w != 1) continue;
            const Shape& out_shape = host.shape_of({id, 0});
            if (out_shape[2] < 4) continue; // too small to be worth splitting
            Rewrite_site site;
            site.nodes[0] = id;
            out.push_back(std::move(site));
        }
    }

    bool splice(const Host_view& view, const Rewrite_site& site, Graph_overlay& g,
                std::vector<Rewired_edge>& rewired) const override
    {
        const Graph& host = view.graph;
        const Node_id conv_id = site.nodes[0];
        const Edge x = host.node(conv_id).inputs[0];
        const Edge w = host.node(conv_id).inputs[1];
        const Op_params& conv_params = *host.node(conv_id).params;
        const Shape& w_shape = host.shape_of(w);
        const Shape& out_shape = host.shape_of({conv_id, 0});
        const std::int64_t r = w_shape[2];
        const std::int64_t oh = out_shape[2];
        const std::int64_t h1 = oh / 2;

        Op_params pad_params;
        pad_params.pads_before = {0, 0, conv_params.pad_h, conv_params.pad_w};
        pad_params.pads_after = {0, 0, conv_params.pad_h, conv_params.pad_w};
        const Node_id padded = g.add_node(Op_kind::pad, {x}, pad_params);

        Op_params top_params;
        top_params.axis = 2;
        top_params.begin = 0;
        top_params.end = h1 + r - 1;
        const Node_id top = g.add_node(Op_kind::slice, {{padded, 0}}, top_params);

        Op_params bottom_params;
        bottom_params.axis = 2;
        bottom_params.begin = h1;
        bottom_params.end = oh + r - 1;
        const Node_id bottom = g.add_node(Op_kind::slice, {{padded, 0}}, bottom_params);

        Op_params piece_conv = conv_params;
        piece_conv.pad_h = 0;
        piece_conv.pad_w = 0;
        const Node_id conv_top = g.add_node(Op_kind::conv2d, {{top, 0}, w}, piece_conv);
        const Node_id conv_bottom = g.add_node(Op_kind::conv2d, {{bottom, 0}, w}, piece_conv);

        Op_params cat_params;
        cat_params.axis = 2;
        const Node_id cat =
            g.add_node(Op_kind::concat, {{conv_top, 0}, {conv_bottom, 0}}, cat_params);

        g.replace_all_uses({conv_id, 0}, {cat, 0}, view.index.users());
        rewired = {{{conv_id, 0}, {cat, 0}}};
        return true;
    }
};

} // namespace

// PET predicts latency from flop counts of the compute-heavy kernels:
// element-wise/data-movement ops are invisible (§2.2.2) and so are
// kernel-launch overheads and occupancy effects. This blindness is what
// makes PET shape-sensitive: it cannot see the wins (or losses) of
// launch-bound graphs such as grouped-convolution ResNext.
std::int64_t Pet_cost::term(const Graph_reader& g, Node_id id) const
{
    return pet_counts_op(g.node(id).kind) ? node_flops(g, id) : 0;
}

double Pet_cost::finish(const Kind_sums& sums) const
{
    double total = 0.0;
    for (std::size_t k = 0; k < sums.size(); ++k) {
        if (sums[k] == 0) continue;
        const auto kind = static_cast<Op_kind>(k);
        total += static_cast<double>(sums[k]) /
                 (device_->efficiency(kind) * device_->flops_per_ms);
    }
    return total;
}

double pet_graph_cost_ms(const Cost_model& cost, const Graph& g)
{
    return Pet_cost(cost.device()).graph_cost_ms(g);
}

std::unique_ptr<Rewrite_rule> make_pet_spatial_split_rule()
{
    return std::make_unique<Pet_spatial_split_rule>();
}

Optimize_result optimise_pet(const Graph& input, const Cost_model& cost, const Taso_config& config)
{
    // Rules are immutable and their builds pure, so one corpus serves every
    // search in the process, concurrent ones included.
    static const Rule_set rules = [] {
        Rule_set corpus = standard_rule_corpus();
        corpus.push_back(make_pet_spatial_split_rule());
        return corpus;
    }();

    // The latency fields report the *honest* cost model — PET's own
    // element-wise-blind estimate is only metadata, because trusting it is
    // exactly the failure mode the paper documents (§2.2.2).
    Optimize_result result = optimise_taso(input, rules, Pet_cost(cost.device()), config);
    const double believed_ms = result.final_ms;
    result.initial_ms = cost.graph_cost_ms(input);
    result.final_ms = cost.graph_cost_ms(result.best_graph);
    result.metadata = {{"pet_believed_ms", believed_ms}, {"honest_ms", result.final_ms}};
    return result;
}

} // namespace xrl
