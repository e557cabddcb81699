#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/agent.h"
#include "core/xrlflow.h"
#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "gnn/encoding.h"
#include "gnn/gnn.h"
#include "ir/builder.h"
#include "models/models.h"
#include "rl/categorical.h"
#include "rules/corpus.h"

namespace xrl {
namespace {

Graph small_graph()
{
    Graph_builder b;
    const Edge x = b.input({4, 8});
    const Edge w = b.weight({8, 8});
    return b.finish({b.relu(b.matmul(x, w))});
}

TEST(Encoding, CountsNodesAndEdges)
{
    const Graph g = small_graph();
    const Encoded_graph enc = encode_graph_for_gnn(g);
    EXPECT_EQ(enc.num_nodes, 4);
    EXPECT_EQ(enc.num_graphs, 1);
    EXPECT_EQ(enc.edge_src.size(), 3u);                     // matmul(2) + relu(1)
    EXPECT_EQ(enc.attn_src.size(), enc.edge_src.size() + 4); // + self loops
    EXPECT_EQ(enc.edge_features.shape(), (Shape{3, edge_feature_dim}));
}

TEST(Encoding, EdgeFeaturesAreNormalisedShapes)
{
    const Graph g = small_graph();
    const Encoded_graph enc = encode_graph_for_gnn(g);
    // Every edge of this graph carries a rank-2 shape -> leading two
    // feature slots zero, trailing two are dims / 4096.
    for (std::int64_t e = 0; e < enc.edge_features.dim(0); ++e) {
        EXPECT_EQ(enc.edge_features.at(e * edge_feature_dim + 0), 0.0F);
        EXPECT_EQ(enc.edge_features.at(e * edge_feature_dim + 1), 0.0F);
        EXPECT_GT(enc.edge_features.at(e * edge_feature_dim + 3), 0.0F);
        EXPECT_LT(enc.edge_features.at(e * edge_feature_dim + 3), 1.0F);
    }
}

TEST(Encoding, MetaGraphOffsetsMembers)
{
    const Graph g = small_graph();
    const Graph h = small_graph();
    const Encoded_graph enc = encode_meta_graph(g, {&h, &h});
    EXPECT_EQ(enc.num_graphs, 3);
    EXPECT_EQ(enc.num_nodes, 12);
    // Node-graph assignment is contiguous per member.
    EXPECT_EQ(enc.node_graph[0], 0);
    EXPECT_EQ(enc.node_graph[4], 1);
    EXPECT_EQ(enc.node_graph[8], 2);
    // Edges stay within their member's node range.
    for (std::size_t e = 0; e < enc.edge_src.size(); ++e)
        EXPECT_EQ(enc.node_graph[static_cast<std::size_t>(enc.edge_src[e])],
                  enc.node_graph[static_cast<std::size_t>(enc.edge_dst[e])]);
}

TEST(Encoding, OneHotFeatures)
{
    const Graph g = small_graph();
    const Encoded_graph enc = encode_graph_for_gnn(g);
    const Tensor features = one_hot_node_features(enc);
    EXPECT_EQ(features.shape(), (Shape{4, op_kind_count()}));
    for (std::int64_t row = 0; row < 4; ++row) {
        float total = 0.0F;
        for (std::int64_t c = 0; c < op_kind_count(); ++c) total += features.at(row * op_kind_count() + c);
        EXPECT_EQ(total, 1.0F);
    }
}

TEST(Encoding, MemoryAccountingIsPositive)
{
    const Graph g = small_graph();
    const Encoded_graph enc = encode_graph_for_gnn(g);
    EXPECT_GT(enc.memory_bytes(), 0u);
}

TEST(GnnLayers, NodeUpdateShapes)
{
    Rng rng(20);
    const Graph g = small_graph();
    const Encoded_graph enc = encode_graph_for_gnn(g);
    Node_update_layer layer(op_kind_count(), 16, rng);
    Tape tape;
    const Var h = layer(tape, tape.constant(one_hot_node_features(enc)), enc);
    EXPECT_EQ(tape.value(h).shape(), (Shape{4, 16}));
}

TEST(GnnLayers, GatPreservesWidth)
{
    Rng rng(21);
    const Graph g = small_graph();
    const Encoded_graph enc = encode_graph_for_gnn(g);
    Node_update_layer nu(op_kind_count(), 16, rng);
    Gat_layer gat(16, 0.2F, rng);
    Tape tape;
    Var h = nu(tape, tape.constant(one_hot_node_features(enc)), enc);
    h = gat(tape, h, enc);
    EXPECT_EQ(tape.value(h).shape(), (Shape{4, 16}));
}

TEST(GnnLayers, GlobalUpdateProducesPerGraphRows)
{
    Rng rng(22);
    const Graph g = small_graph();
    const Encoded_graph enc = encode_meta_graph(g, {&g, &g, &g});
    Node_update_layer nu(op_kind_count(), 16, rng);
    Global_update_layer gu(16, 8, rng);
    Tape tape;
    Var h = nu(tape, tape.constant(one_hot_node_features(enc)), enc);
    const Var graphs = gu(tape, h, enc);
    EXPECT_EQ(tape.value(graphs).shape(), (Shape{4, 8}));
}

TEST(GnnEncoder, EndToEndShapesAndDeterminism)
{
    Gnn_config config;
    config.hidden_dim = 16;
    config.global_dim = 12;
    config.num_gat_layers = 2;
    Rng rng(23);
    Gnn_encoder encoder(config, rng);

    const Graph g = small_graph();
    const Encoded_graph enc = encode_meta_graph(g, {&g});

    Tape t1;
    const auto out1 = encoder(t1, enc);
    EXPECT_EQ(t1.value(out1.node_embeddings).shape(), (Shape{8, 16}));
    EXPECT_EQ(t1.value(out1.graph_embeddings).shape(), (Shape{2, 12}));

    Tape t2;
    const auto out2 = encoder(t2, enc);
    EXPECT_TRUE(Tensor::all_close(t1.value(out2.graph_embeddings),
                                  t2.value(out2.graph_embeddings), 0.0F));
}

TEST(GnnEncoder, DistinguishesDifferentGraphs)
{
    Gnn_config config;
    config.hidden_dim = 16;
    config.global_dim = 12;
    config.num_gat_layers = 2;
    Rng rng(24);
    Gnn_encoder encoder(config, rng);

    Graph_builder b1;
    const Edge x1 = b1.input({4, 8});
    const Edge w1 = b1.weight({8, 8});
    const Graph with_relu = b1.finish({b1.relu(b1.matmul(x1, w1))});

    Graph_builder b2;
    const Edge x2 = b2.input({4, 8});
    const Edge w2 = b2.weight({8, 8});
    const Graph fused = b2.finish({b2.matmul(x2, w2, Activation::relu)});

    const Encoded_graph enc = encode_meta_graph(with_relu, {&fused});
    Tape tape;
    const auto out = encoder(tape, enc);
    const Tensor& emb = tape.value(out.graph_embeddings);
    float diff = 0.0F;
    for (std::int64_t c = 0; c < emb.dim(1); ++c)
        diff += std::abs(emb.at(c) - emb.at(emb.dim(1) + c));
    EXPECT_GT(diff, 1e-6F);
}

TEST(GnnEncoder, GradientsReachAllParameters)
{
    Gnn_config config;
    config.hidden_dim = 8;
    config.global_dim = 8;
    config.num_gat_layers = 2;
    Rng rng(25);
    Gnn_encoder encoder(config, rng);

    const Graph g = small_graph();
    const Encoded_graph enc = encode_meta_graph(g, {&g});

    for (Parameter* p : encoder.parameters()) p->zero_grad();
    Tape tape;
    const auto out = encoder(tape, enc);
    tape.backward(tape.sum_all(tape.square(out.graph_embeddings)));

    int touched = 0;
    for (Parameter* p : encoder.parameters()) {
        float norm = 0.0F;
        for (std::int64_t i = 0; i < p->grad.volume(); ++i) norm += std::abs(p->grad.at(i));
        if (norm > 0.0F) ++touched;
    }
    // All parameter blocks participate (bias of the last GAT may be dead if
    // relu saturates; allow one laggard).
    EXPECT_GE(touched, static_cast<int>(encoder.parameters().size()) - 1);
}

/// Field-by-field bitwise equality of two encodings (EXPECT_EQ on floats:
/// the Meta_encoder's warm-buffer reuse must not perturb a single bit).
void expect_encodings_identical(const Encoded_graph& a, const Encoded_graph& b)
{
    EXPECT_EQ(a.node_kinds, b.node_kinds);
    EXPECT_EQ(a.edge_src, b.edge_src);
    EXPECT_EQ(a.edge_dst, b.edge_dst);
    EXPECT_EQ(a.attn_src, b.attn_src);
    EXPECT_EQ(a.attn_dst, b.attn_dst);
    EXPECT_EQ(a.node_graph, b.node_graph);
    EXPECT_EQ(a.num_nodes, b.num_nodes);
    EXPECT_EQ(a.num_graphs, b.num_graphs);
    ASSERT_EQ(a.edge_features.shape(), b.edge_features.shape());
    for (std::int64_t i = 0; i < a.edge_features.volume(); ++i)
        EXPECT_EQ(a.edge_features.at(i), b.edge_features.at(i)) << "edge feature " << i;
}

TEST(Encoding, MetaEncoderMatchesFreeFunctionBitExactly)
{
    // Distinct member graphs so a row-offset bug cannot hide behind
    // identical encodings; candidate sets grow *and* shrink across calls so
    // stale tail entries in the reused buffers would be caught.
    const Graph current = make_bert(Scale::smoke, 16);
    const Graph a = small_graph();
    Graph_builder b2;
    const Edge x = b2.input({2, 16});
    const Edge w = b2.weight({16, 4});
    const Graph b = b2.finish({b2.matmul(x, w, Activation::relu)});

    Meta_encoder encoder;
    const std::vector<std::vector<const Graph*>> calls = {
        {&a}, {&a, &b, &a}, {&b}, {}, {&b, &a}};
    for (const auto& candidates : calls) {
        const Encoded_graph& warm = encoder.encode(current, candidates);
        const Encoded_graph fresh = encode_meta_graph(current, candidates);
        expect_encodings_identical(warm, fresh);
    }
}

TEST(GnnEncoder, BatchedMemberRowsMatchSingleCandidateEncoding)
{
    // The one-batched-forward optimisation is only sound because the GNN
    // treats meta-graph members as disjoint components: member k's
    // embedding in a K-candidate batch must equal (bit-identically) the
    // candidate row of a current+that-candidate-only encoding.
    Gnn_config config;
    config.hidden_dim = 16;
    config.global_dim = 12;
    config.num_gat_layers = 2;
    Rng rng(27);
    Gnn_encoder encoder(config, rng);

    const Graph current = small_graph();
    Graph_builder b1;
    const Edge x1 = b1.input({4, 8});
    const Edge w1 = b1.weight({8, 8});
    const Graph fused = b1.finish({b1.matmul(x1, w1, Activation::relu)});
    Graph_builder b2;
    const Edge x2 = b2.input({2, 4});
    const Graph unary = b2.finish({b2.relu(b2.relu(x2))});
    const std::vector<const Graph*> candidates = {&fused, &unary, &fused};

    Tape batched_tape;
    const auto batched =
        encoder(batched_tape, encode_meta_graph(current, candidates));
    const Tensor& rows = batched_tape.value(batched.graph_embeddings);
    ASSERT_EQ(rows.dim(0), static_cast<std::int64_t>(candidates.size()) + 1);

    for (std::size_t k = 0; k < candidates.size(); ++k) {
        Tape tape;
        const auto single = encoder(tape, encode_meta_graph(current, {candidates[k]}));
        const Tensor& pair = tape.value(single.graph_embeddings);
        ASSERT_EQ(pair.dim(0), 2);
        for (std::int64_t c = 0; c < rows.dim(1); ++c) {
            // Member 0 (the current graph) and member k+1 (the candidate).
            EXPECT_EQ(rows.at(c), pair.at(c)) << "current row, col " << c;
            EXPECT_EQ(rows.at((static_cast<std::int64_t>(k) + 1) * rows.dim(1) + c),
                      pair.at(rows.dim(1) + c))
                << "candidate " << k << ", col " << c;
        }
    }
}

TEST(GnnEncoder, HandlesRealModelGraph)
{
    const Graph model = make_squeezenet(Scale::smoke, 64);
    const Encoded_graph enc = encode_graph_for_gnn(model);
    EXPECT_GT(enc.num_nodes, 30);

    Gnn_config config;
    config.hidden_dim = 16;
    config.global_dim = 16;
    config.num_gat_layers = 2;
    Rng rng(26);
    Gnn_encoder encoder(config, rng);
    Tape tape;
    const auto out = encoder(tape, enc);
    EXPECT_EQ(tape.value(out.graph_embeddings).dim(0), 1);
}

// ---------------------------------------------------------------------------
// Compact meta-graph encoding: the behaviour-time form must give the full
// form's logits, value and graph embeddings bit for bit.
// ---------------------------------------------------------------------------

/// Bitwise equality of two tensors (EXPECT_EQ on floats would let -0.0
/// and +0.0 pass as equal).
bool same_bits(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.volume()) * sizeof(float)) ==
               0;
}

/// One state to encode: a host and its candidates.
struct Walk_state {
    std::string label;
    Graph host;
    std::vector<Graph> candidates;
    bool env_step = false;      ///< The environment's own state of a walk step.
    int bespoke_candidates = 0; ///< Candidates made by bespoke rules.
};

/// States along a seeded environment walk of `model`, plus, per walked
/// host, a state of every bespoke rule's rewrites (the environment's cap
/// can cut them off: they come last in the corpus) with the host itself
/// as one more candidate.
std::vector<Walk_state> walk_states(const std::string& name, const Graph& model,
                                    const Rule_set& rules, std::uint64_t seed)
{
    E2e_simulator simulator(gtx1080_profile(), seed);
    Env_config config;
    config.max_candidates = 31;
    config.per_rule_limit = 16;
    Environment env(model, rules, simulator, config);
    Rng rng(seed);
    std::vector<Walk_state> states;
    for (int step = 0; step < 4 && !env.done(); ++step) {
        const std::string label = name + " step " + std::to_string(step);
        Walk_state walked{label, env.current_graph(), {}, true, 0};
        for (const Candidate& c : env.candidates()) walked.candidates.push_back(*c.graph);
        states.push_back(std::move(walked));

        Walk_state bespoke{label + " bespoke", env.current_graph(), {}, false, 0};
        for (const auto& rule : rules) {
            if (dynamic_cast<const Pattern_rule*>(rule.get()) != nullptr) continue;
            for (Graph& g : rule->apply_all(env.current_graph(), 2))
                bespoke.candidates.push_back(std::move(g));
        }
        bespoke.bespoke_candidates = static_cast<int>(bespoke.candidates.size());
        bespoke.candidates.push_back(env.current_graph());
        states.push_back(std::move(bespoke));

        const int live = static_cast<int>(env.candidates().size());
        env.step(live > 0 ? static_cast<int>(rng.uniform_index(static_cast<std::size_t>(live)))
                          : env.noop_action());
    }
    return states;
}

TEST(CompactEncoding, MatchesFullEncodingBitForBitAlongEnvWalks)
{
    const Rule_set rules = standard_rule_corpus();
    std::vector<Walk_state> states;
    for (auto& part : {walk_states("bert", make_bert(Scale::smoke, 16), rules, 3),
                       walk_states("vit", make_vit(Scale::smoke, 32), rules, 5),
                       walk_states("inception", make_inception_v3(Scale::smoke, 64), rules, 7)})
        for (const Walk_state& state : part) states.push_back(state);
    const Graph lone = make_bert(Scale::smoke, 16);
    states.push_back({"no candidates", lone, {}, false, 0});
    states.push_back({"only the host", lone, {lone}, false, 0});

    Agent_config config;
    config.gnn.hidden_dim = 16;
    config.gnn.global_dim = 16;
    config.head_hidden = {32, 16};
    config.max_candidates = 63;
    const int hops = config.gnn.num_gat_layers;
    Agent agent(config, 41);
    Rng rng(43);
    Gnn_encoder encoder(config.gnn, rng);

    Meta_encoder meta;
    int real_steps = 0;
    int bespoke_candidates = 0;
    for (const Walk_state& state : states) {
        SCOPED_TRACE(state.label);
        std::vector<const Graph*> candidates;
        for (const Graph& g : state.candidates) candidates.push_back(&g);
        ASSERT_LE(static_cast<int>(candidates.size()), config.max_candidates);
        const Encoded_graph full = meta.encode(state.host, candidates);
        const Encoded_graph& compact = meta.encode_compact(state.host, candidates, hops);
        const bool real_step = state.env_step && !candidates.empty();
        bespoke_candidates += state.bespoke_candidates;

        // The readout covers every row of the full meta-graph.
        EXPECT_EQ(compact.node_graph, full.node_graph);
        EXPECT_EQ(compact.num_graphs, full.num_graphs);
        EXPECT_LE(compact.num_nodes, full.num_nodes);
        if (real_step) {
            ++real_steps;
            EXPECT_LT(compact.num_nodes, full.num_nodes);
        }

        Tape full_tape;
        const Agent::Forward full_fwd = agent.forward(full_tape, full);
        const Var full_embeddings = encoder(full_tape, full).graph_embeddings;
        Tape compact_tape;
        const Agent::Forward compact_fwd = agent.forward(compact_tape, compact);
        const Var compact_embeddings = encoder(compact_tape, compact).graph_embeddings;
        EXPECT_TRUE(same_bits(full_tape.value(full_fwd.logits),
                              compact_tape.value(compact_fwd.logits)));
        EXPECT_TRUE(same_bits(full_tape.value(full_fwd.value),
                              compact_tape.value(compact_fwd.value)));
        EXPECT_TRUE(same_bits(full_tape.value(full_embeddings),
                              compact_tape.value(compact_embeddings)));

        // The cone is no wider than it must be: one hop short, some
        // candidate's embedding moves.
        if (real_step) {
            Tape short_tape;
            const Var short_embeddings =
                encoder(short_tape, meta.encode_compact(state.host, candidates, hops - 1))
                    .graph_embeddings;
            EXPECT_FALSE(same_bits(full_tape.value(full_embeddings),
                                   short_tape.value(short_embeddings)));
        }
    }
    EXPECT_GE(real_steps, 9);
    EXPECT_GT(bespoke_candidates, 0);
}

/// expect_encodings_identical plus the readout rows, and the edge features
/// compared as bits.
void expect_same_encoding(const Encoded_graph& a, const Encoded_graph& b)
{
    expect_encodings_identical(a, b);
    EXPECT_EQ(a.readout_rows, b.readout_rows);
    EXPECT_TRUE(same_bits(a.edge_features, b.edge_features));
}

TEST(CompactEncoding, OverlaysEncodeAsTheirMaterialisedGraphs)
{
    // The rollout loops encode the environment's candidates as overlays on
    // its current graph, without materialising them: both forms must be
    // the encodings of the graphs candidates() materialises.
    const Rule_set rules = standard_rule_corpus();
    const std::vector<std::pair<std::string, Graph>> models = {
        {"bert", make_bert(Scale::smoke, 16)},
        {"vit", make_vit(Scale::smoke, 32)},
        {"inception", make_inception_v3(Scale::smoke, 64)}};
    const int hops = Gnn_config{}.num_gat_layers;
    int compared = 0;
    for (const auto& [name, model] : models) {
        E2e_simulator simulator(gtx1080_profile(), 17);
        Env_config config;
        config.max_candidates = 31;
        config.per_rule_limit = 16;
        Environment env(model, rules, simulator, config);
        Rng rng(19);
        Meta_encoder from_overlays;
        Meta_encoder from_graphs;
        for (int step = 0; step < 6 && !env.done(); ++step) {
            SCOPED_TRACE(name + " step " + std::to_string(step));
            const std::vector<Graph_reader>& overlays = env.candidate_overlays();
            std::vector<const Graph*> graphs;
            for (const Candidate& c : env.candidates()) graphs.push_back(c.graph);
            ASSERT_EQ(overlays.size(), graphs.size());
            const Graph& current = env.current_graph();
            expect_same_encoding(from_overlays.encode(current, overlays),
                                 from_graphs.encode(current, graphs));
            expect_same_encoding(from_overlays.encode_compact(current, overlays, hops),
                                 from_graphs.encode_compact(current, graphs, hops));
            compared += static_cast<int>(graphs.size());
            const int live = static_cast<int>(graphs.size());
            env.step(live > 0 ? static_cast<int>(rng.uniform_index(static_cast<std::size_t>(live)))
                              : env.noop_action());
        }
    }
    EXPECT_GT(compared, 100);
}

TEST(CompactEncoding, NodeWithOtherProducersIsOneHopBelowAChange)
{
    // The candidate's only difference: the chain's first relu reads a
    // weight where the host's reads an input of the same shape. That
    // relu's node-update row is the host's and its GAT rows are not, so
    // the cone reaches exactly num_gat_layers relus deep: one hop less
    // and the embeddings move.
    Graph_builder b;
    const Edge x = b.input({4, 8});
    const Edge w = b.weight({4, 8});
    Edge h = b.relu(x);
    const Node_id first = h.node;
    for (int i = 0; i < 6; ++i) h = b.relu(h);
    const Graph host = b.finish({h, w});
    Graph candidate = host;
    candidate.node_mut(first).inputs[0] = w;

    Gnn_config config;
    config.hidden_dim = 8;
    config.global_dim = 8;
    config.num_gat_layers = 3;
    Rng rng(5);
    Gnn_encoder encoder(config, rng);
    Meta_encoder meta;
    Tape full_tape;
    const Var full = encoder(full_tape, meta.encode(host, {&candidate})).graph_embeddings;
    for (int hops = 0; hops <= config.num_gat_layers; ++hops) {
        const Encoded_graph& compact = meta.encode_compact(host, {&candidate}, hops);
        EXPECT_EQ(compact.num_nodes, static_cast<std::int64_t>(host.size()) + hops) << hops;
        Tape tape;
        const Var embeddings = encoder(tape, compact).graph_embeddings;
        EXPECT_EQ(same_bits(full_tape.value(full), tape.value(embeddings)),
                  hops == config.num_gat_layers)
            << hops;
    }
}

TEST(CompactEncoding, CandidateEqualToTheHostAddsNoRows)
{
    const Graph host = make_vit(Scale::smoke, 32);
    Meta_encoder meta;
    const Encoded_graph& compact = meta.encode_compact(host, {&host, &host}, 5);
    EXPECT_EQ(compact.num_nodes, static_cast<std::int64_t>(host.size()));
    EXPECT_EQ(compact.node_graph.size(), 3 * host.size());
    // Each copy's readout is the host's rows in the host's order.
    const auto n = static_cast<std::ptrdiff_t>(host.size());
    const std::vector<std::int64_t> host_rows(compact.readout_rows.begin(),
                                              compact.readout_rows.begin() + n);
    EXPECT_EQ(std::vector<std::int64_t>(compact.readout_rows.begin() + n,
                                        compact.readout_rows.begin() + 2 * n),
              host_rows);
}

// ---------------------------------------------------------------------------
// Bit-identity golden fingerprints. The nn/tensor kernels promise the same
// float operations in the same order for every output element, so a kernel
// rewrite must leave these hashes untouched. A change here means the
// policy's decisions (and every exact benchmark number) may have moved.
// The constants were recorded on an x86-64 build (SSE2, no FMA, glibc libm).
// ---------------------------------------------------------------------------

/// FNV-1a over the bit patterns of a tensor's floats.
std::uint64_t hash_float_bits(std::uint64_t h, const Tensor& t)
{
    for (const float x : t.values()) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xFFU;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ULL;

Agent_config golden_agent_config()
{
    Agent_config config;
    config.gnn.hidden_dim = 16;
    config.gnn.global_dim = 12;
    config.gnn.num_gat_layers = 3;
    config.head_hidden = {24, 8};
    config.max_candidates = 7;
    return config;
}

TEST(GoldenFingerprint, AgentForwardAndGradientsAreBitIdentical)
{
    const Graph current = make_bert(Scale::smoke, 16);
    const Graph small = small_graph();
    Graph_builder b;
    const Edge x = b.input({4, 8});
    const Edge w = b.weight({8, 8});
    const Graph fused = b.finish({b.matmul(x, w, Activation::relu)});
    const Encoded_graph state = encode_meta_graph(current, {&small, &fused, &current});

    Agent agent(golden_agent_config(), 2024);
    for (Parameter* p : agent.parameters()) p->zero_grad();
    Tape tape;
    const Agent::Forward fwd = agent.forward(tape, state);

    // One PPO-style item loss (Eqs. 3-5) so every tape op the trainer uses
    // contributes to the gradients.
    const std::vector<std::uint8_t> mask = {1, 1, 0, 1, 0, 0, 0, 1};
    const Categorical_vars dist = masked_categorical(tape, fwd.logits, mask);
    const Var log_prob = tape.pick(dist.log_probs, 1);
    const Var ratio = tape.exp(tape.add(log_prob, tape.constant(Tensor(Shape{1, 1}, {1.25F}))));
    const Var objective = tape.minimum(tape.scale(ratio, 0.7F),
                                       tape.scale(tape.clamp(ratio, 0.8F, 1.2F), 0.7F));
    const Var value_error =
        tape.square(tape.add(fwd.value, tape.constant(Tensor(Shape{1, 1}, {-0.3F}))));
    Var loss = tape.add(tape.neg(objective), tape.scale(value_error, 0.5F));
    loss = tape.add(loss, tape.scale(dist.entropy, -0.01F));
    tape.backward(loss);

    std::uint64_t forward_hash = hash_float_bits(fnv_offset, tape.value(fwd.logits));
    forward_hash = hash_float_bits(forward_hash, tape.value(fwd.value));
    std::uint64_t grad_hash = fnv_offset;
    for (const Parameter* p : agent.parameters()) grad_hash = hash_float_bits(grad_hash, p->grad);
    EXPECT_EQ(forward_hash, 0x6a8861987b2798baULL);
    EXPECT_EQ(grad_hash, 0xe55ea3cea4b56867ULL);
}

TEST(GoldenFingerprint, TrainThenOptimiseBestGraphIsBitIdentical)
{
    const Rule_set rules = standard_rule_corpus();
    Xrlflow_config config;
    config.agent = golden_agent_config();
    config.agent.max_candidates = 15;
    config.env.max_steps = 6;
    config.trainer.update_every_episodes = 2;
    config.trainer.ppo.minibatch_size = 4;
    config.trainer.ppo.epochs = 1;
    config.inference_rollouts = 2;
    Xrlflow system(rules, config);

    const Graph model = make_bert(Scale::smoke, 8);
    system.train(model, 2);
    const Optimisation_outcome outcome = system.optimise(model);
    EXPECT_NE(outcome.best_graph.canonical_hash(), model.canonical_hash());
    EXPECT_EQ(outcome.best_graph.canonical_hash(), 0x1ce7973ece96406eULL);
    EXPECT_EQ(outcome.steps, 6);
}

TEST(GoldenFingerprint, PpoUpdateParametersAreBitIdentical)
{
    // Every parameter after training: two PPO updates of two epochs each
    // over 5 and 12 transitions, in minibatches of 5 — the second update
    // runs 5, 5 and a short 2 — so the hash covers the per-minibatch
    // gradient sums, the short minibatch's loss scale and every Adam step.
    const Rule_set rules = standard_rule_corpus();
    Xrlflow_config config;
    config.agent = golden_agent_config();
    config.agent.max_candidates = 15;
    config.env.max_steps = 6;
    config.trainer.update_every_episodes = 2;
    config.trainer.ppo.minibatch_size = 5;
    config.trainer.ppo.epochs = 2;
    Xrlflow system(rules, config);

    system.train(make_bert(Scale::smoke, 8), 4);
    int transitions = 0;
    for (const Episode_stats& episode : system.training_history()) transitions += episode.steps;
    EXPECT_EQ(transitions, 17);

    std::uint64_t hash = fnv_offset;
    for (const Parameter* p : system.agent().parameters()) hash = hash_float_bits(hash, p->value);
    EXPECT_EQ(hash, 0x8c87e63bb9d09878ULL);
}

} // namespace
} // namespace xrl
