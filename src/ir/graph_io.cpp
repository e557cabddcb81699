#include "ir/graph_io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "support/check.h"
#include "support/reflect.h"

namespace xrl {

namespace {

Edge parse_edge_token(const std::string& token)
{
    const std::size_t colon = token.find(':');
    XRL_EXPECTS(colon != std::string::npos);
    return Edge{static_cast<Node_id>(std::stoi(token.substr(0, colon))),
                static_cast<std::int32_t>(std::stoi(token.substr(colon + 1)))};
}

} // namespace

void serialise_graph_text(std::ostream& os, const Graph& graph)
{
    // Canonical form: ids are renumbered to topological positions, so
    // serialise(load(serialise(g))) == serialise(g) regardless of how the
    // in-memory graph's id space looks after transformations.
    std::unordered_map<Node_id, Node_id> renumber;
    const auto order = graph.topo_order();
    for (std::size_t position = 0; position < order.size(); ++position)
        renumber.emplace(order[position], static_cast<Node_id>(position));

    os << "xrlflow-graph v1\n";
    for (const Node_id id : order) {
        const Node& n = graph.node(id);
        if (n.kind == Op_kind::constant) {
            XRL_EXPECTS(n.payload != nullptr);
            const Tensor& t = *n.payload;
            os << "const " << renumber.at(id) << " shape " << t.shape().size();
            for (const std::int64_t dim : t.shape()) os << ' ' << dim;
            os << " values " << t.volume();
            for (std::int64_t i = 0; i < t.volume(); ++i) os << ' ' << t.at(i);
            os << "\n";
            continue;
        }
        os << "node " << renumber.at(id) << ' ' << op_kind_name(n.kind) << " inputs "
           << n.inputs.size();
        for (const Edge& e : n.inputs) os << ' ' << renumber.at(e.node) << ':' << e.port;
        // Names must be single tokens in this line-oriented format.
        XRL_EXPECTS(n.name.find_first_of(" \t\n") == std::string::npos);
        os << " name " << (n.name.empty() ? "-" : n.name);
        const Shape shape = n.output_shapes.empty() ? Shape{} : n.output_shapes.front();
        os << " shape " << shape.size();
        for (const std::int64_t dim : shape) os << ' ' << dim;
        os << " { " << params_to_string(*n.params) << " }\n";
    }
    os << "outputs " << graph.outputs().size();
    for (const Edge& e : graph.outputs()) os << ' ' << renumber.at(e.node) << ':' << e.port;
    os << "\n";
}

Graph deserialise_graph_text(std::istream& is)
{
    std::string header;
    std::string version;
    is >> header >> version;
    XRL_EXPECTS(header == "xrlflow-graph" && version == "v1");

    Graph graph;
    std::unordered_map<Node_id, Node_id> id_map;
    std::string token;
    while (is >> token) {
        if (token == "node") {
            Node_id file_id = 0;
            std::string kind_name;
            std::string marker;
            std::size_t num_inputs = 0;
            is >> file_id >> kind_name >> marker >> num_inputs;
            XRL_EXPECTS(marker == "inputs");
            std::vector<Edge> inputs;
            inputs.reserve(num_inputs);
            for (std::size_t i = 0; i < num_inputs; ++i) {
                std::string edge_token;
                is >> edge_token;
                const Edge e = parse_edge_token(edge_token);
                inputs.push_back(Edge{id_map.at(e.node), e.port});
            }
            is >> marker;
            XRL_EXPECTS(marker == "name");
            std::string name;
            is >> name;
            if (name == "-") name.clear();
            is >> marker;
            XRL_EXPECTS(marker == "shape");
            std::size_t rank = 0;
            is >> rank;
            Shape shape(rank);
            for (auto& dim : shape) is >> dim;
            is >> marker;
            XRL_EXPECTS(marker == "{");
            std::string params_text;
            std::string word;
            while (is >> word && word != "}") {
                if (!params_text.empty()) params_text += ' ';
                params_text += word;
            }
            const Op_kind kind = op_kind_from_name(kind_name);
            const Node_id id =
                graph.add_node(kind, std::move(inputs), params_from_string(params_text), name);
            if (is_source(kind)) graph.node_mut(id).output_shapes = {shape};
            id_map.emplace(file_id, id);
        } else if (token == "const") {
            Node_id file_id = 0;
            std::string marker;
            is >> file_id >> marker;
            XRL_EXPECTS(marker == "shape");
            std::size_t rank = 0;
            is >> rank;
            Shape shape(rank);
            for (auto& dim : shape) is >> dim;
            is >> marker;
            XRL_EXPECTS(marker == "values");
            std::int64_t count = 0;
            is >> count;
            XRL_EXPECTS(count == shape_volume(shape));
            std::vector<float> values(static_cast<std::size_t>(count));
            for (auto& v : values) is >> v;
            const Node_id id = graph.add_constant(Tensor(std::move(shape), std::move(values)));
            id_map.emplace(file_id, id);
        } else if (token == "outputs") {
            std::size_t num_outputs = 0;
            is >> num_outputs;
            std::vector<Edge> outputs;
            outputs.reserve(num_outputs);
            for (std::size_t i = 0; i < num_outputs; ++i) {
                std::string edge_token;
                is >> edge_token;
                const Edge e = parse_edge_token(edge_token);
                outputs.push_back(Edge{id_map.at(e.node), e.port});
            }
            graph.set_outputs(std::move(outputs));
            graph.infer_shapes();
            graph.validate();
            return graph;
        } else {
            XRL_EXPECTS(false && "unexpected token in graph file");
        }
    }
    XRL_EXPECTS(false && "graph file missing outputs record");
    return graph;
}

// ---------------------------------------------------------------------------
// Binary (bit-exact) form
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t graph_binary_version = 1;

// Drift guards: a new Op_params field must join the field list below, and
// a new Node field the whole-graph loop.
static_assert(aggregate_field_count<Op_params> == 21,
              "Op_params changed: update its field list fields(Io&, Op_params&) in "
              "ir/graph_io.cpp (and this count)");
static_assert(aggregate_field_count<Node> == 6,
              "Node changed: update serialise_graph_binary / deserialise_graph_binary "
              "(and this count)");

constexpr Op_kind last_op_kind =
    static_cast<Op_kind>(static_cast<std::uint8_t>(Op_kind::count_) - 1);

/// Edge targets must index the slot array before anything dereferences
/// them; aliveness is checked once every slot has been read.
void check_edges(const std::vector<Edge>& edges, std::size_t capacity)
{
    for (const Edge& e : edges)
        if (e.node < 0 || static_cast<std::size_t>(e.node) >= capacity)
            throw std::runtime_error("graph binary: edge references node " +
                                     std::to_string(e.node) + " outside capacity " +
                                     std::to_string(capacity));
}

/// Computed without overflowing: corrupt dims must not reach
/// shape_volume's unchecked product.
bool volume_matches(const Shape& shape, std::uint64_t volume)
{
    std::uint64_t product = 1;
    for (const std::int64_t dim : shape)
        if (dim < 0 || __builtin_mul_overflow(product, static_cast<std::uint64_t>(dim), &product))
            return false;
    return product == volume;
}

} // namespace

template <class Io, Record_of<Op_params> T>
void fields(Io& io, T& params)
{
    io.enumerated(params.activation, Activation::none, Activation::sigmoid, "activation");
    io.i64(params.stride_h);
    io.i64(params.stride_w);
    io.i64(params.pad_h);
    io.i64(params.pad_w);
    io.i64(params.groups);
    io.i64(params.kernel_h);
    io.i64(params.kernel_w);
    io.i64(params.axis);
    io.list(params.split_sizes);
    io.i64(params.begin);
    io.i64(params.end);
    io.list(params.perm);
    io.list(params.target_shape);
    io.list(params.pads_before);
    io.list(params.pads_after);
    io.i64(params.target_r);
    io.i64(params.target_s);
    io.f32(params.epsilon);
    io.f32(params.scalar);
    io.flag(params.keep_dim);
}

template <class Io, Record_of<Edge> T>
void fields(Io& io, T& edge)
{
    io.i32(edge.node);
    io.i32(edge.port);
}

void serialise_graph_binary(Byte_writer& out, const Graph& graph)
{
    out.version(graph_binary_version, "graph binary");
    out.u32(static_cast<std::uint32_t>(graph.nodes_.size()));
    for (std::size_t id = 0; id < graph.nodes_.size(); ++id) {
        const bool alive = graph.alive_[id] != 0;
        out.flag(alive);
        // Tombstone slots hold Node{} (erase_node resets them) — the alive
        // flag alone reconstructs them exactly.
        if (!alive) continue;
        const Node& n = graph.nodes_[id];
        out.enumerated(n.kind, Op_kind::input, last_op_kind, "op kind");
        fields(out, *n.params);
        out.list(n.inputs);
        out.list(n.output_shapes);
        out.flag(n.payload != nullptr);
        if (n.payload != nullptr) {
            out.list(n.payload->shape());
            out.u64(static_cast<std::uint64_t>(n.payload->volume()));
            for (std::int64_t i = 0; i < n.payload->volume(); ++i) out.f32(n.payload->at(i));
        }
        out.str(n.name);
    }
    out.list(graph.outputs_);
}

Graph deserialise_graph_binary(Byte_reader& in)
{
    in.version(graph_binary_version, "graph binary");
    const std::uint32_t capacity = in.u32();
    in.expect_items(capacity, 1); // at least the alive byte per slot
    in.charge_slots(capacity);

    Graph graph;
    graph.nodes_.resize(capacity);
    graph.alive_.assign(capacity, 0);
    for (std::uint32_t id = 0; id < capacity; ++id) {
        if (in.u8() == 0) continue; // tombstone: Node{} stays
        Node& n = graph.nodes_[id];
        in.enumerated(n.kind, Op_kind::input, last_op_kind, "op kind");
        Op_params params;
        fields(in, params);
        n.params = std::move(params);
        in.list(n.inputs);
        check_edges(n.inputs, capacity);
        std::vector<Shape> shapes;
        in.list(shapes);
        n.output_shapes = Shape_list(std::move(shapes));
        if (in.u8() != 0) {
            Shape shape;
            in.list(shape);
            const std::uint64_t volume = in.u64();
            if (!volume_matches(shape, volume))
                throw std::runtime_error("graph binary: payload volume mismatch");
            in.expect_items(volume, sizeof(float));
            std::vector<float> values(static_cast<std::size_t>(volume));
            for (auto& v : values) v = in.f32();
            n.payload = std::make_shared<const Tensor>(std::move(shape), std::move(values));
        }
        n.name = in.str();
        graph.alive_[id] = 1;
        ++graph.alive_count_;
    }
    // Edge targets are validated only now: rewrites leave alive nodes
    // whose inputs reference *higher* ids, so aliveness is undecidable
    // until every slot has been read.
    for (std::uint32_t id = 0; id < capacity; ++id) {
        if (graph.alive_[id] == 0) continue;
        for (const Edge& e : graph.nodes_[id].inputs)
            if (graph.alive_[static_cast<std::size_t>(e.node)] == 0)
                throw std::runtime_error("graph binary: input references a dead node");
    }
    in.list(graph.outputs_);
    check_edges(graph.outputs_, capacity);
    for (const Edge& e : graph.outputs_)
        if (graph.alive_[static_cast<std::size_t>(e.node)] == 0)
            throw std::runtime_error("graph binary: output references a dead node");
    return graph;
}

void save_graph(const std::string& path, const Graph& graph)
{
    std::ofstream os(path);
    XRL_EXPECTS(os.good());
    serialise_graph_text(os, graph);
}

Graph load_graph(const std::string& path)
{
    std::ifstream is(path);
    XRL_EXPECTS(is.good());
    return deserialise_graph_text(is);
}

} // namespace xrl
