#include "rules/serialization.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "support/check.h"

namespace xrl {

namespace {

// Textual format (one token stream per rule):
//
//   rule <name>
//   graph source|target
//     node <id> <kind> inputs <n> <node>:<port>... shape <rank> <dims...> { <params> }
//     outputs <n> <node>:<port>...
//   param_mode <node> ignore
//   required_activation <node> <activation>
//   equal_params <a> <b>
//   transfer <target-node> <source-node> <activation|->
//   endrule

void serialise_graph(std::ostream& os, const char* label, const Graph& g)
{
    os << "graph " << label << "\n";
    for (const Node_id id : g.node_ids()) {
        const Node& n = g.node(id);
        // Constant payloads are not representable in the text format;
        // patterns that need literals stay programmatic (bespoke rules).
        XRL_EXPECTS(n.kind != Op_kind::constant);
        os << "  node " << id << ' ' << op_kind_name(n.kind) << " inputs " << n.inputs.size();
        for (const Edge& e : n.inputs) os << ' ' << e.node << ':' << e.port;
        // Source-kind nodes carry their sample shape so round-trips are
        // faithful (matching itself ignores shapes).
        const Shape shape = n.output_shapes.empty() ? Shape{} : n.output_shapes.front();
        os << " shape " << shape.size();
        for (const std::int64_t dim : shape) os << ' ' << dim;
        os << " { " << params_to_string(*n.params) << " }\n";
    }
    os << "  outputs " << g.outputs().size();
    for (const Edge& e : g.outputs()) os << ' ' << e.node << ':' << e.port;
    os << "\n";
}

Edge parse_edge(const std::string& token)
{
    const std::size_t colon = token.find(':');
    XRL_EXPECTS(colon != std::string::npos);
    return Edge{static_cast<Node_id>(std::stoi(token.substr(0, colon))),
                static_cast<std::int32_t>(std::stoi(token.substr(colon + 1)))};
}

Graph deserialise_graph(std::istream& is)
{
    Graph g;
    std::unordered_map<Node_id, Node_id> id_map; // file id -> graph id
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
                const Edge e = parse_edge(edge_token);
                const auto it = id_map.find(e.node);
                XRL_EXPECTS(it != id_map.end());
                inputs.push_back(Edge{it->second, e.port});
            }
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
            const Node_id id = g.add_node(kind, std::move(inputs), params_from_string(params_text));
            // Not `= {shape}`: GCC 12 misreports that initializer list as
            // -Wfree-nonheap-object under -fsanitize=thread -O2.
            if (is_source(kind)) g.node_mut(id).output_shapes = std::vector<Shape>(1, shape);
            id_map.emplace(file_id, id);
        } else if (token == "outputs") {
            std::size_t num_outputs = 0;
            is >> num_outputs;
            std::vector<Edge> outputs;
            outputs.reserve(num_outputs);
            for (std::size_t i = 0; i < num_outputs; ++i) {
                std::string edge_token;
                is >> edge_token;
                const Edge e = parse_edge(edge_token);
                outputs.push_back(Edge{id_map.at(e.node), e.port});
            }
            g.set_outputs(std::move(outputs));
            return g;
        } else {
            XRL_EXPECTS(false && "unexpected token in graph block");
        }
    }
    XRL_EXPECTS(false && "unterminated graph block");
    return g;
}

} // namespace

void serialise_patterns(std::ostream& os, const std::vector<Pattern>& patterns)
{
    os << "# xrlflow rewrite rules v1\n";
    for (const Pattern& p : patterns) {
        os << "rule " << p.name << "\n";
        serialise_graph(os, "source", p.source);
        serialise_graph(os, "target", p.target);
        for (const auto& [node, mode] : p.param_modes)
            if (mode == Param_match::ignore) os << "param_mode " << node << " ignore\n";
        for (const auto& [node, act] : p.required_activation)
            os << "required_activation " << node << ' ' << activation_name(act) << "\n";
        for (const auto& [a, b] : p.equal_params) os << "equal_params " << a << ' ' << b << "\n";
        for (const auto& [node, transfer] : p.param_transfers) {
            os << "transfer " << node << ' ' << transfer.from_source_node << ' ';
            if (transfer.set_activation.has_value())
                os << activation_name(*transfer.set_activation);
            else
                os << '-';
            os << "\n";
        }
        os << "endrule\n";
    }
}

std::vector<Pattern> deserialise_patterns(std::istream& is)
{
    std::vector<Pattern> patterns;
    std::string token;
    Pattern current;
    bool in_rule = false;
    while (is >> token) {
        if (token == "#") {
            std::string rest;
            std::getline(is, rest);
        } else if (token.starts_with("#")) {
            std::string rest;
            std::getline(is, rest);
        } else if (token == "rule") {
            XRL_EXPECTS(!in_rule);
            current = Pattern{};
            is >> current.name;
            in_rule = true;
        } else if (token == "graph") {
            XRL_EXPECTS(in_rule);
            std::string which;
            is >> which;
            if (which == "source")
                current.source = deserialise_graph(is);
            else if (which == "target")
                current.target = deserialise_graph(is);
            else
                XRL_EXPECTS(false && "graph must be source or target");
        } else if (token == "param_mode") {
            Node_id node = 0;
            std::string mode;
            is >> node >> mode;
            XRL_EXPECTS(mode == "ignore");
            current.param_modes[node] = Param_match::ignore;
        } else if (token == "required_activation") {
            Node_id node = 0;
            std::string act;
            is >> node >> act;
            current.required_activation[node] = activation_from_name(act);
        } else if (token == "equal_params") {
            Node_id a = 0;
            Node_id b = 0;
            is >> a >> b;
            current.equal_params.emplace_back(a, b);
        } else if (token == "transfer") {
            Node_id node = 0;
            Node_id from = 0;
            std::string act;
            is >> node >> from >> act;
            Param_transfer transfer;
            transfer.from_source_node = from;
            if (act != "-") transfer.set_activation = activation_from_name(act);
            current.param_transfers[node] = transfer;
        } else if (token == "endrule") {
            XRL_EXPECTS(in_rule);
            current.finalise();
            patterns.push_back(std::move(current));
            in_rule = false;
        } else {
            XRL_EXPECTS(false && "unexpected top-level token");
        }
    }
    XRL_EXPECTS(!in_rule);
    return patterns;
}

void save_patterns(const std::string& path, const std::vector<Pattern>& patterns)
{
    std::ofstream os(path);
    XRL_EXPECTS(os.good());
    serialise_patterns(os, patterns);
}

std::vector<Pattern> load_patterns(const std::string& path)
{
    std::ifstream is(path);
    XRL_EXPECTS(is.good());
    return deserialise_patterns(is);
}

} // namespace xrl
