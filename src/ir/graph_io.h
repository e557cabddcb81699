// Textual (de)serialisation of computation graphs.
//
// Plays the role of the ONNX import/export interface in §3.1: models enter
// the system from a portable description and optimised graphs can be
// exported for deployment. The format is line-oriented and stable:
//
//   xrlflow-graph v1
//   node <id> <kind> inputs <n> <node>:<port>... shape <rank> <dims...> { <params> }
//   const <id> shape <rank> <dims...> values <count> <floats...>
//   outputs <n> <node>:<port>...
#pragma once

#include <iosfwd>
#include <string>

#include "ir/graph.h"
#include "support/record_file.h"

namespace xrl {

void serialise_graph_text(std::ostream& os, const Graph& graph);
Graph deserialise_graph_text(std::istream& is);

void save_graph(const std::string& path, const Graph& graph);
Graph load_graph(const std::string& path);

/// Bit-exact binary form, used by the warm-start state store (the memo
/// table persists whole Optimize_results, graphs included). Unlike the
/// text format above — which canonicalises ids and prints floats at
/// ostream precision — this preserves the graph's exact representation:
/// the id space with its tombstones, every parameter field, and
/// bit-patterns for all floating-point data, so a deserialised graph
/// re-serialises to identical bytes and compares bit-identical to the
/// original.
void serialise_graph_binary(Byte_writer& out, const Graph& graph);

/// Inverse of serialise_graph_binary. Throws std::runtime_error on
/// malformed or truncated input (the state store catches, counts, and
/// skips); never reads past the input's bounds. The graph's slot count is
/// charged against the reader's slot budget before any slot is allocated.
Graph deserialise_graph_binary(Byte_reader& in);

/// The binary form as a field of an enclosing record's field list.
inline void fields(Byte_writer& out, const Graph& graph) { serialise_graph_binary(out, graph); }
inline void fields(Byte_reader& in, Graph& graph) { graph = deserialise_graph_binary(in); }

} // namespace xrl
