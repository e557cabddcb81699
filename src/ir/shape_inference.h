// Per-operator output shape inference.
#pragma once

#include <vector>

#include "ir/graph.h"
#include "ir/graph_overlay.h"

namespace xrl {

/// Compute the output shapes of `id` from its inputs' (already inferred)
/// shapes. Source nodes (input/weight) return their pre-assigned shapes;
/// constants return their payload shape. Throws Contract_violation on
/// malformed operands.
std::vector<Shape> infer_output_shapes(const Graph_reader& graph, Node_id id);

/// Re-inference never replaces a source's construction-time shapes: true
/// for an input or weight that has them. (Every other node keeps its
/// Shape_list allocation when the inferred shapes equal it, so graph copies
/// keep sharing it.)
bool keeps_existing_shapes(const Node& n);

} // namespace xrl
