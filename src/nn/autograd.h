// Tape-based reverse-mode automatic differentiation.
//
// Substitutes for the paper's JAX stack: every op records a backward
// closure on a per-forward-pass tape; Tape::backward() sweeps the tape in
// reverse. Parameters live outside the tape and accumulate gradients
// across calls, so one optimiser step can consume several forward passes
// (PPO minibatches). The backward pass comes in two halves: a tape-local
// sweep that touches nothing outside the tape (so tapes can be swept
// concurrently) and an ordered accumulation into `Parameter::grad`.
//
// Each node records at push whether its value depends on a parameter; the
// sweep computes no gradient for nodes that do not (constants and
// everything derived only from constants), and releases every other
// node's gradient once it has been passed on, so a sweep holds only the
// gradients still in flight.
//
// The op set is exactly what the GNN encoder (Eqs. 6-8) and the PPO losses
// (Eqs. 3-5) need: dense matmul, broadcasted elementwise arithmetic, row
// gather / segment reductions for message passing, and a segment softmax
// for GAT attention.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "tensor/tensor.h"

namespace xrl {

/// A trainable tensor with a persistent gradient accumulator.
struct Parameter {
    Tensor value;
    Tensor grad;

    explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}
    void zero_grad() { std::fill(grad.values().begin(), grad.values().end(), 0.0F); }
};

/// One parameter node's gradient, as a tape sweep hands it back.
struct Parameter_grad {
    Parameter* parameter = nullptr;
    Tensor grad;
};

/// The ordered parameter accumulation: adds each gradient into its
/// `Parameter::grad`, front to back. Tape::backward() is a sweep followed
/// by this, so running it over several sweeps' results — last tape first —
/// reproduces what one tape holding all of them would accumulate.
void accumulate_parameter_grads(const std::vector<Parameter_grad>& grads);

class Tape;

/// Handle to a tape entry (cheap to copy; valid while the tape lives).
struct Var {
    int index = -1;

    bool valid() const { return index >= 0; }
};

class Tape {
public:
    // -- leaves ---------------------------------------------------------------

    /// Constant input (no gradient).
    Var constant(Tensor value);

    /// Trainable parameter; backward() accumulates into `p.grad`. The tape
    /// reads `p.value` once, here.
    Var param(Parameter& p);

    // -- arithmetic -----------------------------------------------------------

    Var add(Var a, Var b);       ///< Elementwise; b may broadcast (bias row/col/scalar).
    Var sub(Var a, Var b);       ///< Same-shape elementwise.
    Var mul(Var a, Var b);       ///< Elementwise; b may broadcast.
    Var scale(Var a, float factor);
    Var neg(Var a) { return scale(a, -1.0F); }

    Var matmul(Var a, Var b);    ///< 2-D matrix product.

    Var relu(Var a);
    Var leaky_relu(Var a, float slope);
    Var tanh(Var a);
    Var exp(Var a);
    Var log(Var a);              ///< Requires positive values.
    Var square(Var a) { return mul(a, a); }

    /// Elementwise min of two same-shape vars (gradient follows the winner).
    Var minimum(Var a, Var b);

    /// Clamp with zero gradient outside [lo, hi].
    Var clamp(Var a, float lo, float hi);

    // -- structure ------------------------------------------------------------

    /// Concatenate two 2-D vars along columns.
    Var concat_cols(Var a, Var b);

    /// Concatenate two 2-D vars along rows (either side may have 0 rows).
    Var concat_rows(Var a, Var b);

    /// out[r] = a[rows[r]] for a 2-D var; backward scatter-adds.
    Var gather_rows(Var a, std::vector<std::int64_t> rows);

    /// out[s] = sum of rows r with segments[r] == s (2-D); `num_segments`
    /// rows in the result.
    Var segment_sum(Var a, std::vector<std::int64_t> segments, std::int64_t num_segments);

    /// Softmax over each segment of a column vector (E x 1): rows sharing a
    /// segment id compete. Numerically stabilised per segment.
    Var segment_softmax(Var scores, std::vector<std::int64_t> segments, std::int64_t num_segments);

    /// Sum every element to a 1x1 scalar.
    Var sum_all(Var a);

    /// Mean of every element (1x1).
    Var mean_all(Var a);

    /// Pick a single element as a 1x1 scalar.
    Var pick(Var a, std::int64_t flat_index);

    // -- access ---------------------------------------------------------------

    const Tensor& value(Var v) const;
    /// Gradient of `v`. Only parameter nodes keep one after a sweep; every
    /// other node's is released once passed on (and never exists for nodes
    /// that depend on no parameter).
    const Tensor& grad(Var v) const;
    /// Whether `v`'s value depends on a parameter.
    bool requires_grad(Var v) const { return node(v).requires_grad; }
    std::size_t size() const { return nodes_.size(); }

    /// Tape-local reverse sweep from a scalar (1x1) loss: propagates the
    /// gradients through the tape and returns a copy of each parameter
    /// node's gradient in reverse tape order, the order backward()
    /// accumulates them in. Writes no Parameter, so distinct tapes may be
    /// swept concurrently.
    std::vector<Parameter_grad> sweep(Var loss);

    /// sweep(loss), then accumulate_parameter_grads() over its result.
    void backward(Var loss);

private:
    struct Node {
        Tensor value;
        Tensor grad;                    // lives during a sweep; kept on parameter nodes
        std::function<void()> backprop; // may be empty (leaves)
        Parameter* parameter = nullptr;
        bool requires_grad = false;
    };

    /// Appends a node; it requires a gradient when any input does.
    Var push(Tensor value, std::initializer_list<Var> inputs);
    Node& node(Var v);
    const Node& node(Var v) const;
    /// Gradient buffer of node `index` (zero-filled on first use), or null
    /// when it needs none.
    Tensor* input_grad(int index);
    const Tensor& node_grad(int index) const;
    const Tensor& node_value(int index) const;

    std::vector<Node> nodes_;
};

} // namespace xrl
