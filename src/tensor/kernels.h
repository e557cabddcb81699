// CPU kernels for every operator in the graph IR, plus the transposed
// matrix product the autograd tape's matmul backward needs.
//
// They define the *semantics* that rewrite rules must preserve (the
// property-test suite and the TASO-style rule generator execute graphs
// through them on random inputs) and they carry the GNN encoder and the PPO
// losses. Contract: the hot ops have flat paths for contiguous 2-D data
// (same-shape and row/column-broadcast elementwise, tiled and
// matrix-vector matmul, transposed product), and every output element sees
// the same float
// operations in the same order as the generic path would give it, so a
// fast path never changes a bit of a result. Nothing relies on FMA
// contraction or fast-math reassociation.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace xrl {

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

/// NumPy-style broadcast of two shapes; throws Contract_violation when the
/// shapes are incompatible.
Shape broadcast_shapes(const Shape& a, const Shape& b);

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float negative_slope);
Tensor gelu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor exp_op(const Tensor& a);
Tensor sqrt_op(const Tensor& a);
Tensor erf_op(const Tensor& a);
Tensor scale(const Tensor& a, float factor);

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// Matrix product. Supports (m,k)x(k,n); (b,m,k)x(b,k,n); and
/// (b,m,k)x(k,n) with the right-hand side broadcast over the batch.
Tensor matmul(const Tensor& a, const Tensor& b);

/// a (k,m)^T x b (k,n) -> (m,n) without materialising a^T; bit-identical
/// to matmul(transpose_last2(a), b).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Permute axes; `perm` must be a permutation of [0, rank).
Tensor transpose(const Tensor& a, const std::vector<std::int64_t>& perm);

/// Swap the last two axes (the IR's default transpose).
Tensor transpose_last2(const Tensor& a);

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

Tensor concat(const std::vector<Tensor>& parts, std::int64_t axis);

/// Split along `axis` into pieces of the given sizes (must sum to the
/// extent of `axis`).
std::vector<Tensor> split(const Tensor& a, std::int64_t axis, const std::vector<std::int64_t>& sizes);

/// Half-open slice [begin, end) along `axis`.
Tensor slice(const Tensor& a, std::int64_t axis, std::int64_t begin, std::int64_t end);

/// Zero-pad: `before`/`after` give the padding per axis.
Tensor pad(const Tensor& a, const std::vector<std::int64_t>& before, const std::vector<std::int64_t>& after);

// ---------------------------------------------------------------------------
// Convolution / pooling (NCHW)
// ---------------------------------------------------------------------------

struct Conv2d_spec {
    std::int64_t stride_h = 1;
    std::int64_t stride_w = 1;
    std::int64_t pad_h = 0;
    std::int64_t pad_w = 0;
    std::int64_t groups = 1;
};

/// input (N,C,H,W) * weight (K,C/groups,R,S) -> (N,K,H',W').
Tensor conv2d(const Tensor& input, const Tensor& weight, const Conv2d_spec& spec);

struct Pool2d_spec {
    std::int64_t kernel_h = 2;
    std::int64_t kernel_w = 2;
    std::int64_t stride_h = 2;
    std::int64_t stride_w = 2;
    std::int64_t pad_h = 0;
    std::int64_t pad_w = 0;
};

Tensor max_pool2d(const Tensor& input, const Pool2d_spec& spec);
Tensor avg_pool2d(const Tensor& input, const Pool2d_spec& spec);

/// (N,C,H,W) -> (N,C,1,1) mean over the spatial extent.
Tensor global_avg_pool(const Tensor& input);

// ---------------------------------------------------------------------------
// Normalisation / attention building blocks
// ---------------------------------------------------------------------------

/// Inference-mode batch norm over channel axis 1 of an NCHW tensor.
Tensor batch_norm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                  const Tensor& mean, const Tensor& variance, float epsilon);

/// Layer norm over the last axis with learned gamma/beta (1-D of that size).
Tensor layer_norm(const Tensor& input, const Tensor& gamma, const Tensor& beta, float epsilon);

/// Softmax along the last axis.
Tensor softmax(const Tensor& input);

Tensor reduce_sum(const Tensor& input, std::int64_t axis, bool keep_dim);
Tensor reduce_mean(const Tensor& input, std::int64_t axis, bool keep_dim);

/// Row gather: ids (any shape, values are row indices) from table
/// (rows, width) -> ids.shape + [width].
Tensor embedding(const Tensor& ids, const Tensor& table);

/// Pad a conv kernel (K,C,R,S) spatially to (K,C,R',S') centred, zeros
/// elsewhere (TASO's "enlarge" operator).
Tensor enlarge_kernel(const Tensor& weight, std::int64_t target_r, std::int64_t target_s);

} // namespace xrl
