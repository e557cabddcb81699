// Operator vocabulary of the tensor-graph IR.
//
// Mirrors the TASO operator set the paper builds on: roughly forty operator
// kinds (§3.3.2 "around 40 different tensor operators"), with kernel-fusable
// activations expressed as a parameter on matmul/conv2d exactly as TASO's
// fused kernels do.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace xrl {

enum class Op_kind : std::uint8_t {
    // Sources.
    input,      ///< Graph input (variable in rewrite patterns).
    weight,     ///< Trainable parameter; constant during inference.
    constant,   ///< Literal tensor with payload.

    // Dense linear algebra.
    matmul,     ///< 2-D or batched matrix product; optional fused activation.
    conv2d,     ///< NCHW convolution; optional fused activation; grouped.

    // Elementwise unary.
    relu,
    leaky_relu,
    gelu,
    sigmoid,
    tanh,
    exp,
    sqrt,
    erf,
    identity,
    dropout,    ///< Identity at inference time; kept to mirror ONNX imports.
    scale,      ///< Multiply by a scalar parameter.

    // Elementwise binary.
    add,
    sub,
    mul,
    div,

    // Pooling.
    max_pool2d,
    avg_pool2d,
    global_avg_pool,

    // Normalisation / attention.
    batch_norm,
    layer_norm,
    softmax,

    // Shape manipulation.
    concat,
    split,
    slice,
    reshape,
    transpose,
    pad,

    // Reductions.
    reduce_sum,
    reduce_mean,

    // Misc.
    embedding,  ///< Row gather from a table.
    enlarge,    ///< Pad a conv kernel spatially (TASO's enlarge operator).

    count_      ///< Number of operator kinds (one-hot width for the GNN).
};

/// Fused activation applied by matmul/conv2d kernels.
enum class Activation : std::uint8_t { none, relu, gelu, tanh, sigmoid };

constexpr int op_kind_count()
{
    return static_cast<int>(Op_kind::count_);
}

const char* op_kind_name(Op_kind kind);
const char* activation_name(Activation activation);

/// Inverse of op_kind_name; throws on unknown names (used by the rule
/// deserialiser).
Op_kind op_kind_from_name(const std::string& name);
Activation activation_from_name(const std::string& name);

/// add/mul are commutative in their two inputs; the pattern matcher tries
/// both input orders for these.
bool is_commutative(Op_kind kind);

/// Unary ops that apply the same scalar function to every element.
bool is_elementwise_unary(Op_kind kind);

/// Binary elementwise ops (with broadcasting).
bool is_elementwise_binary(Op_kind kind);

/// True for input/weight/constant (no compute, no inputs).
bool is_source(Op_kind kind);

/// Parameters attached to a node. A single aggregate keeps the IR simple;
/// each op reads only the fields it defines (documented per field).
struct Op_params {
    Activation activation = Activation::none;  ///< matmul, conv2d

    // conv2d / pooling geometry.
    std::int64_t stride_h = 1;
    std::int64_t stride_w = 1;
    std::int64_t pad_h = 0;
    std::int64_t pad_w = 0;
    std::int64_t groups = 1;      ///< conv2d
    std::int64_t kernel_h = 0;    ///< pooling
    std::int64_t kernel_w = 0;    ///< pooling

    std::int64_t axis = 0;        ///< concat, split, slice, reduce_*
    std::vector<std::int64_t> split_sizes;   ///< split
    std::int64_t begin = 0;       ///< slice
    std::int64_t end = 0;         ///< slice
    std::vector<std::int64_t> perm;          ///< transpose (empty = swap last two)
    std::vector<std::int64_t> target_shape;  ///< reshape
    std::vector<std::int64_t> pads_before;   ///< pad
    std::vector<std::int64_t> pads_after;    ///< pad
    std::int64_t target_r = 0;    ///< enlarge
    std::int64_t target_s = 0;    ///< enlarge

    float epsilon = 1e-5F;        ///< batch_norm, layer_norm
    float scalar = 1.0F;          ///< scale factor / leaky_relu slope
    bool keep_dim = true;         ///< reduce_*

    bool operator==(const Op_params&) const = default;
};

/// The mixing step of every structural hash here (parameters, graphs):
/// Boost-style, with a 64-bit golden-ratio constant.
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value)
{
    return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// Stable hash of the parameter block (order-sensitive over all fields).
std::uint64_t hash_params(const Op_params& params);

/// Immutable, structurally-shared parameter block: one Op_params and its
/// hash_params, computed once when the block is made. Nothing edits a
/// node's params in place (a rewrite that changes them makes a new block),
/// so graph copies share one block per node, as Shape_list shares output
/// shapes, and hashing a node reads the cached hash. The null handle stands
/// for default params: it holds no allocation, and copying it touches no
/// reference count.
class Shared_params {
public:
    Shared_params() = default;
    Shared_params(Op_params params)
        : block_(params == Op_params{}
                     ? nullptr
                     : std::make_shared<const Block>(std::move(params)))
    {
    }

    const Op_params& operator*() const { return block_ == nullptr ? defaults() : block_->params; }
    const Op_params* operator->() const { return &**this; }

    /// hash_params(**this), cached.
    std::uint64_t hash() const { return block_ == nullptr ? default_hash() : block_->hash; }

    /// A new block equal to this one but for its fused activation.
    Shared_params with_activation(Activation activation) const
    {
        Op_params changed = **this;
        changed.activation = activation;
        return changed;
    }

    /// Value equality. A block equals itself; otherwise the cached hashes
    /// are compared before the values.
    friend bool operator==(const Shared_params& a, const Shared_params& b)
    {
        return a.block_ == b.block_ || (a.hash() == b.hash() && *a == *b);
    }

    /// True when both handles share one block (not merely equal values).
    bool shares_storage_with(const Shared_params& other) const
    {
        return block_ != nullptr && block_ == other.block_;
    }

    /// Handles referencing this block (0 for default params).
    long use_count() const { return block_ == nullptr ? 0 : block_.use_count(); }

private:
    struct Block {
        explicit Block(Op_params p) : params(std::move(p)), hash(hash_params(params)) {}
        Op_params params;
        std::uint64_t hash;
    };

    static const Op_params& defaults()
    {
        static const Op_params none;
        return none;
    }
    static std::uint64_t default_hash()
    {
        static const std::uint64_t h = hash_params(Op_params{});
        return h;
    }

    std::shared_ptr<const Block> block_;
};

/// Compact "k=v" rendering of the non-default parameter fields.
std::string params_to_string(const Op_params& params);

/// Inverse of params_to_string (used by the rule (de)serialiser). Throws on
/// malformed input.
Op_params params_from_string(const std::string& text);

} // namespace xrl
