#include "ir/op.h"

#include <sstream>
#include <unordered_map>

#include "support/check.h"

namespace xrl {

namespace {

struct Kind_entry {
    Op_kind kind;
    const char* name;
};

constexpr Kind_entry kind_table[] = {
    {Op_kind::input, "input"},
    {Op_kind::weight, "weight"},
    {Op_kind::constant, "constant"},
    {Op_kind::matmul, "matmul"},
    {Op_kind::conv2d, "conv2d"},
    {Op_kind::relu, "relu"},
    {Op_kind::leaky_relu, "leaky_relu"},
    {Op_kind::gelu, "gelu"},
    {Op_kind::sigmoid, "sigmoid"},
    {Op_kind::tanh, "tanh"},
    {Op_kind::exp, "exp"},
    {Op_kind::sqrt, "sqrt"},
    {Op_kind::erf, "erf"},
    {Op_kind::identity, "identity"},
    {Op_kind::dropout, "dropout"},
    {Op_kind::scale, "scale"},
    {Op_kind::add, "add"},
    {Op_kind::sub, "sub"},
    {Op_kind::mul, "mul"},
    {Op_kind::div, "div"},
    {Op_kind::max_pool2d, "max_pool2d"},
    {Op_kind::avg_pool2d, "avg_pool2d"},
    {Op_kind::global_avg_pool, "global_avg_pool"},
    {Op_kind::batch_norm, "batch_norm"},
    {Op_kind::layer_norm, "layer_norm"},
    {Op_kind::softmax, "softmax"},
    {Op_kind::concat, "concat"},
    {Op_kind::split, "split"},
    {Op_kind::slice, "slice"},
    {Op_kind::reshape, "reshape"},
    {Op_kind::transpose, "transpose"},
    {Op_kind::pad, "pad"},
    {Op_kind::reduce_sum, "reduce_sum"},
    {Op_kind::reduce_mean, "reduce_mean"},
    {Op_kind::embedding, "embedding"},
    {Op_kind::enlarge, "enlarge"},
};

static_assert(sizeof(kind_table) / sizeof(kind_table[0]) == static_cast<std::size_t>(Op_kind::count_),
              "kind_table must cover every Op_kind");

constexpr const char* activation_table[] = {"none", "relu", "gelu", "tanh", "sigmoid"};

std::uint64_t hash_i64(std::int64_t v)
{
    auto x = static_cast<std::uint64_t>(v);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

std::uint64_t hash_vector(const std::vector<std::int64_t>& v)
{
    std::uint64_t h = 0x1234abcdULL;
    for (const std::int64_t x : v) h = hash_combine(h, hash_i64(x));
    return hash_combine(h, v.size());
}

} // namespace

const char* op_kind_name(Op_kind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    XRL_EXPECTS(index < static_cast<std::size_t>(Op_kind::count_));
    return kind_table[index].name;
}

const char* activation_name(Activation activation)
{
    return activation_table[static_cast<std::size_t>(activation)];
}

Op_kind op_kind_from_name(const std::string& name)
{
    static const std::unordered_map<std::string, Op_kind> lookup = [] {
        std::unordered_map<std::string, Op_kind> m;
        for (const auto& e : kind_table) m.emplace(e.name, e.kind);
        return m;
    }();
    const auto it = lookup.find(name);
    XRL_EXPECTS(it != lookup.end());
    return it->second;
}

Activation activation_from_name(const std::string& name)
{
    for (std::size_t i = 0; i < sizeof(activation_table) / sizeof(activation_table[0]); ++i)
        if (name == activation_table[i]) return static_cast<Activation>(i);
    XRL_EXPECTS(false && "unknown activation name");
    return Activation::none;
}

bool is_commutative(Op_kind kind)
{
    return kind == Op_kind::add || kind == Op_kind::mul;
}

bool is_elementwise_unary(Op_kind kind)
{
    switch (kind) {
    case Op_kind::relu:
    case Op_kind::leaky_relu:
    case Op_kind::gelu:
    case Op_kind::sigmoid:
    case Op_kind::tanh:
    case Op_kind::exp:
    case Op_kind::sqrt:
    case Op_kind::erf:
    case Op_kind::identity:
    case Op_kind::dropout:
    case Op_kind::scale:
        return true;
    default:
        return false;
    }
}

bool is_elementwise_binary(Op_kind kind)
{
    switch (kind) {
    case Op_kind::add:
    case Op_kind::sub:
    case Op_kind::mul:
    case Op_kind::div:
        return true;
    default:
        return false;
    }
}

bool is_source(Op_kind kind)
{
    return kind == Op_kind::input || kind == Op_kind::weight || kind == Op_kind::constant;
}

std::uint64_t hash_params(const Op_params& p)
{
    std::uint64_t h = 0x5bd1e995ULL;
    h = hash_combine(h, static_cast<std::uint64_t>(p.activation));
    h = hash_combine(h, hash_i64(p.stride_h));
    h = hash_combine(h, hash_i64(p.stride_w));
    h = hash_combine(h, hash_i64(p.pad_h));
    h = hash_combine(h, hash_i64(p.pad_w));
    h = hash_combine(h, hash_i64(p.groups));
    h = hash_combine(h, hash_i64(p.kernel_h));
    h = hash_combine(h, hash_i64(p.kernel_w));
    h = hash_combine(h, hash_i64(p.axis));
    h = hash_combine(h, hash_vector(p.split_sizes));
    h = hash_combine(h, hash_i64(p.begin));
    h = hash_combine(h, hash_i64(p.end));
    h = hash_combine(h, hash_vector(p.perm));
    h = hash_combine(h, hash_vector(p.target_shape));
    h = hash_combine(h, hash_vector(p.pads_before));
    h = hash_combine(h, hash_vector(p.pads_after));
    h = hash_combine(h, hash_i64(p.target_r));
    h = hash_combine(h, hash_i64(p.target_s));
    h = hash_combine(h, hash_i64(static_cast<std::int64_t>(p.epsilon * 1e9F)));
    h = hash_combine(h, hash_i64(static_cast<std::int64_t>(p.scalar * 1e6F)));
    h = hash_combine(h, p.keep_dim ? 1ULL : 0ULL);
    return h;
}

std::string params_to_string(const Op_params& p)
{
    static const Op_params defaults;
    std::ostringstream os;
    auto emit = [&os, first = true](const std::string& text) mutable {
        if (!first) os << ' ';
        os << text;
        first = false;
    };
    auto vec = [](const std::vector<std::int64_t>& v) {
        std::ostringstream s;
        for (std::size_t i = 0; i < v.size(); ++i) s << (i > 0 ? "," : "") << v[i];
        return s.str();
    };
    if (p.activation != defaults.activation) emit(std::string("act=") + activation_name(p.activation));
    if (p.stride_h != defaults.stride_h) emit("stride_h=" + std::to_string(p.stride_h));
    if (p.stride_w != defaults.stride_w) emit("stride_w=" + std::to_string(p.stride_w));
    if (p.pad_h != defaults.pad_h) emit("pad_h=" + std::to_string(p.pad_h));
    if (p.pad_w != defaults.pad_w) emit("pad_w=" + std::to_string(p.pad_w));
    if (p.groups != defaults.groups) emit("groups=" + std::to_string(p.groups));
    if (p.kernel_h != defaults.kernel_h) emit("kernel_h=" + std::to_string(p.kernel_h));
    if (p.kernel_w != defaults.kernel_w) emit("kernel_w=" + std::to_string(p.kernel_w));
    if (p.axis != defaults.axis) emit("axis=" + std::to_string(p.axis));
    if (!p.split_sizes.empty()) emit("split=" + vec(p.split_sizes));
    if (p.begin != defaults.begin) emit("begin=" + std::to_string(p.begin));
    if (p.end != defaults.end) emit("end=" + std::to_string(p.end));
    if (!p.perm.empty()) emit("perm=" + vec(p.perm));
    if (!p.target_shape.empty()) emit("shape=" + vec(p.target_shape));
    if (!p.pads_before.empty()) emit("pads_before=" + vec(p.pads_before));
    if (!p.pads_after.empty()) emit("pads_after=" + vec(p.pads_after));
    if (p.target_r != defaults.target_r) emit("target_r=" + std::to_string(p.target_r));
    if (p.target_s != defaults.target_s) emit("target_s=" + std::to_string(p.target_s));
    if (p.scalar != defaults.scalar) emit("scalar=" + std::to_string(p.scalar));
    if (p.epsilon != defaults.epsilon) emit("eps=" + std::to_string(p.epsilon));
    if (p.keep_dim != defaults.keep_dim) emit("keep_dim=0");
    return os.str();
}

Op_params params_from_string(const std::string& text)
{
    Op_params p;
    std::istringstream is(text);
    std::string token;
    auto parse_vec = [](const std::string& csv) {
        std::vector<std::int64_t> v;
        std::istringstream vs(csv);
        std::string part;
        while (std::getline(vs, part, ',')) v.push_back(std::stoll(part));
        return v;
    };
    while (is >> token) {
        const std::size_t eq = token.find('=');
        XRL_EXPECTS(eq != std::string::npos);
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "act") p.activation = activation_from_name(value);
        else if (key == "stride_h") p.stride_h = std::stoll(value);
        else if (key == "stride_w") p.stride_w = std::stoll(value);
        else if (key == "pad_h") p.pad_h = std::stoll(value);
        else if (key == "pad_w") p.pad_w = std::stoll(value);
        else if (key == "groups") p.groups = std::stoll(value);
        else if (key == "kernel_h") p.kernel_h = std::stoll(value);
        else if (key == "kernel_w") p.kernel_w = std::stoll(value);
        else if (key == "axis") p.axis = std::stoll(value);
        else if (key == "split") p.split_sizes = parse_vec(value);
        else if (key == "begin") p.begin = std::stoll(value);
        else if (key == "end") p.end = std::stoll(value);
        else if (key == "perm") p.perm = parse_vec(value);
        else if (key == "shape") p.target_shape = parse_vec(value);
        else if (key == "pads_before") p.pads_before = parse_vec(value);
        else if (key == "pads_after") p.pads_after = parse_vec(value);
        else if (key == "target_r") p.target_r = std::stoll(value);
        else if (key == "target_s") p.target_s = std::stoll(value);
        else if (key == "scalar") p.scalar = std::stof(value);
        else if (key == "eps") p.epsilon = std::stof(value);
        else if (key == "keep_dim") p.keep_dim = value != "0";
        else XRL_EXPECTS(false && "unknown param key");
    }
    return p;
}

} // namespace xrl
