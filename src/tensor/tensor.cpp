#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.h"

namespace xrl {

std::int64_t shape_volume(const Shape& shape)
{
    std::int64_t v = 1;
    for (const std::int64_t d : shape) {
        XRL_EXPECTS(d >= 0);
        v *= d;
    }
    return v;
}

std::string shape_to_string(const Shape& shape)
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i > 0) os << ", ";
        os << shape[i];
    }
    os << ']';
    return os.str();
}

namespace {

thread_local Storage_recycler* installed_recycler = nullptr;

/// The installed recycler when `n` floats are worth recycling, else null.
Storage_recycler* recycler_for(std::size_t n)
{
    return n >= Storage_recycler::min_floats ? installed_recycler : nullptr;
}

} // namespace

Storage_recycler::Scope::Scope(Storage_recycler& recycler) : previous_(installed_recycler)
{
    installed_recycler = &recycler;
}

Storage_recycler::Scope::~Scope()
{
    installed_recycler = previous_;
}

std::size_t Storage_recycler::pooled_floats() const
{
    std::size_t total = 0;
    for (const auto& entry : free_) total += entry.first;
    return total;
}

std::vector<float> Storage_recycler::acquire(std::size_t n)
{
    const auto fit = free_.lower_bound(n);
    if (fit == free_.end()) {
        std::vector<float> fresh;
        fresh.reserve(n);
        return fresh;
    }
    std::vector<float> storage = std::move(fit->second);
    free_.erase(fit);
    storage.clear();
    return storage;
}

void Storage_recycler::release(std::vector<float>&& storage)
{
    const std::size_t capacity = storage.capacity();
    free_.emplace(capacity, std::move(storage));
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape))
{
    const auto n = static_cast<std::size_t>(shape_volume(shape_));
    if (Storage_recycler* recycler = recycler_for(n)) data_ = recycler->acquire(n);
    data_.assign(n, 0.0F);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_)
{
    if (Storage_recycler* recycler = recycler_for(other.data_.size()))
        data_ = recycler->acquire(other.data_.size());
    data_.assign(other.data_.begin(), other.data_.end());
}

void Tensor::recycle_storage() noexcept
{
    if (installed_recycler == nullptr) return;
    try {
        installed_recycler->release(std::move(data_));
    } catch (...) {
        // Out of memory for the pool's bookkeeping: the vector's own
        // destructor frees the buffer instead.
    }
}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)), data_(std::move(data))
{
    XRL_EXPECTS(static_cast<std::int64_t>(data_.size()) == shape_volume(shape_));
}

Tensor Tensor::scalar(float value)
{
    return Tensor(Shape{}, std::vector<float>{value});
}

Tensor Tensor::full(Shape shape, float value)
{
    Tensor t(std::move(shape));
    std::fill(t.data_.begin(), t.data_.end(), value);
    return t;
}

Tensor Tensor::random_uniform(Shape shape, Rng& rng, float lo, float hi)
{
    Tensor t(std::move(shape));
    for (auto& x : t.data_) x = static_cast<float>(rng.uniform(lo, hi));
    return t;
}

std::int64_t Tensor::flat_index(const std::vector<std::int64_t>& index) const
{
    XRL_EXPECTS(static_cast<std::int64_t>(index.size()) == rank());
    std::int64_t flat = 0;
    for (std::size_t axis = 0; axis < index.size(); ++axis) {
        XRL_EXPECTS(index[axis] >= 0 && index[axis] < shape_[axis]);
        flat = flat * shape_[axis] + index[axis];
    }
    return flat;
}

Tensor Tensor::reshaped(Shape new_shape) const
{
    XRL_EXPECTS(shape_volume(new_shape) == volume());
    return Tensor(std::move(new_shape), data_);
}

float Tensor::max_abs_difference(const Tensor& a, const Tensor& b)
{
    XRL_EXPECTS(a.shape() == b.shape());
    float worst = 0.0F;
    for (std::int64_t i = 0; i < a.volume(); ++i)
        worst = std::max(worst, std::abs(a.at(i) - b.at(i)));
    return worst;
}

bool Tensor::all_close(const Tensor& a, const Tensor& b, float tolerance)
{
    if (a.shape() != b.shape()) return false;
    return max_abs_difference(a, b) <= tolerance;
}

} // namespace xrl
