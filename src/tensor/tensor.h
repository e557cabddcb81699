// Dense row-major float tensor.
//
// The numeric substrate for two users: the rewrite-rule generator and the
// property-test suite execute graphs on it to check that transformations
// preserve semantics, and the autograd tape (GNN encoder, PPO losses) runs
// on it. Element access stays bounds-checked; it is defined inline so the
// per-element loops that still use it do not pay a cross-TU call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace xrl {

/// Tensor shape: a list of extents. Rank 0 denotes a scalar.
using Shape = std::vector<std::int64_t>;

/// Number of elements in a shape (1 for scalars).
std::int64_t shape_volume(const Shape& shape);

/// Human-readable "[a, b, c]" form.
std::string shape_to_string(const Shape& shape);

/// Keeps the storage of destroyed tensors for reuse by later tensors.
///
/// While a `Scope` has one installed on a thread, every tensor of at least
/// `min_floats` elements created there (zero-filled or copied) takes the
/// smallest pooled buffer that fits, and every such tensor destroyed or
/// move-assigned over there hands its buffer back. A worker that builds
/// one autograd tape after another thus reuses warm pages instead of
/// returning them to the allocator and faulting them back in. The pool
/// only grows when nothing pooled fits, so it settles at the largest
/// working set its users reach; it is owned by whoever created the
/// recycler and freed with it. A recycler serves one thread at a time.
class Storage_recycler {
public:
    static constexpr std::size_t min_floats = 1024;

    /// Installs `recycler` on the calling thread for the scope's lifetime.
    class Scope {
    public:
        explicit Scope(Storage_recycler& recycler);
        ~Scope();

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Storage_recycler* previous_;
    };

    Storage_recycler() = default;
    Storage_recycler(const Storage_recycler&) = delete;
    Storage_recycler& operator=(const Storage_recycler&) = delete;

    /// Floats held in pooled buffers (capacity, not size).
    std::size_t pooled_floats() const;

private:
    friend class Tensor;

    /// An empty vector with capacity for at least `n` floats.
    std::vector<float> acquire(std::size_t n);
    void release(std::vector<float>&& storage);

    std::multimap<std::size_t, std::vector<float>> free_; // keyed by capacity
};

/// Dense row-major float tensor with value semantics.
class Tensor {
public:
    Tensor() = default;
    Tensor(const Tensor& other);
    Tensor(Tensor&&) noexcept = default;
    Tensor& operator=(const Tensor&) = default;
    Tensor& operator=(Tensor&& other) noexcept
    {
        if (this != &other) {
            if (data_.capacity() >= Storage_recycler::min_floats) recycle_storage();
            shape_ = std::move(other.shape_);
            data_ = std::move(other.data_);
        }
        return *this;
    }
    ~Tensor()
    {
        if (data_.capacity() >= Storage_recycler::min_floats) recycle_storage();
    }

    /// Zero-initialised tensor of the given shape.
    explicit Tensor(Shape shape);

    /// Tensor with explicit contents; data.size() must equal the volume.
    Tensor(Shape shape, std::vector<float> data);

    /// Scalar tensor.
    static Tensor scalar(float value);

    /// Constant-filled tensor.
    static Tensor full(Shape shape, float value);

    /// Uniform random tensor in [lo, hi).
    static Tensor random_uniform(Shape shape, Rng& rng, float lo = -1.0F, float hi = 1.0F);

    const Shape& shape() const { return shape_; }
    std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
    std::int64_t dim(std::int64_t axis) const
    {
        XRL_EXPECTS(axis >= 0 && axis < rank());
        return shape_[static_cast<std::size_t>(axis)];
    }
    std::int64_t volume() const { return static_cast<std::int64_t>(data_.size()); }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }
    std::vector<float>& values() { return data_; }
    const std::vector<float>& values() const { return data_; }

    float& at(std::int64_t flat_index)
    {
        XRL_EXPECTS(flat_index >= 0 && flat_index < volume());
        return data_[static_cast<std::size_t>(flat_index)];
    }
    float at(std::int64_t flat_index) const
    {
        XRL_EXPECTS(flat_index >= 0 && flat_index < volume());
        return data_[static_cast<std::size_t>(flat_index)];
    }

    /// Row-major flat index for a multi-index (size must equal rank).
    std::int64_t flat_index(const std::vector<std::int64_t>& index) const;

    /// Reinterpret as a new shape with the same volume.
    Tensor reshaped(Shape new_shape) const;

    /// Max |a - b| over all elements; shapes must match.
    static float max_abs_difference(const Tensor& a, const Tensor& b);

    /// True when shapes match and all elements differ by at most `tolerance`.
    static bool all_close(const Tensor& a, const Tensor& b, float tolerance = 1e-4F);

private:
    /// Hands the storage to the thread's recycler, if one is installed
    /// (leaving `data_` empty); otherwise leaves it for the caller to free.
    void recycle_storage() noexcept;

    Shape shape_;
    std::vector<float> data_;
};

} // namespace xrl
