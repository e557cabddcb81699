// Arena and pool allocation for the search hot loop.
//
// Every optimisation step copies the host graph tens of times (one copy per
// materialised candidate), and each copy used to pay one heap allocation per
// node for the inputs vector, the name string, and the params — churn that
// dominated the candidate pass once the algorithmic costs were cut. Two
// building blocks remove it:
//
//   - Arena: a chunked monotonic byte allocator. reset() recycles every
//     chunk without returning memory to the heap, so a steady-state step
//     allocates from warm regions. High-water statistics feed the bench
//     artifacts (BENCH_candidates.json "arena" section).
//
//   - Pool<T>: recycled object slots placed in an Arena. acquire() reuses a
//     released slot when one exists; for container-heavy types (Graph: one
//     nodes_ vector whose Nodes own inputs/params/name buffers), assigning
//     into a recycled slot reuses every nested allocation via element-wise
//     copy-assignment. The candidate engine keeps one Pool<Graph> and
//     releases the whole step's slots before generating the next step — the
//     "reusable region reset per step".
//
// Neither type is thread-safe: an Arena or Pool has exactly one owner (the
// candidate engine instance, which is itself single-owner — see
// docs/CONCURRENCY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "support/check.h"

namespace xrl {

/// Allocation statistics, exposed for tests and the bench artifacts.
struct Arena_stats {
    std::size_t chunks = 0;            ///< Chunks currently owned.
    std::size_t reserved_bytes = 0;    ///< Sum of chunk capacities.
    std::size_t live_bytes = 0;        ///< Bytes handed out since the last reset.
    std::size_t high_water_bytes = 0;  ///< Max live_bytes ever observed.
    std::uint64_t allocations = 0;     ///< allocate() calls over the lifetime.
    std::uint64_t resets = 0;          ///< reset() calls over the lifetime.
};

/// Chunked monotonic byte allocator. allocate() bumps a pointer; reset()
/// makes every chunk reusable without freeing it. Individual deallocation
/// is a no-op (Arena_allocator::deallocate exists only to satisfy the
/// allocator interface).
class Arena {
public:
    static constexpr std::size_t default_chunk_bytes = 64 * 1024;

    explicit Arena(std::size_t chunk_bytes = default_chunk_bytes) : chunk_bytes_(chunk_bytes)
    {
        XRL_EXPECTS(chunk_bytes_ > 0);
    }

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t))
    {
        XRL_EXPECTS(align > 0 && (align & (align - 1)) == 0);
        if (bytes == 0) bytes = 1;
        while (current_ < chunks_.size()) {
            Chunk& chunk = chunks_[current_];
            const std::size_t aligned = (chunk.used + align - 1) & ~(align - 1);
            if (aligned + bytes <= chunk.capacity) {
                chunk.used = aligned + bytes;
                bump_live(bytes);
                return chunk.data.get() + aligned;
            }
            ++current_;
        }
        // No chunk fits: grow by one chunk sized for the request.
        const std::size_t capacity = bytes + align > chunk_bytes_ ? bytes + align : chunk_bytes_;
        chunks_.push_back({std::make_unique<std::byte[]>(capacity), capacity, 0});
        stats_.chunks = chunks_.size();
        stats_.reserved_bytes += capacity;
        Chunk& chunk = chunks_.back();
        chunk.used = bytes; // new[] storage is max-aligned, so offset 0 satisfies `align`
        bump_live(bytes);
        return chunk.data.get();
    }

    /// Make every chunk reusable. Nothing is returned to the heap, so the
    /// next cycle allocates from warm memory.
    void reset()
    {
        for (Chunk& chunk : chunks_) chunk.used = 0;
        current_ = 0;
        stats_.live_bytes = 0;
        ++stats_.resets;
    }

    const Arena_stats& stats() const { return stats_; }

private:
    struct Chunk {
        std::unique_ptr<std::byte[]> data;
        std::size_t capacity = 0;
        std::size_t used = 0;
    };

    void bump_live(std::size_t bytes)
    {
        ++stats_.allocations;
        stats_.live_bytes += bytes;
        if (stats_.live_bytes > stats_.high_water_bytes)
            stats_.high_water_bytes = stats_.live_bytes;
    }

    std::size_t chunk_bytes_;
    std::vector<Chunk> chunks_;
    std::size_t current_ = 0;
    Arena_stats stats_;
};

/// Minimal allocator adapter over an Arena, for containers whose lifetime
/// is bounded by the arena's reset cycle. deallocate is a no-op.
template <typename T>
class Arena_allocator {
public:
    using value_type = T;

    explicit Arena_allocator(Arena& arena) : arena_(&arena) {}
    template <typename U>
    Arena_allocator(const Arena_allocator<U>& other) : arena_(other.arena())
    {
    }

    T* allocate(std::size_t n)
    {
        return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    void deallocate(T*, std::size_t) {} // monotonic: freed at reset()

    Arena* arena() const { return arena_; }

    template <typename U>
    bool operator==(const Arena_allocator<U>& other) const
    {
        return arena_ == other.arena();
    }

private:
    Arena* arena_;
};

/// Pool usage statistics, exposed for tests and the bench artifacts.
struct Pool_stats {
    std::size_t slots = 0;            ///< Slots ever constructed.
    std::size_t in_use = 0;           ///< Currently acquired.
    std::size_t high_water_slots = 0; ///< Max simultaneously acquired.
    std::uint64_t acquires = 0;       ///< acquire() calls.
    std::uint64_t reuses = 0;         ///< Acquires served from the free list.
};

/// Recycled slots of T placed in an Arena. Slots are constructed at most
/// `slots` times over the pool's lifetime; release() returns a slot to the
/// free list with its internal buffers intact, so assigning a new value
/// into a reacquired slot reuses them (vector/string copy-assignment).
/// Destructors run when the pool is destroyed.
template <typename T>
class Pool {
public:
    explicit Pool(std::size_t arena_chunk_bytes = Arena::default_chunk_bytes)
        : arena_(arena_chunk_bytes)
    {
    }

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    ~Pool()
    {
        for (T* slot : all_) slot->~T();
    }

    /// A slot holding a default-constructed-or-recycled T. The caller
    /// typically copy-assigns its payload so the slot's buffers are reused.
    T* acquire()
    {
        ++stats_.acquires;
        T* slot = nullptr;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            ++stats_.reuses;
        } else {
            slot = new (arena_.allocate(sizeof(T), alignof(T))) T();
            all_.push_back(slot);
            stats_.slots = all_.size();
        }
        ++stats_.in_use;
        if (stats_.in_use > stats_.high_water_slots) stats_.high_water_slots = stats_.in_use;
        return slot;
    }

    /// Return a slot; its buffers stay allocated for the next acquire().
    void release(T* slot)
    {
        XRL_EXPECTS(slot != nullptr);
        XRL_EXPECTS(stats_.in_use > 0);
        --stats_.in_use;
        free_.push_back(slot);
    }

    const Pool_stats& stats() const { return stats_; }
    const Arena_stats& arena_stats() const { return arena_.stats(); }

private:
    Arena arena_;
    std::vector<T*> all_;  ///< Every slot ever constructed (for destruction).
    std::vector<T*> free_; ///< Released slots awaiting reuse.
    Pool_stats stats_;
};

} // namespace xrl
