// Annotated synchronisation primitives: the one place the project touches
// std::mutex / std::shared_mutex / std::condition_variable directly.
//
// Three jobs, one wrapper layer:
//
//  1. Clang Thread Safety Analysis. `Mutex` / `Shared_mutex` are capabilities
//     and the scoped lock types are scoped capabilities, so a clang build
//     with -Werror=thread-safety proves at compile time that every
//     XRL_GUARDED_BY field is only touched under its lock and every
//     XRL_REQUIRES method is only called with the lock held. Under GCC all
//     annotation macros expand to nothing and the wrappers compile down to
//     the plain standard-library types.
//
//  2. Lock-rank deadlock detection. Every Mutex/Shared_mutex carries a name
//     and a rank from the global hierarchy in docs/CONCURRENCY.md. When
//     XRL_SYNC_DEADLOCK_CHECKS is enabled (Debug and TSan builds — see
//     XRLFLOW_SYNC_CHECKS in the top-level CMakeLists), a thread-local
//     held-lock stack checks that every acquisition takes a rank strictly
//     greater than any rank already held by the thread; an out-of-order
//     acquisition aborts immediately, printing both lock names. That turns
//     a latent lock-order inversion — which would deadlock only under the
//     right interleaving — into a deterministic test failure on the first
//     wrong-order acquisition, even single-threaded.
//
//  3. Zero release cost. With checks disabled, lock()/unlock() inline to the
//     underlying std::mutex calls; the only footprint is two pointer-sized
//     fields per mutex for the name/rank. The layout of every type here is
//     identical whether or not checks are enabled, so mixing translation
//     units is ODR-safe; only the out-of-line check calls are conditional,
//     and XRL_SYNC_DEADLOCK_CHECKS is a PUBLIC compile definition on the
//     xrlflow target so every dependent target agrees on it.
//
// Adding a lock? Read the checklist in docs/CONCURRENCY.md first.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Thread Safety Analysis attribute macros (no-ops outside clang).
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define XRL_TSA(x) __attribute__((x))
#else
#define XRL_TSA(x)
#endif

#define XRL_CAPABILITY(name) XRL_TSA(capability(name))
#define XRL_SCOPED_CAPABILITY XRL_TSA(scoped_lockable)
#define XRL_GUARDED_BY(x) XRL_TSA(guarded_by(x))
#define XRL_PT_GUARDED_BY(x) XRL_TSA(pt_guarded_by(x))
#define XRL_REQUIRES(...) XRL_TSA(requires_capability(__VA_ARGS__))
#define XRL_REQUIRES_SHARED(...) XRL_TSA(requires_shared_capability(__VA_ARGS__))
#define XRL_ACQUIRE(...) XRL_TSA(acquire_capability(__VA_ARGS__))
#define XRL_ACQUIRE_SHARED(...) XRL_TSA(acquire_shared_capability(__VA_ARGS__))
#define XRL_RELEASE(...) XRL_TSA(release_capability(__VA_ARGS__))
#define XRL_RELEASE_SHARED(...) XRL_TSA(release_shared_capability(__VA_ARGS__))
#define XRL_TRY_ACQUIRE(...) XRL_TSA(try_acquire_capability(__VA_ARGS__))
#define XRL_EXCLUDES(...) XRL_TSA(locks_excluded(__VA_ARGS__))
#define XRL_RETURN_CAPABILITY(x) XRL_TSA(lock_returned(x))
#define XRL_NO_THREAD_SAFETY_ANALYSIS XRL_TSA(no_thread_safety_analysis)

#ifndef XRL_SYNC_DEADLOCK_CHECKS
#define XRL_SYNC_DEADLOCK_CHECKS 0
#endif

namespace xrl {

// ---------------------------------------------------------------------------
// The global lock hierarchy. Acquiring a lock requires its rank to be
// strictly greater than every rank the thread already holds; two locks that
// share a rank must therefore never nest (all current same-rank locks are
// per-instance locks of which a thread only ever holds one). Full table with
// the nesting paths that pin each value: docs/CONCURRENCY.md.
// ---------------------------------------------------------------------------
enum class Lock_rank : int {
    daemon_admin = 10,       // Daemon::admin_mutex_ (drain/snapshot gate)
    daemon = 20,             // Daemon::mutex_
    router_membership = 30,  // Optimization_router::membership_mutex_
    server = 40,             // Optimization_server::mutex_
    job = 50,                // Job::mutex
    state_store_writer = 60, // State_store policy/memo writer mutexes
    state_store = 65,        // State_store::mutex_
    service = 70,            // Optimization_service::mutex_
    device_registry = 80,    // Device_registry::mutex_
    simulator_rng = 90,      // E2e_simulator::rng_mutex_
    fault_plan = 95,         // Fault_plan::mutex_
    thread_pool = 100,       // Thread_pool::mutex_
    shard_health = 110,      // Shard_health::mutex_
    metrics = 130,           // Metrics_registry::mutex_
    trace = 140,             // Trace_buffer::mutex_
    leaf = 1000,             // strictly-leaf locks (tests, tools)
};

namespace sync_detail {
// Out-of-line detector hooks (sync.cpp). `check` runs *before* the blocking
// lock call so an inversion reports instead of deadlocking; `acquired`
// pushes onto the thread-local held stack after the lock is taken;
// `released` pops it (out-of-order release is fine).
void check(const void* mutex, const char* name, int rank);
void acquired(const void* mutex, const char* name, int rank);
void released(const void* mutex);
} // namespace sync_detail

/// True when this build aborts on lock-order inversions.
constexpr bool sync_checks_enabled() { return XRL_SYNC_DEADLOCK_CHECKS != 0; }

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------
class XRL_CAPABILITY("mutex") Mutex {
public:
    Mutex(const char* name, Lock_rank rank) noexcept
        : name_(name), rank_(static_cast<int>(rank)) {}

    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() XRL_ACQUIRE() {
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::check(this, name_, rank_);
#endif
        m_.lock();
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::acquired(this, name_, rank_);
#endif
    }

    void unlock() XRL_RELEASE() {
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::released(this);
#endif
        m_.unlock();
    }

    /// Rank-exempt: a failed try_lock cannot deadlock, and the admin gate
    /// uses it from below-rank contexts on purpose. A *successful* try still
    /// records the lock so ranks of later acquisitions are checked against
    /// it.
    bool try_lock() XRL_TRY_ACQUIRE(true) {
        if (!m_.try_lock()) return false;
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::acquired(this, name_, rank_);
#endif
        return true;
    }

    const char* name() const { return name_; }
    int rank() const { return static_cast<int>(rank_); }

private:
    friend class Cond_var;
    friend class Unique_lock;

    std::mutex m_;
    const char* name_;
    int rank_;
};

// ---------------------------------------------------------------------------
// Shared_mutex
// ---------------------------------------------------------------------------
class XRL_CAPABILITY("shared_mutex") Shared_mutex {
public:
    Shared_mutex(const char* name, Lock_rank rank) noexcept
        : name_(name), rank_(static_cast<int>(rank)) {}

    Shared_mutex(const Shared_mutex&) = delete;
    Shared_mutex& operator=(const Shared_mutex&) = delete;

    void lock() XRL_ACQUIRE() {
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::check(this, name_, rank_);
#endif
        m_.lock();
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::acquired(this, name_, rank_);
#endif
    }

    void unlock() XRL_RELEASE() {
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::released(this);
#endif
        m_.unlock();
    }

    void lock_shared() XRL_ACQUIRE_SHARED() {
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::check(this, name_, rank_);
#endif
        m_.lock_shared();
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::acquired(this, name_, rank_);
#endif
    }

    void unlock_shared() XRL_RELEASE_SHARED() {
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::released(this);
#endif
        m_.unlock_shared();
    }

    const char* name() const { return name_; }
    int rank() const { return static_cast<int>(rank_); }

private:
    std::shared_mutex m_;
    const char* name_;
    int rank_;
};

// ---------------------------------------------------------------------------
// Scoped locks
// ---------------------------------------------------------------------------

/// std::lock_guard equivalent.
class XRL_SCOPED_CAPABILITY Lock_guard {
public:
    explicit Lock_guard(Mutex& m) XRL_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~Lock_guard() XRL_RELEASE() { m_.unlock(); }

    Lock_guard(const Lock_guard&) = delete;
    Lock_guard& operator=(const Lock_guard&) = delete;

private:
    Mutex& m_;
};

/// std::unique_lock equivalent: unlockable mid-scope and usable with
/// Cond_var. Always constructed locked (no deferred mode — nothing in the
/// project needs it, and deferred locks defeat the static analysis).
class XRL_SCOPED_CAPABILITY Unique_lock {
public:
    explicit Unique_lock(Mutex& m) XRL_ACQUIRE(m) : mutex_(&m) {
        mutex_->lock();
        inner_ = std::unique_lock<std::mutex>(mutex_->m_, std::adopt_lock);
    }

    ~Unique_lock() XRL_RELEASE() {
        if (inner_.owns_lock()) {
#if XRL_SYNC_DEADLOCK_CHECKS
            sync_detail::released(mutex_);
#endif
            inner_.unlock();
        }
    }

    Unique_lock(const Unique_lock&) = delete;
    Unique_lock& operator=(const Unique_lock&) = delete;

    void lock() XRL_ACQUIRE() {
        mutex_->lock();
        inner_ = std::unique_lock<std::mutex>(mutex_->m_, std::adopt_lock);
    }

    void unlock() XRL_RELEASE() {
#if XRL_SYNC_DEADLOCK_CHECKS
        sync_detail::released(mutex_);
#endif
        inner_.unlock();
    }

    bool owns_lock() const { return inner_.owns_lock(); }

private:
    friend class Cond_var;

    Mutex* mutex_;
    std::unique_lock<std::mutex> inner_;
};

/// Shared (reader) scoped lock on a Shared_mutex.
class XRL_SCOPED_CAPABILITY Shared_lock {
public:
    explicit Shared_lock(Shared_mutex& m) XRL_ACQUIRE_SHARED(m) : m_(m) {
        m_.lock_shared();
    }
    ~Shared_lock() XRL_RELEASE() { m_.unlock_shared(); }

    Shared_lock(const Shared_lock&) = delete;
    Shared_lock& operator=(const Shared_lock&) = delete;

private:
    Shared_mutex& m_;
};

/// Exclusive (writer) scoped lock on a Shared_mutex.
class XRL_SCOPED_CAPABILITY Writer_lock {
public:
    explicit Writer_lock(Shared_mutex& m) XRL_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~Writer_lock() XRL_RELEASE() { m_.unlock(); }

    Writer_lock(const Writer_lock&) = delete;
    Writer_lock& operator=(const Writer_lock&) = delete;

private:
    Shared_mutex& m_;
};

/// Non-blocking try-lock scope. Deliberately carries NO thread-safety
/// annotations: clang's analysis of conditionally-held scoped capabilities
/// is unreliable across versions, and the only user (the daemon's admin
/// gate) guards no fields with its mutex — it is a mutual-exclusion token
/// for drain/snapshot, not a data guard.
class Try_lock {
public:
    explicit Try_lock(Mutex& m) XRL_NO_THREAD_SAFETY_ANALYSIS
        : m_(m), owned_(m.try_lock()) {}
    ~Try_lock() XRL_NO_THREAD_SAFETY_ANALYSIS {
        if (owned_) m_.unlock();
    }

    Try_lock(const Try_lock&) = delete;
    Try_lock& operator=(const Try_lock&) = delete;

    bool owns_lock() const { return owned_; }

private:
    Mutex& m_;
    bool owned_;
};

// ---------------------------------------------------------------------------
// Cond_var
// ---------------------------------------------------------------------------
// Thin wrapper over std::condition_variable operating on the std::mutex
// inside Mutex (not condition_variable_any — no extra inner mutex, no
// overhead). Wait methods are excluded from thread-safety analysis: the
// unlock/relock inside wait would otherwise confuse the lock-set tracking.
// Predicates passed to the wait overloads read guarded state, so annotate
// them XRL_REQUIRES(the_mutex) — clang analyses lambdas as functions, and
// wait always invokes the predicate with the lock held.
//
// The deadlock detector deliberately does no bookkeeping across the
// internal unlock/relock: the thread is blocked for that window and cannot
// acquire anything, so the held-stack staying populated is harmless — and
// on wake the lock really is held again.
class Cond_var {
public:
    Cond_var() = default;
    Cond_var(const Cond_var&) = delete;
    Cond_var& operator=(const Cond_var&) = delete;

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    void wait(Unique_lock& lock) XRL_NO_THREAD_SAFETY_ANALYSIS {
        cv_.wait(lock.inner_);
    }

    template <typename Predicate>
    void wait(Unique_lock& lock, Predicate pred) XRL_NO_THREAD_SAFETY_ANALYSIS {
        while (!pred()) cv_.wait(lock.inner_);
    }

    template <typename Rep, typename Period, typename Predicate>
    bool wait_for(Unique_lock& lock, const std::chrono::duration<Rep, Period>& dur,
                  Predicate pred) XRL_NO_THREAD_SAFETY_ANALYSIS {
        return cv_.wait_for(lock.inner_, dur, pred);
    }

    template <typename Clock, typename Duration, typename Predicate>
    bool wait_until(Unique_lock& lock,
                    const std::chrono::time_point<Clock, Duration>& deadline,
                    Predicate pred) XRL_NO_THREAD_SAFETY_ANALYSIS {
        return cv_.wait_until(lock.inner_, deadline, pred);
    }

private:
    std::condition_variable cv_;
};

} // namespace xrl
