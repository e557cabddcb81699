#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace xrl {

/// One `run` call: a shared index counter plus completion bookkeeping.
/// Heap-allocated and reference-counted so a straggling worker that grabbed
/// the batch but claimed no index can never outlive it.
struct Thread_pool::Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* task = nullptr;
    std::atomic<std::size_t> next{0};
    std::size_t finished = 0;           // guarded by the owning pool's mutex
    std::exception_ptr first_error;     // guarded by the owning pool's mutex
    Cond_var done;

    /// Claim and run indices until the counter is exhausted. Returns how
    /// many indices this thread completed.
    std::size_t drain(Mutex& mutex)
    {
        std::size_t ran = 0;
        for (;;) {
            const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
            if (index >= count) return ran;
            try {
                (*task)(index);
            } catch (...) {
                const Lock_guard lock(mutex);
                if (!first_error) first_error = std::current_exception();
            }
            ++ran;
        }
    }
};

Thread_pool::Thread_pool(std::size_t workers)
{
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { worker_loop(); });
}

Thread_pool::~Thread_pool()
{
    {
        const Lock_guard lock(mutex_);
        shutting_down_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void Thread_pool::worker_loop()
{
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            Unique_lock lock(mutex_);
            work_ready_.wait(lock, [this]() XRL_REQUIRES(mutex_) {
                return shutting_down_ || !pending_.empty() || !detached_.empty();
            });
            if (shutting_down_) return;
            if (!detached_.empty()) {
                // Posted work first: a batch's caller drains it whether or
                // not a worker helps, but a posted task has no one else —
                // a serving job (a memo hit, say) must not wait behind a
                // search's fan-out.
                std::function<void()> task = std::move(detached_.front());
                detached_.pop_front();
                lock.unlock();
                task();
                continue;
            }
            batch = pending_.back();
            if (batch->next.load(std::memory_order_relaxed) >= batch->count) {
                // Fully claimed already; forget it and look again.
                pending_.pop_back();
                continue;
            }
        }
        const std::size_t ran = batch->drain(mutex_);
        if (ran > 0) {
            const Lock_guard lock(mutex_);
            batch->finished += ran;
            if (batch->finished == batch->count) batch->done.notify_all();
        }
    }
}

void Thread_pool::run(std::size_t count, const std::function<void(std::size_t)>& task)
{
    if (count == 0) return;
    if (threads_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i) task(i);
        return;
    }

    const auto batch = std::make_shared<Batch>();
    batch->count = count;
    batch->task = &task;
    {
        const Lock_guard lock(mutex_);
        pending_.push_back(batch);
    }
    work_ready_.notify_all();

    const std::size_t ran = batch->drain(mutex_);
    {
        Unique_lock lock(mutex_);
        batch->finished += ran;
        pending_.erase(std::remove(pending_.begin(), pending_.end(), batch), pending_.end());
        batch->done.wait(lock, [&batch] { return batch->finished == batch->count; });
        if (batch->first_error) std::rethrow_exception(batch->first_error);
    }
}

void Thread_pool::post(std::function<void()> task)
{
    if (threads_.empty()) {
        task(); // serial degradation, mirroring run()
        return;
    }
    {
        const Lock_guard lock(mutex_);
        detached_.push_back(std::move(task));
    }
    work_ready_.notify_one();
}

Thread_pool& Thread_pool::shared()
{
    static Thread_pool pool([] {
        // At least two workers even on a single-core host: the serving
        // layer's posted jobs must run off the submitter's thread (a job
        // blocked on its progress gate would otherwise deadlock submit),
        // and batch fan-out still degrades gracefully — the caller drains
        // alongside however many workers the hardware can actually run.
        const unsigned hw = std::thread::hardware_concurrency();
        return std::max<std::size_t>(2, std::min<std::size_t>(hw, 8));
    }());
    return pool;
}

} // namespace xrl
