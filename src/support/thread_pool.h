// A small blocking thread pool for deterministic fan-out — plus detached
// tasks for the serving layer.
//
// The candidate engine fans candidate builds out (one task per candidate)
// and the TASO/PET searches fan candidate costs out; results are written
// into per-task slots so the output order never depends on thread
// scheduling. The pool is intentionally minimal: submit a batch of indexed
// tasks and block until all of them ran. The calling thread participates in
// draining the queue, so a pool with zero workers degrades to a plain
// serial loop (and `run` never deadlocks when workers are scarce).
//
// `post` adds the second mode the Optimization_server needs: fire-and-forget
// tasks executed on pool workers. Both modes share the same threads — one
// process-wide pool serves candidate fan-out *and* serving jobs — and they
// compose: a posted serving job that calls `run` on the same pool drains the
// batch on its own thread, so nesting cannot deadlock even when every worker
// is busy with posted work.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "support/sync.h"

namespace xrl {

class Thread_pool {
public:
    /// Spawn `workers` threads (0 = serial; `run` executes on the caller).
    explicit Thread_pool(std::size_t workers);
    ~Thread_pool();

    Thread_pool(const Thread_pool&) = delete;
    Thread_pool& operator=(const Thread_pool&) = delete;

    std::size_t workers() const { return threads_.size(); }

    /// Run `task(0) .. task(count-1)`, blocking until every index finished.
    /// Tasks may run on any worker or on the calling thread; the first
    /// exception (if any) is rethrown on the caller after the batch drains.
    void run(std::size_t count, const std::function<void(std::size_t)>& task);

    /// Detached execution: enqueue `task` to run on some pool worker and
    /// return immediately. A free worker takes queued posted tasks (FIFO)
    /// before it helps drain a pending `run` batch — the batch's caller
    /// drains it regardless, so batches still finish, while a posted task
    /// runs only on a worker. Tasks must not throw (a throwing task
    /// terminates). With zero workers the task runs inline on the caller —
    /// the serial degradation mirrors `run`'s, so callers never deadlock
    /// waiting for a thread that does not exist. Tasks still queued when
    /// the pool destructs are dropped, so owners of posted work must drain
    /// their own completion state before releasing the pool.
    void post(std::function<void()> task);

    /// Process-wide pool sized to the hardware (capped), shared by the
    /// candidate engines and the optimization server.
    static Thread_pool& shared();

private:
    struct Batch;

    void worker_loop();

    Mutex mutex_{"thread_pool", Lock_rank::thread_pool};
    Cond_var work_ready_;
    std::vector<std::shared_ptr<Batch>> pending_ XRL_GUARDED_BY(mutex_);
    std::deque<std::function<void()>> detached_ XRL_GUARDED_BY(mutex_);
    std::vector<std::thread> threads_;
    bool shutting_down_ XRL_GUARDED_BY(mutex_) = false;
};

} // namespace xrl
