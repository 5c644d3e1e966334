#include "common/thread_pool.hh"

#include <atomic>
#include <exception>

#include "common/logging.hh"

namespace cdma {

ThreadPool::ThreadPool(unsigned lanes)
{
    if (lanes == 0) {
        lanes = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(lanes - 1);
    for (unsigned i = 0; i + 1 < lanes; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock,
                          [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::submitDetached(std::function<void()> task)
{
    CDMA_ASSERT(hasWorkers(),
                "detached tasks need worker threads (lanes > 1)");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::parallelFor(uint64_t count,
                        const std::function<void(uint64_t)> &fn)
{
    if (count == 0)
        return;
    if (workers_.empty() || count == 1) {
        for (uint64_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Dynamic scheduling: every lane pulls the next unclaimed index, so
    // unevenly sized shards (e.g. the last partial window group) cannot
    // leave a lane idle while another is overloaded. A throwing fn must
    // not escape a worker thread (std::terminate); the first exception
    // is captured, the index space is abandoned so every lane exits its
    // pull loop promptly, and the rendezvous below rethrows it on the
    // calling thread once all lanes have stopped touching this frame.
    std::atomic<uint64_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto drain = [&] {
        for (;;) {
            const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                next.store(count, std::memory_order_relaxed);
            }
        }
    };

    // One queued task per worker that could usefully participate; each
    // task loops until the index space is exhausted, so completion of all
    // queued tasks plus the inline drain implies completion of all work.
    const uint64_t helpers =
        std::min<uint64_t>(workers_.size(), count - 1);
    uint64_t exited = 0; // guarded by mutex_
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (uint64_t i = 0; i < helpers; ++i) {
            tasks_.push([&] {
                drain();
                // Count the exit under the mutex: the caller reads the
                // count under it too, so it cannot return (and pop this
                // frame's exited/helpers) until the lock is released.
                std::lock_guard<std::mutex> inner(mutex_);
                if (++exited == helpers)
                    done_cv_.notify_all();
            });
        }
    }
    work_cv_.notify_all();

    drain();

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return exited == helpers; });
    }
    // All lanes have left their pull loops: safe to rethrow (no lock
    // needed — the join above is the synchronization point).
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace cdma
