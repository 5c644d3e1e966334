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
ThreadPool::orderedFanOut(uint64_t count,
                          const std::function<void(uint64_t)> &work,
                          const std::function<bool(uint64_t)> &drain)
{
    if (workers_.empty() || count < 2) {
        for (uint64_t i = 0; i < count; ++i) {
            work(i);
            if (!drain(i))
                return;
        }
        return;
    }

    // Every lane claims indices from one counter and flags each as it
    // completes. The calling thread drains strictly in index order;
    // while the next index to drain is still being worked elsewhere, it
    // claims and works an unclaimed index itself.
    std::atomic<uint64_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<bool> done(count, false);
    uint64_t helpers_exited = 0;
    std::exception_ptr first_error;

    auto workIndex = [&](uint64_t i) {
        try {
            work(i);
        } catch (...) {
            // First exception wins; abandon the remaining indices so
            // every lane exits promptly, and wake the drain (which
            // stops and rethrows after the join).
            std::lock_guard<std::mutex> lock(mutex);
            if (!first_error)
                first_error = std::current_exception();
            next.store(count, std::memory_order_relaxed);
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            done[i] = true;
        }
        cv.notify_all();
    };

    const uint64_t helpers =
        std::min<uint64_t>(workers_.size(), count - 1);
    for (uint64_t h = 0; h < helpers; ++h) {
        submitDetached([&] {
            for (;;) {
                const uint64_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    break;
                workIndex(i);
            }
            {
                // Notify while holding the mutex: once helpers_exited
                // reaches the target the caller may return and destroy
                // this frame's cv, so an unlocked notify could touch a
                // dead condition variable.
                std::lock_guard<std::mutex> lock(mutex);
                ++helpers_exited;
                cv.notify_all();
            }
        });
    }

    {
        // Helpers capture this frame's locals by reference, so every
        // exit path — including a throwing drain — abandons the
        // unclaimed indices and waits for all of them to leave their
        // pull loop before the frame unwinds.
        struct JoinGuard {
            std::atomic<uint64_t> &next;
            const uint64_t count;
            std::mutex &mutex;
            std::condition_variable &cv;
            uint64_t &exited;
            const uint64_t target;
            ~JoinGuard()
            {
                next.store(count, std::memory_order_relaxed);
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return exited == target; });
            }
        } join{next, count, mutex, cv, helpers_exited, helpers};

        // True once index i is done; false once any lane's work threw.
        auto ready = [&](uint64_t i) {
            for (;;) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (first_error)
                        return false;
                    if (done[i])
                        return true;
                }
                const uint64_t claimed =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (claimed < count) {
                    workIndex(claimed);
                    continue;
                }
                // Nothing left to claim: wait for the lane working i.
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock,
                        [&] { return done[i] || first_error != nullptr; });
                return first_error == nullptr;
            }
        };
        for (uint64_t i = 0; i < count; ++i) {
            if (!ready(i) || !drain(i))
                break;
        }
    }
    // All helpers have left their pull loops (the guard joined them), so
    // the captured exception can be rethrown without racing the frame.
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace cdma
