#include "common/thread_pool.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>

namespace cdma {

/**
 * Every lane claims indices from one counter and flags each as it
 * completes. Helpers reach this state through the pool's queue, and the
 * call that owns it does not return before every helper has left it.
 */
struct ThreadPool::FanOut {
    FanOut(FunctionRef<void(uint64_t, unsigned)> work_fn, uint64_t indices,
           uint64_t max_in_flight)
        : work(work_fn), count(indices), window(max_in_flight)
    {
    }

    FunctionRef<void(uint64_t, unsigned)> work;
    const uint64_t count;
    const uint64_t window;
    std::atomic<uint64_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    // Guarded by mutex. Index i's done flag sits at i % kMaxInFlight:
    // i is claimed only once i - window has drained and its flag was
    // cleared, so no two live indices share a flag.
    std::array<bool, kMaxInFlight> done{};
    uint64_t drained = 0;
    bool stopped = false;
    uint64_t helpers_exited = 0;
    std::exception_ptr first_error;
    // Guarded by the pool's mutex_: helpers not yet started (the next
    // to start takes this many as its lane), and the next fan-out in
    // the pool's queue.
    uint64_t unstarted = 0;
    FanOut *queued_next = nullptr;

    void workIndex(uint64_t i, unsigned lane);
    void helperLoop(unsigned lane);
};

void
ThreadPool::FanOut::workIndex(uint64_t i, unsigned lane)
{
    try {
        work(i, lane);
    } catch (...) {
        // First exception wins; abandon the remaining indices so every
        // lane exits promptly, and wake the drain (which stops and
        // rethrows after the join).
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error)
            first_error = std::current_exception();
        stopped = true;
        next.store(count, std::memory_order_relaxed);
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        done[i % kMaxInFlight] = true;
    }
    cv.notify_all();
}

void
ThreadPool::FanOut::helperLoop(unsigned lane)
{
    for (;;) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            break;
        if (i >= window) {
            // Index i starts only once index i - window has drained.
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return stopped || i < drained + window; });
            if (stopped)
                break;
        }
        workIndex(i, lane);
    }
    // Notify while holding the mutex: once helpers_exited reaches the
    // target the caller may return and destroy this frame's cv, so an
    // unlocked notify could touch a dead condition variable.
    std::lock_guard<std::mutex> lock(mutex);
    ++helpers_exited;
    cv.notify_all();
}

ThreadPool::ThreadPool(unsigned lanes)
{
    if (lanes == 0)
        lanes = hardwareLanes();
    workers_.reserve(lanes - 1);
    for (unsigned i = 0; i + 1 < lanes; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

unsigned
ThreadPool::hardwareLanes()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool(static_cast<unsigned>(
        std::min<uint64_t>(hardwareLanes(), kMaxInFlight / 2)));
    return pool;
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
        FanOut *fan = nullptr;
        unsigned lane = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] {
                return stopping_ || queue_head_ != nullptr;
            });
            if (queue_head_ == nullptr)
                return; // stopping and drained
            fan = queue_head_;
            lane = static_cast<unsigned>(fan->unstarted);
            if (--fan->unstarted == 0) {
                queue_head_ = fan->queued_next;
                if (queue_head_ == nullptr)
                    queue_tail_ = nullptr;
            }
        }
        fan->helperLoop(lane);
    }
}

void
ThreadPool::orderedFanOut(uint64_t count,
                          FunctionRef<void(uint64_t, unsigned)> work,
                          FunctionRef<bool(uint64_t)> drain, uint64_t window)
{
    window = window == 0 ? kMaxInFlight : std::min(window, kMaxInFlight);
    const uint64_t helpers = count < 2
        ? 0
        : std::min<uint64_t>({workers_.size(), count - 1, window - 1});
    if (helpers == 0) {
        for (uint64_t i = 0; i < count; ++i) {
            work(i, 0);
            if (!drain(i))
                return;
        }
        return;
    }

    // The calling thread drains strictly in index order; while the next
    // index to drain is still being worked elsewhere, it claims and
    // works an unclaimed index inside the window itself.
    FanOut fan(work, count, window);
    fan.unstarted = helpers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_tail_ != nullptr)
            queue_tail_->queued_next = &fan;
        else
            queue_head_ = &fan;
        queue_tail_ = &fan;
    }
    for (uint64_t h = 0; h < helpers; ++h)
        work_cv_.notify_one();

    {
        // Helpers read this frame's state, so every exit path —
        // including a throwing drain — abandons the unclaimed indices,
        // wakes helpers waiting on the window, and waits for all of
        // them to leave their pull loop before the frame unwinds.
        struct JoinGuard {
            FanOut &fan;
            const uint64_t target;
            ~JoinGuard()
            {
                std::unique_lock<std::mutex> lock(fan.mutex);
                fan.stopped = true;
                fan.next.store(fan.count, std::memory_order_relaxed);
                fan.cv.notify_all();
                fan.cv.wait(lock,
                            [&] { return fan.helpers_exited == target; });
            }
        } join{fan, helpers};

        // True once index i is done; false once any lane's work threw.
        auto ready = [&](uint64_t i) {
            const uint64_t limit = std::min(count, i + window);
            for (;;) {
                {
                    std::lock_guard<std::mutex> lock(fan.mutex);
                    if (fan.first_error)
                        return false;
                    if (fan.done[i % kMaxInFlight])
                        return true;
                }
                uint64_t claimed = fan.next.load(std::memory_order_relaxed);
                while (claimed < limit &&
                       !fan.next.compare_exchange_weak(
                           claimed, claimed + 1, std::memory_order_relaxed)) {
                }
                if (claimed < limit) {
                    fan.workIndex(claimed, 0);
                    continue;
                }
                // Nothing left to claim: wait for the lane working i.
                std::unique_lock<std::mutex> lock(fan.mutex);
                fan.cv.wait(lock, [&] {
                    return fan.done[i % kMaxInFlight] ||
                        fan.first_error != nullptr;
                });
                return fan.first_error == nullptr;
            }
        };
        for (uint64_t i = 0; i < count; ++i) {
            if (!ready(i) || !drain(i))
                break;
            std::lock_guard<std::mutex> lock(fan.mutex);
            fan.done[i % kMaxInFlight] = false;
            fan.drained = i + 1;
            if (i + window < count)
                fan.cv.notify_all(); // index i + window may start
        }
    }
    // All helpers have left their pull loops (the guard joined them), so
    // the captured exception can be rethrown without racing the frame.
    if (fan.first_error)
        std::rethrow_exception(fan.first_error);
}

} // namespace cdma
