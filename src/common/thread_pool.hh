/**
 * @file
 * Minimal reusable worker-thread pool. Built for the parallel compression
 * fan-out (the software analogue of the paper's replicated CPE/DPE
 * pipelines, Section V-B) but generic: parallelFor() runs an index space
 * across the workers with the calling thread participating, so a pool of
 * N threads gives N+1 lanes and a pool of zero threads degrades to a
 * plain serial loop with no synchronization.
 */

#ifndef CDMA_COMMON_THREAD_POOL_HH
#define CDMA_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cdma {

/** Fixed-size worker pool with a blocking fork-join parallelFor(). */
class ThreadPool
{
  public:
    /**
     * @param lanes Total execution lanes, including the calling thread:
     *        the pool spawns (lanes - 1) workers. 0 means "one lane per
     *        hardware thread"; 1 spawns nothing and parallelFor() runs
     *        inline.
     */
    explicit ThreadPool(unsigned lanes = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution lanes (worker threads + the calling thread). */
    unsigned lanes() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /** True when the pool has worker threads beyond the caller. */
    bool hasWorkers() const { return !workers_.empty(); }

    /**
     * Run @p fn(index) for every index in [0, count), distributing indices
     * dynamically across all lanes. Blocks until every index has been
     * processed. If @p fn throws on any lane, the first exception (by
     * completion order) is captured, remaining unclaimed indices are
     * abandoned, every lane is joined, and the exception is rethrown on
     * the calling thread at the rendezvous — a worker never dies with an
     * exception in flight (codec invariant violations still panic() and
     * abort). Reentrant calls from within @p fn are not supported.
     */
    void parallelFor(uint64_t count,
                     const std::function<void(uint64_t)> &fn);

    /**
     * Enqueue @p task for asynchronous execution on a worker thread and
     * return immediately. The pool provides no completion signal for
     * detached tasks: callers own their rendezvous (the ordered shard
     * fan-out, ParallelCompressor::runOrderedShardFanOut(), pairs this
     * with per-shard done flags) and must ensure every reference the
     * task captures outlives it. Requires workers (lanes > 1).
     */
    void submitDetached(std::function<void()> task);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::queue<std::function<void()>> tasks_;
    bool stopping_ = false;
};

} // namespace cdma

#endif // CDMA_COMMON_THREAD_POOL_HH
