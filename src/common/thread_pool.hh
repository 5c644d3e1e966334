/**
 * @file
 * Minimal reusable worker-thread pool. Built for the parallel compression
 * fan-out (the software analogue of the paper's replicated CPE/DPE
 * pipelines, Section V-B) but generic: its one fork-join entry point,
 * orderedFanOut(), runs an index space across the workers with the
 * calling thread participating and hands each finished index to the
 * caller in index order, so a pool of N threads gives N+1 lanes and a
 * pool of zero threads degrades to a plain serial loop with no
 * synchronization. Tasks never leave the pool detached: every dispatch
 * joins its helpers before it returns.
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

/** Fixed-size worker pool with a blocking, ordered fork-join fan-out. */
class ThreadPool
{
  public:
    /**
     * @param lanes Total execution lanes, including the calling thread:
     *        the pool spawns (lanes - 1) workers. 0 means "one lane per
     *        hardware thread"; 1 spawns nothing and orderedFanOut() runs
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
     * The ordered fan-out: every lane runs @p work on indices it claims
     * from one shared counter, and the calling thread runs @p drain for
     * index 0, 1, 2, ... as soon as each index — and every index before
     * it — has completed. The caller is a lane too: while the next index
     * to drain is still being worked elsewhere, it claims and works an
     * unclaimed index, then checks again. Without workers (or with
     * fewer than two indices) it runs work(i), drain(i) for each index
     * in turn, inline.
     *
     * @p work may run on any lane, concurrently with other indices' work
     * and with @p drain, so it must only touch its own index's state.
     * @p drain returns false to stop: unclaimed indices are abandoned
     * and no later index is drained. Every exit path (including a
     * throwing @p drain) joins the helpers before the call returns; a
     * throwing @p work, on a worker or on the caller, abandons the
     * remaining indices and the first such exception is rethrown here
     * after the join — a worker never dies with an exception in flight
     * (codec invariant violations still panic() and abort). Reentrant
     * calls from within @p work are not supported.
     */
    void orderedFanOut(uint64_t count,
                       const std::function<void(uint64_t)> &work,
                       const std::function<bool(uint64_t)> &drain);

  private:
    /** Enqueue @p task on a worker; orderedFanOut() owns the join. */
    void submitDetached(std::function<void()> task);

    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::queue<std::function<void()>> tasks_;
    bool stopping_ = false;
};

} // namespace cdma

#endif // CDMA_COMMON_THREAD_POOL_HH
