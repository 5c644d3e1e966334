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
 * joins its helpers before it returns. A dispatch allocates nothing:
 * work and drain are passed by reference, and the queue links the
 * call's frame-local state.
 */

#ifndef CDMA_COMMON_THREAD_POOL_HH
#define CDMA_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.hh"

namespace cdma {

/** Fixed-size worker pool with a blocking, ordered fork-join fan-out. */
class ThreadPool
{
  public:
    /** Most indices one orderedFanOut() holds between claim and drain. */
    static constexpr uint64_t kMaxInFlight = 64;

    /**
     * @param lanes Total execution lanes, including the calling thread:
     *        the pool spawns (lanes - 1) workers. 0 means "one lane per
     *        hardware thread"; 1 spawns nothing and orderedFanOut() runs
     *        inline.
     */
    explicit ThreadPool(unsigned lanes = 0);
    ~ThreadPool();

    /** One lane per hardware thread (at least one): ThreadPool(0)'s. */
    static unsigned hardwareLanes();

    /**
     * The process's one shared pool, started by its first caller: one
     * lane per hardware thread, and at most kMaxInFlight / 2, so that a
     * window of two indices per lane fits the in-flight bound. The
     * trainer's per-sample passes and the activation generator both fan
     * out on it. Several threads may fan out on it at once; work running
     * on it must not fan out on it again.
     */
    static ThreadPool &shared();

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
     * The ordered fan-out: every lane runs work(i, lane) on indices i it
     * claims from one shared counter, and the calling thread runs
     * @p drain for index 0, 1, 2, ... as soon as each index — and every
     * index before it — has completed. The caller is a lane too: while
     * the next index to drain is still being worked elsewhere, it claims
     * and works an unclaimed index, then checks again. Without workers
     * (or with fewer than two indices, or a window of 1) it runs
     * work(i, 0), drain(i) for each index in turn, inline.
     *
     * `lane` numbers the lane running the work: the caller is lane 0 and
     * each helper takes its own number as it starts, so lane is below
     * min(lanes(), count, window) and no two works running at once share
     * it. State a caller keeps per lane is the running work's alone.
     *
     * At most @p window indices (kMaxInFlight when 0 or larger) are
     * claimed and not yet drained at any time: index i starts only after
     * drain(i - window) has returned. So state a caller keeps per index
     * at slot i % window is free again when index i claims it, and
     * per-index results need window slots, not count.
     *
     * @p work may run on any lane, concurrently with other indices' work
     * and with @p drain, so it must only touch its own index's and
     * lane's state.
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
                       FunctionRef<void(uint64_t, unsigned)> work,
                       FunctionRef<bool(uint64_t)> drain,
                       uint64_t window = 0);

  private:
    /** The frame-local state of one orderedFanOut() call. */
    struct FanOut;

    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    /** Fan-outs with helpers not yet started, oldest first, linked
     *  through their own state (guarded by mutex_). */
    FanOut *queue_head_ = nullptr;
    FanOut *queue_tail_ = nullptr;
    bool stopping_ = false;
};

} // namespace cdma

#endif // CDMA_COMMON_THREAD_POOL_HH
