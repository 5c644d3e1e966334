/** @file Tests for the worker pool's ordered fork-join fan-out. */

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"

namespace cdma {
namespace {

/** Drain that accepts every index and records the order it saw. */
auto
recordingDrain(std::vector<uint64_t> &drained)
{
    return [&drained](uint64_t i) {
        drained.push_back(i);
        return true;
    };
}

/** 0, 1, ..., count - 1. */
std::vector<uint64_t>
indices(uint64_t count)
{
    std::vector<uint64_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    return order;
}

TEST(ThreadPool, SingleLaneRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.lanes(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::string> events;
    pool.orderedFanOut(
        5,
        [&](uint64_t i, unsigned lane) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            EXPECT_EQ(lane, 0u);
            events.push_back("w" + std::to_string(i));
        },
        [&](uint64_t i) {
            events.push_back("d" + std::to_string(i));
            return true;
        });
    EXPECT_EQ(events,
              (std::vector<std::string>{"w0", "d0", "w1", "d1", "w2", "d2",
                                        "w3", "d3", "w4", "d4"}));
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.lanes(), 4u);
    constexpr uint64_t kCount = 10000;
    std::vector<std::atomic<int>> hits(kCount);
    std::vector<uint64_t> drained;
    pool.orderedFanOut(
        kCount, [&](uint64_t i, unsigned) { hits[i].fetch_add(1); },
        recordingDrain(drained));
    for (uint64_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(drained, indices(kCount));
}

TEST(ThreadPool, ZeroCountIsANoOp)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.orderedFanOut(
        0, [&](uint64_t, unsigned) { calls.fetch_add(1); },
        [&](uint64_t) {
            calls.fetch_add(1);
            return true;
        });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, FewerItemsThanLanes)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    std::vector<uint64_t> drained;
    pool.orderedFanOut(
        3, [&](uint64_t i, unsigned) { hits[i].fetch_add(1); },
        recordingDrain(drained));
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
    EXPECT_EQ(drained, indices(3));
}

TEST(ThreadPool, ReusableAcrossManyDispatches)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<uint64_t> sum{0};
        std::vector<uint64_t> drained;
        pool.orderedFanOut(
            100, [&](uint64_t i, unsigned) { sum.fetch_add(i + 1); },
            recordingDrain(drained));
        EXPECT_EQ(sum.load(), 100u * 101u / 2);
        EXPECT_EQ(drained, indices(100)) << "round " << round;
    }
}

TEST(ThreadPool, WindowBoundsIndicesBetweenClaimAndDrain)
{
    // Index i starts only after drain(i - window) has returned, so a
    // result kept at slot i % window is still there at its drain, and
    // no two live indices share a slot.
    ThreadPool pool(4);
    constexpr uint64_t kCount = 500;
    for (const uint64_t window : {1u, 2u, 3u, 8u}) {
        std::atomic<uint64_t> drained_count{0};
        std::atomic<int> early{0};
        std::vector<uint64_t> slots(window, kCount);
        std::vector<uint64_t> drained;
        pool.orderedFanOut(
            kCount,
            [&](uint64_t i, unsigned) {
                if (i >= drained_count.load() + window)
                    early.fetch_add(1);
                slots[i % window] = i;
            },
            [&](uint64_t i) {
                EXPECT_EQ(slots[i % window], i) << "window " << window;
                drained.push_back(i);
                drained_count.store(i + 1);
                return true;
            },
            window);
        EXPECT_EQ(early.load(), 0) << "window " << window;
        EXPECT_EQ(drained, indices(kCount)) << "window " << window;
    }
}

TEST(ThreadPool, RunningLanesAreNumberedBelowTheirBound)
{
    // The caller is lane 0 and every helper takes its own number, below
    // min(lanes, count, window): a block of per-lane state is the
    // running work's alone. Windows and counts below the lane count
    // must shrink the numbers too.
    ThreadPool pool(6);
    for (const uint64_t window : {0u, 2u, 3u}) {
        for (const uint64_t count : {2u, 4u, 300u}) {
            const uint64_t bound = std::min<uint64_t>(
                {pool.lanes(), count,
                 window == 0 ? ThreadPool::kMaxInFlight : window});
            std::vector<std::atomic<int>> busy(pool.lanes());
            std::atomic<int> clashes{0};
            const std::thread::id caller = std::this_thread::get_id();
            std::vector<uint64_t> drained;
            pool.orderedFanOut(
                count,
                [&](uint64_t, unsigned lane) {
                    if (lane >= bound || busy[lane].fetch_add(1) != 0 ||
                        (lane == 0) !=
                            (std::this_thread::get_id() == caller))
                        clashes.fetch_add(1);
                    std::this_thread::yield();
                    if (lane < bound)
                        busy[lane].fetch_sub(1);
                },
                recordingDrain(drained), window);
            EXPECT_EQ(clashes.load(), 0)
                << "window " << window << ", count " << count;
            EXPECT_EQ(drained, indices(count));
        }
    }
}

TEST(ThreadPool, ConcurrentCallersShareOnePool)
{
    // Two threads fan out on one pool at once, as the trainer and the
    // activation generator may on ThreadPool::shared(). Each call must
    // run every index once, drain in order, and number its own lanes
    // below its own bound, lane 0 being its own calling thread.
    ThreadPool pool(4);
    constexpr int kRounds = 40;
    std::atomic<int> failures{0};
    auto caller = [&](uint64_t seed) {
        for (int round = 0; round < kRounds; ++round) {
            const uint64_t count = 1 + (seed * 7 + round * 13) % 97;
            const uint64_t window = round % 3 == 0 ? 0 : 1 + round % 5;
            const uint64_t bound = std::min<uint64_t>(
                {pool.lanes(), count,
                 window == 0 ? ThreadPool::kMaxInFlight : window});
            std::vector<std::atomic<int>> runs(count);
            std::vector<std::atomic<int>> busy(pool.lanes());
            const std::thread::id self = std::this_thread::get_id();
            std::vector<uint64_t> drained;
            pool.orderedFanOut(
                count,
                [&](uint64_t i, unsigned lane) {
                    runs[i].fetch_add(1);
                    if (lane >= bound || busy[lane].fetch_add(1) != 0 ||
                        (lane == 0) != (std::this_thread::get_id() == self))
                        failures.fetch_add(1);
                    std::this_thread::yield();
                    if (lane < bound)
                        busy[lane].fetch_sub(1);
                },
                recordingDrain(drained), window);
            for (const auto &r : runs) {
                if (r.load() != 1)
                    failures.fetch_add(1);
            }
            if (drained != indices(count))
                failures.fetch_add(1);
        }
    };
    std::thread other(caller, 1);
    caller(2);
    other.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPool, StopWakesHelpersWaitingOnTheWindow)
{
    // A drain that stops while helpers wait for window room must still
    // join them: the call returns, and nothing past the stop drains.
    ThreadPool pool(4);
    std::vector<uint64_t> drained;
    pool.orderedFanOut(
        1000, [](uint64_t, unsigned) { std::this_thread::yield(); },
        [&](uint64_t i) {
            drained.push_back(i);
            return i < 5;
        },
        2);
    EXPECT_EQ(drained, indices(6));
}

TEST(ThreadPool, WorkerExceptionRethrowsAtRendezvous)
{
    // A lane body that throws must not kill the worker thread: the
    // first exception is captured, the remaining indices are abandoned,
    // nothing from the failing index on is drained, and the exception
    // surfaces on the calling thread after the join.
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    std::vector<uint64_t> drained;
    try {
        pool.orderedFanOut(
            10000,
            [&](uint64_t i, unsigned) {
                if (i == 17)
                    throw std::runtime_error("lane failure at 17");
                executed.fetch_add(1);
            },
            recordingDrain(drained));
        FAIL() << "orderedFanOut swallowed the worker exception";
    } catch (const std::runtime_error &error) {
        EXPECT_EQ(std::string(error.what()), "lane failure at 17");
    }
    // Abandonment: the dispatch stopped early rather than draining the
    // whole index space behind a poisoned run.
    EXPECT_LT(executed.load(), 10000);
    EXPECT_LE(drained.size(), 17u);
}

TEST(ThreadPool, PoolSurvivesAndIsReusableAfterAnException)
{
    ThreadPool pool(4);
    for (int round = 0; round < 5; ++round) {
        EXPECT_THROW(pool.orderedFanOut(
                         64,
                         [&](uint64_t i, unsigned) {
                             if (i == 7)
                                 throw std::runtime_error("boom");
                         },
                         [](uint64_t) { return true; }),
                     std::runtime_error);
        std::atomic<int> calls{0};
        std::vector<uint64_t> drained;
        pool.orderedFanOut(
            64, [&](uint64_t, unsigned) { calls.fetch_add(1); },
            recordingDrain(drained));
        EXPECT_EQ(calls.load(), 64) << "round " << round;
        EXPECT_EQ(drained, indices(64)) << "round " << round;
    }
}

TEST(ThreadPool, InlineLaneExceptionPropagatesDirectly)
{
    ThreadPool pool(1);
    std::vector<uint64_t> ran;
    std::vector<uint64_t> drained;
    EXPECT_THROW(pool.orderedFanOut(
                     5,
                     [&](uint64_t i, unsigned) {
                         if (i == 2)
                             throw std::logic_error("inline");
                         ran.push_back(i);
                     },
                     recordingDrain(drained)),
                 std::logic_error);
    // Serial semantics: indices before the throwing one ran and
    // drained, later ones were never reached.
    EXPECT_EQ(ran, (std::vector<uint64_t>{0, 1}));
    EXPECT_EQ(drained, (std::vector<uint64_t>{0, 1}));
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency)
{
    ThreadPool pool; // lanes = 0 -> hardware concurrency (>= 1)
    EXPECT_EQ(pool.lanes(),
              std::max(1u, std::thread::hardware_concurrency()));
    std::atomic<int> calls{0};
    std::vector<uint64_t> drained;
    pool.orderedFanOut(
        17, [&](uint64_t, unsigned) { calls.fetch_add(1); },
        recordingDrain(drained));
    EXPECT_EQ(calls.load(), 17);
    EXPECT_EQ(drained, indices(17));
}

} // namespace
} // namespace cdma
