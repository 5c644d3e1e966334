/**
 * @file
 * Tests of the benchmark's order statistics (src/stats.hh). Self-
 * contained: the checks stay live in optimized builds (no assert), and
 * the process exits non-zero when any check fails.
 *
 * Run: ctest --test-dir <build dir>   (or the rtbench_stats_test binary)
 */

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "stats.hh"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

/** 1, 2, ..., n in a scrambled order (the statistics must sort). */
std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>((i * 7919) % n + 1);
    return v;
}

void
testMedian()
{
    using rtbench::median;
    check(median({}) == 0.0, "median of nothing is 0");
    check(median({4.0}) == 4.0, "median of one sample");
    check(median({3.0, 1.0, 2.0}) == 2.0, "odd count: middle sample");
    check(median({4.0, 1.0, 3.0, 2.0}) == 2.5,
          "even count: mean of the two middle samples");
    check(median({5.0, 5.0, 1.0, 9.0}) == 5.0, "ties in the middle");
    check(median(ramp(101)) == 51.0, "median of 1..101");
}

void
testPercentile()
{
    using rtbench::nearestRank;
    using rtbench::percentile;
    // Nearest rank: ceil(p * n), exact in integer arithmetic.
    check(nearestRank(100, 9000) == 90, "p90 of 100 is rank 90");
    check(nearestRank(101, 9000) == 91, "p90 of 101 rounds up to 91");
    check(nearestRank(10, 9000) == 9, "p90 of 10 is rank 9");
    check(nearestRank(1, 9000) == 1, "rank is at least 1");
    check(nearestRank(1000, 9990) == 999, "p99.9 of 1000 is rank 999");
    check(percentile(ramp(100), 9000) == 90.0, "p90 of 1..100 is 90");
    check(percentile(ramp(10), 9000) == 9.0, "p90 of 1..10 is 9");
    check(percentile(ramp(101), 9000) == 91.0, "p90 of 1..101 is 91");
    check(percentile(ramp(7), 10000) == 7.0, "p100 is the maximum");
    check(percentile({}, 9000) == 0.0, "percentile of nothing is 0");
}

void
testTailRule()
{
    using rtbench::tailPercentile;
    // 100 samples: p99 has 1 beyond it, p90 exactly 10 -> p90.
    rtbench::Tail t = tailPercentile(ramp(100));
    check(t.per_myriad == 9000, "100 samples: tail is p90");
    check(t.beyond == 10 && t.samples == 100 && t.value == 90.0,
          "100 samples: p90 = 90 with 10 beyond");
    // 99 samples: p90 is rank 90, only 9 beyond -> falls to p50.
    t = tailPercentile(ramp(99));
    check(t.per_myriad == 5000, "99 samples: p90 lacks 10 beyond -> p50");
    check(t.beyond == 49 && t.value == 50.0, "99 samples: p50 = 50");
    // 1000 samples: p99.9 has 1 beyond, p99 exactly 10 -> p99.
    t = tailPercentile(ramp(1000));
    check(t.per_myriad == 9900 && t.beyond == 10 && t.value == 990.0,
          "1000 samples: tail is p99 = 990 with 10 beyond");
    // 999 samples: p99 is rank 990, 9 beyond -> p90.
    t = tailPercentile(ramp(999));
    check(t.per_myriad == 9000 && t.beyond == 99,
          "999 samples: tail is p90");
    // 100000 samples reach p99.99 (rank 99990, 10 beyond).
    t = tailPercentile(ramp(100000));
    check(t.per_myriad == 9999 && t.beyond == 10,
          "100000 samples: tail is p99.99");
    // Too few samples for any qualifying percentile: median, flagged by
    // a beyond count under the minimum.
    t = tailPercentile(ramp(12));
    check(t.per_myriad == 5000 && t.beyond == 6 &&
              t.beyond < rtbench::kTailMinBeyond,
          "12 samples: median with its shortfall visible");
    t = tailPercentile({});
    check(t.samples == 0 && t.value == 0.0, "empty sample");
}

void
testGbpsFromMedian()
{
    // Nine 10 ms iterations and one 1 s stall: the median ignores the
    // stall, a total-time rate would not.
    std::vector<double> seconds(9, 0.010);
    seconds.push_back(1.0);
    const uint64_t bytes = 50'000'000;
    const double gbps = rtbench::gbpsFromMedian(bytes, seconds);
    check(near(gbps, 5.0), "GB/s from the 10 ms median is 5.0");
    const double total = std::accumulate(seconds.begin(), seconds.end(),
                                         0.0);
    const double from_total =
        static_cast<double>(bytes) * 10.0 / total / 1e9;
    check(from_total < 0.5 * gbps,
          "a total-time rate would have halved the figure");
    check(rtbench::gbpsFromMedian(bytes, {}) == 0.0, "no samples -> 0");
}

} // namespace

int
main()
{
    testMedian();
    testPercentile();
    testTailRule();
    testGbpsFromMedian();
    if (failures == 0)
        std::printf("rtbench stats: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
