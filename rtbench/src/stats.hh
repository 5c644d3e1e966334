/**
 * @file
 * The benchmark's own order statistics. Every host-time number the
 * benchmark reports is a statistic of whole-iteration (or whole-pass)
 * samples, never a total: a total folds every stall the host imposed
 * into the result, while the median shrugs off the odd descheduled
 * iteration. Percentiles use the nearest-rank rule with integer
 * arithmetic (per-myriad ranks), so a rank never depends on how 0.9
 * rounds in binary.
 */

#ifndef RTBENCH_STATS_HH
#define RTBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rtbench {

/** Median; the mean of the two middle samples when the count is even.
 *  0 for an empty sample. */
inline double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return (lower + upper) / 2.0;
}

/** 1-based nearest rank of the @p per_myriad / 10000 percentile among
 *  @p n samples: ceil(p * n), at least 1. */
inline size_t
nearestRank(size_t n, uint32_t per_myriad)
{
    const uint64_t rank =
        (static_cast<uint64_t>(per_myriad) * n + 9999) / 10000;
    return static_cast<size_t>(std::max<uint64_t>(rank, 1));
}

/** Nearest-rank percentile (@p per_myriad / 10000, e.g. 9000 = p90):
 *  the ceil(p * n)-th smallest sample. 0 for an empty sample. */
inline double
percentile(std::vector<double> samples, uint32_t per_myriad)
{
    if (samples.empty())
        return 0.0;
    const size_t index = nearestRank(samples.size(), per_myriad) - 1;
    std::nth_element(samples.begin(), samples.begin() + index,
                     samples.end());
    return samples[index];
}

/** A tail percentile together with the evidence behind it. */
struct Tail {
    uint32_t per_myriad = 0; ///< which percentile (9900 = p99)
    double value = 0.0;      ///< the sample at that nearest rank
    size_t beyond = 0;       ///< samples strictly above that rank
    size_t samples = 0;      ///< sample count
};

/** Samples a tail percentile must have beyond it to be reported. */
inline constexpr size_t kTailMinBeyond = 10;

/**
 * The highest percentile of p50/p90/p99/p99.9/p99.99 that has at least
 * kTailMinBeyond samples beyond its nearest rank. With fewer than 20
 * samples not even the median qualifies; the median is returned then,
 * and its `beyond` count shows the shortfall.
 */
inline Tail
tailPercentile(const std::vector<double> &samples)
{
    static constexpr uint32_t kLadder[] = {9999, 9990, 9900, 9000, 5000};
    Tail tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    tail.per_myriad = 5000;
    for (const uint32_t p : kLadder) {
        if (samples.size() - nearestRank(samples.size(), p) >=
            kTailMinBeyond) {
            tail.per_myriad = p;
            break;
        }
    }
    tail.beyond = samples.size() - nearestRank(samples.size(), tail.per_myriad);
    tail.value = percentile(samples, tail.per_myriad);
    return tail;
}

/** Throughput of moving @p bytes_per_iteration once per iteration, at
 *  the median iteration time, in GB/s (1e9 bytes per second). */
inline double
gbpsFromMedian(uint64_t bytes_per_iteration,
               const std::vector<double> &iteration_seconds)
{
    const double seconds = median(iteration_seconds);
    return seconds > 0.0
        ? static_cast<double>(bytes_per_iteration) / seconds / 1e9
        : 0.0;
}

} // namespace rtbench

#endif // RTBENCH_STATS_HH
