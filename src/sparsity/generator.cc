#include "sparsity/generator.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/function_ref.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace cdma {

namespace {

/** Blocks a fanned-out pass cuts its range into per lane, so that lanes
 *  that finish early take over the rest. */
constexpr uint64_t kBlocksPerLane = 4;

/** kthSmallest() buckets each value by this many top bits of its key,
 *  and looks for one bucket's values this many at a time. */
constexpr unsigned kBucketBits = 12;
constexpr size_t kBuckets = size_t{1} << kBucketBits;
constexpr uint64_t kStretch = 64;

/** Lanes a pass over a map of @p elements elements runs on. */
unsigned
passLanes(uint64_t elements)
{
    return elements < kGeneratorFanOutElements
        ? 1 : ThreadPool::shared().lanes();
}

/**
 * work(begin, end, lane) over [0, @p count) cut into contiguous blocks,
 * on @p lanes lanes of the shared pool (inline on one). lane < @p lanes,
 * and no two blocks running at once share one.
 */
void
forEachBlock(uint64_t count, unsigned lanes,
             FunctionRef<void(uint64_t, uint64_t, unsigned)> work)
{
    const uint64_t blocks = std::min<uint64_t>(count, lanes * kBlocksPerLane);
    if (lanes <= 1 || blocks <= 1) {
        work(0, count, 0);
        return;
    }
    ThreadPool::shared().orderedFanOut(
        blocks,
        [&](uint64_t b, unsigned lane) {
            work(count * b / blocks, count * (b + 1) / blocks, lane);
        },
        [](uint64_t) { return true; });
}

/** The float's bits remapped so that unsigned order is float order, with
 *  -0.0 just below +0.0. */
uint32_t
orderedKey(float v)
{
    const auto bits = std::bit_cast<uint32_t>(v);
    const auto sign = static_cast<uint32_t>(static_cast<int32_t>(bits) >> 31);
    return bits ^ (sign | 0x80000000u);
}

/** Grid extent along an axis of @p extent activations. */
int64_t
gridExtent(int64_t extent, double cluster_scale)
{
    return std::max<int64_t>(
        2, static_cast<int64_t>(std::ceil(static_cast<double>(extent) /
                                          cluster_scale)) + 1);
}

/** Where one activation samples the grid along an axis: between grid
 *  points lo and hi, at fraction frac of the way. */
struct GridStep {
    int64_t lo;
    int64_t hi;
    float frac;
};

/** The grid step of every activation along an axis. */
std::vector<GridStep>
gridSteps(int64_t extent, int64_t grid)
{
    const double scale = extent > 1
        ? static_cast<double>(grid - 1) / static_cast<double>(extent - 1)
        : 0.0;
    std::vector<GridStep> steps(static_cast<size_t>(extent));
    for (int64_t i = 0; i < extent; ++i) {
        const double g = static_cast<double>(i) * scale;
        const auto lo = static_cast<int64_t>(g);
        steps[static_cast<size_t>(i)] = {
            lo, std::min(lo + 1, grid - 1),
            static_cast<float>(g - static_cast<double>(lo))};
    }
    return steps;
}

} // namespace

float
kthSmallest(std::span<const float> values, uint64_t k)
{
    const uint64_t n = values.size();
    CDMA_ASSERT(k < n, "rank %llu of %llu values",
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(n));
    constexpr unsigned shift = 32 - kBucketBits;
    const unsigned lanes = passLanes(n);

    // Count the values in each bucket of their keys' top bits, per lane.
    // (The loops read through local pointers: a capture read through a
    // reference can alias what the loop writes, and keeps it scalar.)
    std::vector<uint64_t> counts(lanes * kBuckets);
    forEachBlock(n, lanes, [&](uint64_t begin, uint64_t end, unsigned lane) {
        const float *const data = values.data();
        uint64_t *const count = counts.data() + lane * kBuckets;
        for (uint64_t i = begin; i < end; ++i)
            ++count[orderedKey(data[i]) >> shift];
    });

    // The bucket that holds rank k, and how many values rank below it.
    uint32_t bucket = 0;
    uint64_t below = 0;
    uint64_t held = 0;
    for (;; ++bucket) {
        held = 0;
        for (unsigned lane = 0; lane < lanes; ++lane)
            held += counts[lane * kBuckets + bucket];
        if (below + held > k)
            break;
        below += held;
    }

    // Select among that bucket's values. They share a sign, so float
    // order and key order agree on them, and the k-th is one value
    // whatever order the lanes gather them in. Few values fall in the
    // bucket, so a branch-free count skips each stretch that holds none;
    // a stretch with hits copies them out under one atomic add, and the
    // lanes allocate nothing.
    std::vector<float> all(held);
    std::atomic<uint64_t> gathered{0};
    forEachBlock(n, lanes, [&](uint64_t begin, uint64_t end, unsigned) {
        const float *const data = values.data();
        const uint32_t wanted = bucket;
        float hit[kStretch];
        for (uint64_t first = begin; first < end; first += kStretch) {
            const uint64_t last = std::min(end, first + kStretch);
            uint32_t hits = 0;
            for (uint64_t i = first; i < last; ++i)
                hits += orderedKey(data[i]) >> shift == wanted;
            if (hits == 0)
                continue;
            hits = 0;
            for (uint64_t i = first; i < last; ++i) {
                if (orderedKey(data[i]) >> shift == wanted)
                    hit[hits++] = data[i];
            }
            std::copy(hit, hit + hits,
                      all.begin() +
                          static_cast<int64_t>(gathered.fetch_add(hits)));
        }
    });
    const auto rank = static_cast<int64_t>(k - below);
    std::nth_element(all.begin(), all.begin() + rank, all.end());
    return all[static_cast<size_t>(rank)];
}

ActivationGenerator::ActivationGenerator(const ActivationGenConfig &config)
    : config_(config)
{
    CDMA_ASSERT(config.cluster_scale >= 1.0,
                "cluster scale must be at least one activation");
}

Tensor4D
ActivationGenerator::generate(const Shape4D &shape, Layout layout,
                              double density, Rng &rng) const
{
    CDMA_ASSERT(density >= 0.0 && density <= 1.0,
                "density %f out of range", density);
    Tensor4D out(shape, layout);
    const auto total = static_cast<uint64_t>(shape.elements());
    if (total == 0)
        return out;

    // Smooth per-plane fields: coarse Gaussian grid, bilinear upsampling.
    // Every draw comes first, plane by plane: the bias, then the grid.
    const int64_t grid_h = gridExtent(shape.h, config_.cluster_scale);
    const int64_t grid_w = gridExtent(shape.w, config_.cluster_scale);
    const auto planes = static_cast<uint64_t>(shape.n * shape.c);
    const auto plane_draws = static_cast<size_t>(1 + grid_h * grid_w);
    std::vector<float> draws(planes * plane_draws);
    for (uint64_t p = 0; p < planes; ++p) {
        float *draw = draws.data() + p * plane_draws;
        draw[0] = static_cast<float>(
            rng.normal(0.0, config_.channel_bias_stddev));
        for (size_t i = 1; i < plane_draws; ++i)
            draw[i] = static_cast<float>(rng.normal());
    }
    if (density <= 0.0)
        return out; // an infinite threshold zeroes every activation

    // Each plane's field, written straight to its place in the layout.
    // Interpolating every grid row along x first gives the bilinear
    // blend's top and bottom rows once per plane instead of once per
    // activation (the same floats in the same order either way).
    const unsigned lanes = passLanes(total);
    const std::vector<GridStep> xs = gridSteps(shape.w, grid_w);
    const std::vector<GridStep> ys = gridSteps(shape.h, grid_h);
    const auto width = static_cast<size_t>(shape.w);
    const int64_t origin = linearIndex(shape, layout, 0, 0, 0, 0);
    const int64_t row_stride =
        linearIndex(shape, layout, 0, 0, 1, 0) - origin;
    const int64_t col_stride =
        linearIndex(shape, layout, 0, 0, 0, 1) - origin;
    const std::span<float> values = out.data();
    std::vector<float> across(lanes * static_cast<size_t>(grid_h) * width);
    forEachBlock(planes, lanes, [&](uint64_t begin, uint64_t end,
                                    unsigned lane) {
        float *rows = across.data() + lane * static_cast<size_t>(grid_h) *
            width;
        for (uint64_t p = begin; p < end; ++p) {
            const float *draw = draws.data() + p * plane_draws;
            const float bias = draw[0];
            const float *grid = draw + 1;
            for (int64_t gy = 0; gy < grid_h; ++gy) {
                const float *g = grid + gy * grid_w;
                float *row = rows + static_cast<size_t>(gy) * width;
                for (size_t x = 0; x < width; ++x) {
                    const float v0 = g[xs[x].lo];
                    const float v1 = g[xs[x].hi];
                    row[x] = v0 + (v1 - v0) * xs[x].frac;
                }
            }
            const auto n = static_cast<int64_t>(p) / shape.c;
            const auto c = static_cast<int64_t>(p) % shape.c;
            float *plane = values.data() +
                linearIndex(shape, layout, n, c, 0, 0);
            for (int64_t y = 0; y < shape.h; ++y) {
                const GridStep &step = ys[static_cast<size_t>(y)];
                const float *top = rows + static_cast<size_t>(step.lo) * width;
                const float *bottom = rows +
                    static_cast<size_t>(step.hi) * width;
                const float fy = step.frac;
                float *dst = plane + y * row_stride;
                if (col_stride == 1) {
                    for (size_t x = 0; x < width; ++x)
                        dst[x] = bias + top[x] + (bottom[x] - top[x]) * fy;
                } else {
                    for (size_t x = 0; x < width; ++x)
                        dst[static_cast<int64_t>(x) * col_stride] =
                            bias + top[x] + (bottom[x] - top[x]) * fy;
                }
            }
        }
    });

    // Exact-quantile threshold: the (1 - density) fraction of the field
    // falls below tau and becomes zero.
    float tau;
    if (density >= 1.0) {
        // Everything stays live; rectify against a finite threshold just
        // below the field minimum so values remain finite and positive.
        tau = kthSmallest(values, 0) - 1.0f;
    } else {
        const auto k = static_cast<uint64_t>(
            std::min<double>(static_cast<double>(total - 1),
                             (1.0 - density) * static_cast<double>(total)));
        tau = kthSmallest(values, k);
    }

    // ReLU-style rectification around the threshold, in place: smooth
    // positive values over the live clusters, exact zeros elsewhere.
    // Quantizing keeps the top mantissa bits but never makes a zero of a
    // live value (losslessness of the codecs is tested against exact
    // zero counts). Selecting on the bits keeps the loop free of
    // branches, so it vectorizes.
    const auto scale = static_cast<float>(config_.value_scale);
    const int drop_bits = std::clamp(23 - config_.mantissa_bits, 0, 23);
    const uint32_t keep = ~((1u << drop_bits) - 1);
    forEachBlock(total, lanes, [&](uint64_t begin, uint64_t end, unsigned) {
        float *const data = values.data();
        const float threshold = tau;
        const float factor = scale;
        const uint32_t mask = keep;
        for (uint64_t i = begin; i < end; ++i) {
            const float v = data[i];
            const auto live = std::bit_cast<uint32_t>((v - threshold) *
                                                      factor);
            const uint32_t quantized = live & mask;
            const uint32_t kept = quantized << 1 != 0 ? quantized : live;
            data[i] = v > threshold ? std::bit_cast<float>(kept) : 0.0f;
        }
    });
    return out;
}

} // namespace cdma
