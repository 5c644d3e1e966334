/**
 * @file
 * The per-sample fan-out of Lrn and Pool2D against the serial loops
 * they ran before, bit for bit, and the contract of forEachSample()
 * itself. The reference functions below are verbatim copies of those
 * loops (member fields turned into arguments): one sample after another
 * on one thread. The layers run the same per-sample work on the
 * trainer's lanes, so every float must match at every batch: 1
 * (inline), 2, lanes + 1 (one sample past a full round of lanes) and 16
 * (each result slot reused). Conv2D's fan-out is checked against the
 * reference loops of DnnGemm.ConvMatchesTheReferenceLoops at the same
 * batches.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "dnn/lrn.hh"
#include "dnn/pool.hh"

namespace cdma {
namespace {

// ---- verbatim copies of the serial loops ----------------------------

/** Returns the output; @p cached_factor_ receives the factor. */
Tensor4D
serialLrnForward(const Tensor4D &input, const LrnSpec &spec_,
                 Tensor4D &cached_factor_)
{
    const Shape4D &shape = input.shape();
    Tensor4D output(shape);
    cached_factor_ = Tensor4D(shape);

    const int64_t half = spec_.local_size / 2;
    const float alpha_over_n =
        spec_.alpha / static_cast<float>(spec_.local_size);
    const int64_t plane = shape.h * shape.w;
    std::vector<float> sumsq(static_cast<size_t>(plane));

    for (int64_t n = 0; n < shape.n; ++n) {
        const float *x = sampleData(input, n);
        float *y = sampleData(output, n);
        float *factor = sampleData(cached_factor_, n);
        for (int64_t c = 0; c < shape.c; ++c) {
            const int64_t c0 = std::max<int64_t>(0, c - half);
            const int64_t c1 = std::min(shape.c - 1, c + half);
            std::fill(sumsq.begin(), sumsq.end(), 0.0f);
            for (int64_t cc = c0; cc <= c1; ++cc) {
                const float *v = x + cc * plane;
                for (int64_t i = 0; i < plane; ++i)
                    sumsq[static_cast<size_t>(i)] += v[i] * v[i];
            }
            for (int64_t i = 0; i < plane; ++i) {
                const float scale =
                    spec_.k + alpha_over_n * sumsq[static_cast<size_t>(i)];
                const float f = std::pow(scale, -spec_.beta);
                factor[c * plane + i] = f;
                y[c * plane + i] = x[c * plane + i] * f;
            }
        }
    }
    return output;
}

Tensor4D
serialLrnBackward(const Tensor4D &input, const Tensor4D &output_grad,
                  const Tensor4D &cached_factor_)
{
    Tensor4D input_grad(input.shape());
    auto dy = output_grad.data();
    auto factor = cached_factor_.data();
    auto dx = input_grad.data();
    for (size_t i = 0; i < dy.size(); ++i)
        dx[i] = dy[i] * factor[i];
    return input_grad;
}

/** Returns the output; @p argmax_ receives the max-pool offsets. */
Tensor4D
serialPoolForward(const Tensor4D &input, const Shape4D &out_shape,
                  const PoolSpec &spec_, std::vector<int64_t> &argmax_)
{
    const Shape4D &in_shape = input.shape();
    Tensor4D output(out_shape);
    if (spec_.mode == PoolMode::Max) {
        argmax_.assign(static_cast<size_t>(out_shape.elements()), -1);
    }

    // One (n, c) plane at a time; argmax_ holds offsets into the whole
    // NCHW input.
    const float *x = sampleData(input, 0);
    float *y = sampleData(output, 0);
    const int64_t in_plane = in_shape.h * in_shape.w;
    int64_t out_index = 0;
    for (int64_t p = 0; p < out_shape.n * out_shape.c; ++p) {
        const int64_t base = p * in_plane;
        for (int64_t oh = 0; oh < out_shape.h; ++oh) {
            for (int64_t ow = 0; ow < out_shape.w; ++ow) {
                const int64_t h0 = oh * spec_.stride;
                const int64_t w0 = ow * spec_.stride;
                const int64_t h1 = std::min(h0 + spec_.kernel, in_shape.h);
                const int64_t w1 = std::min(w0 + spec_.kernel, in_shape.w);
                if (spec_.mode == PoolMode::Max) {
                    float best = -std::numeric_limits<float>::infinity();
                    int64_t best_off = -1;
                    for (int64_t h = h0; h < h1; ++h) {
                        for (int64_t w = w0; w < w1; ++w) {
                            const int64_t off = base + h * in_shape.w + w;
                            if (x[off] > best) {
                                best = x[off];
                                best_off = off;
                            }
                        }
                    }
                    y[out_index] = best;
                    argmax_[static_cast<size_t>(out_index)] = best_off;
                } else {
                    float sum = 0.0f;
                    for (int64_t h = h0; h < h1; ++h)
                        for (int64_t w = w0; w < w1; ++w)
                            sum += x[base + h * in_shape.w + w];
                    const auto window =
                        static_cast<float>((h1 - h0) * (w1 - w0));
                    y[out_index] = sum / window;
                }
                ++out_index;
            }
        }
    }
    return output;
}

Tensor4D
serialPoolBackward(const Tensor4D &input, const Tensor4D &output_grad,
                   const PoolSpec &spec_,
                   const std::vector<int64_t> &argmax_)
{
    const Shape4D &in_shape = input.shape();
    Tensor4D input_grad(in_shape);
    const Shape4D &out_shape = output_grad.shape();

    const float *dy = sampleData(output_grad, 0);
    float *dx = sampleData(input_grad, 0);
    const int64_t in_plane = in_shape.h * in_shape.w;
    int64_t out_index = 0;
    for (int64_t p = 0; p < out_shape.n * out_shape.c; ++p) {
        const int64_t base = p * in_plane;
        for (int64_t oh = 0; oh < out_shape.h; ++oh) {
            for (int64_t ow = 0; ow < out_shape.w; ++ow) {
                const float g = dy[out_index];
                if (spec_.mode == PoolMode::Max) {
                    const int64_t off =
                        argmax_[static_cast<size_t>(out_index)];
                    if (off >= 0)
                        dx[off] += g;
                } else {
                    const int64_t h0 = oh * spec_.stride;
                    const int64_t w0 = ow * spec_.stride;
                    const int64_t h1 =
                        std::min(h0 + spec_.kernel, in_shape.h);
                    const int64_t w1 =
                        std::min(w0 + spec_.kernel, in_shape.w);
                    const auto window =
                        static_cast<float>((h1 - h0) * (w1 - w0));
                    for (int64_t h = h0; h < h1; ++h)
                        for (int64_t w = w0; w < w1; ++w)
                            dx[base + h * in_shape.w + w] += g / window;
                }
                ++out_index;
            }
        }
    }
    return input_grad;
}

// ---- helpers ---------------------------------------------------------

/** Same float bits; any NaN matches any NaN (see gemm_test.cc). */
bool
sameBits(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

void
expectSameBits(std::span<const float> got, std::span<const float> want,
               const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(sameBits(got[i], want[i]))
            << what << " element " << i << ": " << got[i] << " vs "
            << want[i];
    }
}

/**
 * Normal values with exact zeros of both signs mixed in (a map after
 * ReLU, a gradient after dropout), and a NaN and an infinity when
 * @p specials.
 */
Tensor4D
randomTensor(const Shape4D &shape, uint64_t seed, bool specials = false)
{
    Rng rng(seed);
    Tensor4D t(shape);
    for (float &v : t.data()) {
        const double u = rng.uniform();
        if (u < 0.3)
            v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
        else
            v = static_cast<float>(rng.normal(0.0, 1.0));
    }
    if (specials && t.data().size() > 10) {
        t.data()[3] = std::numeric_limits<float>::quiet_NaN();
        t.data()[7] = std::numeric_limits<float>::infinity();
    }
    return t;
}

/** The trainer's lanes: one per hardware thread, at most half the
 *  fan-out's in-flight bound. */
int64_t
trainerLanes()
{
    return std::min<int64_t>(ThreadPool::hardwareLanes(),
                             ThreadPool::kMaxInFlight / 2);
}

/** Batches every layer runs at: inline, two lanes, one sample past a
 *  full round of lanes, and enough to reuse every result slot. */
std::vector<int64_t>
batches()
{
    return {1, 2, trainerLanes() + 1, 16};
}

/** Expect @p pass_ops to fan a batch of @p n out on every lane it can. */
void
expectFansOut(int64_t n, uint64_t pass_ops, const std::string &what)
{
    EXPECT_EQ(sampleLanes(n, pass_ops),
              static_cast<unsigned>(std::min(trainerLanes(), n)))
        << what << " at batch " << n << " stays below the fan-out cut-off";
}

// ---- the layers against the serial loops -----------------------------

TEST(SampleFanOut, LrnMatchesSerialLoops)
{
    const LrnSpec spec;
    for (const int64_t n : batches()) {
        SCOPED_TRACE("batch " + std::to_string(n));
        Lrn lrn("lrn", spec);
        const Tensor4D x = randomTensor({n, 32, 16, 16}, 31);
        if (n >= 2) {
            expectFansOut(
                n,
                static_cast<uint64_t>(x.shape().elements() *
                                      (spec.local_size + 1)),
                "lrn forward");
            expectFansOut(n, static_cast<uint64_t>(x.shape().elements()),
                          "lrn backward");
        }
        Tensor4D ref_factor;
        const Tensor4D y = lrn.forward(x);
        const Tensor4D ref_y = serialLrnForward(x, spec, ref_factor);
        expectSameBits(y.data(), ref_y.data(), "lrn output");

        const Tensor4D dy = randomTensor(x.shape(), 32);
        const Tensor4D dx = lrn.backward(x, y, dy);
        const Tensor4D ref_dx = serialLrnBackward(x, dy, ref_factor);
        expectSameBits(dx.data(), ref_dx.data(), "lrn input grad");
    }
}

void
checkPool(const PoolSpec &spec, const Shape4D &image, uint64_t seed)
{
    for (const int64_t n : batches()) {
        SCOPED_TRACE("batch " + std::to_string(n));
        Pool2D pool("pool", spec);
        const Tensor4D x =
            randomTensor({n, image.c, image.h, image.w}, seed);
        const Shape4D out_shape = pool.outputShape(x.shape());
        const auto window =
            static_cast<uint64_t>(spec.kernel * spec.kernel);
        if (n >= 2) {
            const auto outputs =
                static_cast<uint64_t>(out_shape.elements());
            expectFansOut(n, outputs * window, "pool forward");
            expectFansOut(n,
                          spec.mode == PoolMode::Max ? outputs
                                                     : outputs * window,
                          "pool backward");
        }
        std::vector<int64_t> ref_argmax;
        const Tensor4D y = pool.forward(x);
        const Tensor4D ref_y =
            serialPoolForward(x, out_shape, spec, ref_argmax);
        expectSameBits(y.data(), ref_y.data(), "pool output");

        const Tensor4D dy = randomTensor(out_shape, seed + 1);
        const Tensor4D dx = pool.backward(x, y, dy);
        const Tensor4D ref_dx =
            serialPoolBackward(x, dy, spec, ref_argmax);
        expectSameBits(dx.data(), ref_dx.data(), "pool input grad");
    }
}

TEST(SampleFanOut, OverlappingMaxPoolMatchesSerialLoops)
{
    // 3x3 windows at stride 2 overlap, so one input element collects
    // the gradients of several outputs, in output order; ceil mode
    // leaves partial windows at the edge.
    checkPool({3, 2, PoolMode::Max}, {1, 32, 33, 33}, 41);
}

TEST(SampleFanOut, AvgPoolMatchesSerialLoops)
{
    checkPool({3, 2, PoolMode::Avg}, {1, 16, 23, 23}, 51);
}

// ---- the fan-out contract --------------------------------------------

TEST(SampleFanOut, LanesAreExclusiveAndSlotsOutliveTheirDrain)
{
    // A pass far above the cut-off, over more samples than slots: every
    // slot is reused. No two works may hold one lane at once, and the
    // value a sample leaves in its slot must still be there at its
    // drain, which runs in sample order on the calling thread.
    constexpr int64_t kSamples = 100;
    const unsigned lanes = sampleLanes(kSamples, uint64_t{1} << 40);
    const unsigned slots = sampleSlots(lanes);
    std::vector<std::atomic<int>> busy(lanes);
    std::vector<int64_t> slot_value(slots, -1);
    std::vector<int64_t> drained;
    std::atomic<int> lane_clashes{0};
    const std::thread::id caller = std::this_thread::get_id();
    bool drained_on_caller = true;

    forEachSample(
        kSamples, lanes,
        [&](int64_t n, unsigned lane) {
            if (lane >= lanes || busy[lane].fetch_add(1) != 0)
                lane_clashes.fetch_add(1);
            slot_value[static_cast<size_t>(n % slots)] = n;
            std::this_thread::yield();
            busy[lane].fetch_sub(1);
        },
        [&](int64_t n) {
            drained_on_caller = drained_on_caller &&
                std::this_thread::get_id() == caller;
            EXPECT_EQ(slot_value[static_cast<size_t>(n % slots)], n);
            drained.push_back(n);
        });

    EXPECT_EQ(lane_clashes.load(), 0);
    EXPECT_TRUE(drained_on_caller);
    ASSERT_EQ(drained.size(), static_cast<size_t>(kSamples));
    for (int64_t n = 0; n < kSamples; ++n)
        EXPECT_EQ(drained[static_cast<size_t>(n)], n);
}

TEST(SampleFanOut, SmallPassesStayInline)
{
    EXPECT_EQ(sampleLanes(1, uint64_t{1} << 40), 1u);
    EXPECT_EQ(sampleLanes(16, 100), 1u);
    EXPECT_EQ(sampleSlots(1), 1u);

    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int64_t> order;
    forEachSample(
        3, 1,
        [&](int64_t n, unsigned lane) {
            EXPECT_EQ(lane, 0u);
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(2 * n);
        },
        [&](int64_t n) { order.push_back(2 * n + 1); });
    EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
}

} // namespace
} // namespace cdma
