/**
 * @file
 * Unit tests for the clustered activation generator: exact density
 * targeting, ReLU-style value statistics, and — critically — the spatial
 * clustering that makes RLE layout-sensitive (Figure 5's visual
 * structure, quantified).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/compressor.hh"
#include "compress/kernels/kernels.hh"
#include "sparsity/generator.hh"

namespace cdma {
namespace {

TEST(Generator, HitsTargetDensityExactly)
{
    ActivationGenerator gen;
    Rng rng(1);
    for (double target : {0.1, 0.3, 0.5, 0.8}) {
        const Tensor4D t = gen.generate(Shape4D{2, 8, 32, 32},
                                        Layout::NCHW, target, rng);
        EXPECT_NEAR(t.density(), target, 0.01) << "target " << target;
    }
}

TEST(Generator, ExtremeDensities)
{
    ActivationGenerator gen;
    Rng rng(2);
    const Tensor4D all_zero = gen.generate(Shape4D{1, 4, 16, 16},
                                           Layout::NCHW, 0.0, rng);
    EXPECT_DOUBLE_EQ(all_zero.density(), 0.0);
    const Tensor4D all_dense = gen.generate(Shape4D{1, 4, 16, 16},
                                            Layout::NCHW, 1.0, rng);
    EXPECT_DOUBLE_EQ(all_dense.density(), 1.0);
    // Fully dense output must still be finite, positive, and varied —
    // not a degenerate constant (regression: an infinite threshold once
    // turned every value into +inf).
    float min_v = all_dense.data()[0], max_v = all_dense.data()[0];
    for (float v : all_dense.data()) {
        ASSERT_TRUE(std::isfinite(v));
        ASSERT_GT(v, 0.0f);
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
    }
    EXPECT_GT(max_v, min_v);
}

TEST(Generator, NonZeroValuesArePositive)
{
    // Post-ReLU activations are nonnegative.
    ActivationGenerator gen;
    Rng rng(3);
    const Tensor4D t = gen.generate(Shape4D{1, 8, 32, 32}, Layout::NCHW,
                                    0.4, rng);
    for (float v : t.data())
        EXPECT_GE(v, 0.0f);
}

TEST(Generator, SameSeedSameLogicalContentAcrossLayouts)
{
    ActivationGenerator gen;
    const Shape4D shape{2, 6, 16, 16};
    Rng rng_a(7), rng_b(7);
    const Tensor4D a = gen.generate(shape, Layout::NCHW, 0.5, rng_a);
    const Tensor4D b = gen.generate(shape, Layout::NHWC, 0.5, rng_b);
    for (int64_t n = 0; n < shape.n; ++n)
        for (int64_t c = 0; c < shape.c; ++c)
            for (int64_t h = 0; h < shape.h; ++h)
                for (int64_t w = 0; w < shape.w; ++w)
                    ASSERT_EQ(a.at(n, c, h, w), b.at(n, c, h, w));
}

TEST(Generator, ZerosAreSpatiallyClustered)
{
    // Neighboring activations in a channel plane should agree on
    // zero/non-zero far more often than chance (Figure 5's black
    // patches). For i.i.d. placement at density d, neighbor agreement is
    // d^2 + (1-d)^2 = 0.5 at d=0.5; clustering pushes it well above.
    ActivationGenerator gen;
    Rng rng(8);
    const Shape4D shape{1, 8, 64, 64};
    const Tensor4D t = gen.generate(shape, Layout::NCHW, 0.5, rng);

    int64_t agree = 0, total = 0;
    for (int64_t c = 0; c < shape.c; ++c) {
        for (int64_t h = 0; h < shape.h; ++h) {
            for (int64_t w = 0; w + 1 < shape.w; ++w) {
                const bool a = t.at(0, c, h, w) != 0.0f;
                const bool b = t.at(0, c, h, w + 1) != 0.0f;
                agree += (a == b);
                ++total;
            }
        }
    }
    const double agreement = static_cast<double>(agree) /
        static_cast<double>(total);
    EXPECT_GT(agreement, 0.8);
}

TEST(Generator, RleLayoutSensitivityEmerges)
{
    // The paper's Figure 11 mechanism, reproduced end-to-end: identical
    // logical activations compress differently under RLE depending on
    // layout (NCHW keeps channel planes contiguous), while ZVC does not
    // care.
    ActivationGenerator gen;
    const Shape4D shape{4, 16, 32, 32};
    Rng rng_a(9), rng_b(9);
    const Tensor4D nchw = gen.generate(shape, Layout::NCHW, 0.35, rng_a);
    const Tensor4D nhwc = gen.generate(shape, Layout::NHWC, 0.35, rng_b);

    const auto rle = makeCompressor(Algorithm::Rle);
    const auto zvc = makeCompressor(Algorithm::Zvc);

    const double rle_nchw = rle->measureRatio(nchw.rawBytes());
    const double rle_nhwc = rle->measureRatio(nhwc.rawBytes());
    const double zvc_nchw = zvc->measureRatio(nchw.rawBytes());
    const double zvc_nhwc = zvc->measureRatio(nhwc.rawBytes());

    EXPECT_GT(rle_nchw, rle_nhwc * 1.15);
    EXPECT_NEAR(zvc_nchw / zvc_nhwc, 1.0, 0.02);
}

TEST(Generator, DeadChannelsAppear)
{
    // Figure 5 shows whole channels going dark; the channel bias should
    // produce some nearly-dead channel planes at moderate density.
    ActivationGenerator gen;
    Rng rng(10);
    const Shape4D shape{1, 64, 32, 32};
    const Tensor4D t = gen.generate(shape, Layout::NCHW, 0.3, rng);
    int dead = 0;
    for (int64_t c = 0; c < shape.c; ++c) {
        int64_t nonzero = 0;
        for (int64_t h = 0; h < shape.h; ++h)
            for (int64_t w = 0; w < shape.w; ++w)
                nonzero += t.at(0, c, h, w) != 0.0f;
        if (nonzero < shape.h * shape.w / 20)
            ++dead;
    }
    EXPECT_GE(dead, 3);
}

TEST(Generator, ZvcRatioMatchesDensityModel)
{
    // End-to-end: generated data at density d compresses under ZVC to
    // ~1/(d + 1/32) regardless of clustering.
    ActivationGenerator gen;
    Rng rng(11);
    const Tensor4D t = gen.generate(Shape4D{2, 32, 32, 32}, Layout::NCHW,
                                    0.4, rng);
    const auto zvc = makeCompressor(Algorithm::Zvc);
    const double measured = zvc->measureRatio(t.rawBytes());
    EXPECT_NEAR(measured, 1.0 / (0.4 + 1.0 / 32.0), 0.15);
}

TEST(Generator, OutputCrcPinned)
{
    // One stream per case runs through every density and layout in turn,
    // so the Box-Muller variate one call leaves cached feeds the next
    // call's first draw. The CRC-32C folds each call's bytes and the raw
    // draw that follows it. The values were recorded from the serial
    // generator, before it fanned out; every later version must keep
    // them.
    struct Case {
        const char *name;
        Shape4D shape;
        ActivationGenConfig config;
        uint32_t crc;
    };
    ActivationGenConfig unquantized;
    unquantized.cluster_scale = 2.5;
    unquantized.value_scale = 3.0;
    unquantized.mantissa_bits = 23;
    const Case cases[] = {
        {"one element", {1, 1, 1, 1}, {}, 0xdde98279u},
        {"h = 1, N > 1", {3, 5, 1, 9}, {}, 0xe68118e8u},
        {"w = 1", {2, 4, 7, 1}, {}, 0xddccc512u},
        {"N > 1, many planes", {4, 32, 28, 28}, {}, 0xa0b77591u},
        {"VGG 224x224 planes", {1, 8, 224, 224}, {}, 0x63b8eebcu},
        {"FC rows", {1, 4096, 1, 1}, {}, 0x3ef8e7d9u},
        {"FC rows, N > 1", {3, 1000, 1, 1}, {}, 0x97f1c17bu},
        {"unquantized", {2, 6, 33, 19}, unquantized, 0xba398a19u},
    };
    const double densities[] = {0.0, 1e-7, 0.1, 0.5, 0.999999, 1.0};
    for (const Case &c : cases) {
        const ActivationGenerator gen(c.config);
        Rng rng(0x5EED0000u + static_cast<uint64_t>(c.shape.elements()));
        uint32_t crc = 0;
        for (const double density : densities) {
            for (const Layout layout : kAllLayouts) {
                const Tensor4D t = gen.generate(c.shape, layout, density,
                                                rng);
                ASSERT_EQ(t.shape(), c.shape);
                ASSERT_EQ(t.layout(), layout);
                const auto bytes = t.rawBytes();
                crc = scalarKernels().crc32(crc, bytes.data(), bytes.size());
                const uint64_t next = rng.next();
                crc = scalarKernels().crc32(
                    crc, reinterpret_cast<const uint8_t *>(&next),
                    sizeof(next));
            }
        }
        char got[16];
        std::snprintf(got, sizeof(got), "0x%08x", crc);
        EXPECT_EQ(crc, c.crc) << c.name << " " << c.shape.str() << ": got "
                              << got;
    }
}

TEST(Generator, EmptyShapeDrawsNothing)
{
    // A zero extent anywhere gives an empty tensor of that shape, and the
    // stream is left as it was.
    const ActivationGenerator gen;
    const Shape4D shapes[] = {
        {0, 3, 4, 5}, {2, 0, 4, 5}, {2, 3, 0, 5}, {2, 3, 4, 0}};
    for (const Shape4D &shape : shapes) {
        for (const Layout layout : kAllLayouts) {
            for (const double density : {0.0, 0.5, 1.0}) {
                Rng rng(21);
                const Tensor4D t = gen.generate(shape, layout, density, rng);
                EXPECT_EQ(t.shape(), shape);
                EXPECT_EQ(t.layout(), layout);
                EXPECT_EQ(t.elements(), 0);
                EXPECT_TRUE(t.rawBytes().empty());
                EXPECT_EQ(rng.next(), Rng(21).next())
                    << shape.str() << " " << layoutName(layout) << " "
                    << density;
            }
        }
    }
}

TEST(Generator, KthSmallestMatchesNthElement)
{
    // Exact selection against std::nth_element on arrays built to trip
    // a bucketed count: ties, signed zeros, negative values, all-equal
    // arrays and the two end ranks, on both sides of the fan-out cut-off.
    const uint64_t sizes[] = {1, 2, 7, 1000, kGeneratorFanOutElements - 1,
                              kGeneratorFanOutElements,
                              3 * kGeneratorFanOutElements + 17};
    Rng rng(31);
    auto filled = [&](const std::string &kind, uint64_t n) {
        std::vector<float> v(n);
        for (uint64_t i = 0; i < n; ++i) {
            if (kind == "normal")
                v[i] = static_cast<float>(rng.normal());
            else if (kind == "ties")
                v[i] = static_cast<float>(rng.uniformInt(5)) - 2.0f;
            else if (kind == "signed zeros")
                v[i] = rng.bernoulli(0.5) ? 0.0f : -0.0f;
            else if (kind == "zeros and values")
                v[i] = rng.bernoulli(0.5)
                    ? (rng.bernoulli(0.5) ? 0.0f : -0.0f)
                    : static_cast<float>(rng.normal(0.0, 1e-30));
            else if (kind == "negative")
                v[i] = -1.0f - static_cast<float>(rng.uniform());
            else if (kind == "one bucket")
                v[i] = 1.0f +
                    static_cast<float>(rng.uniformInt(64)) * 0x1p-23f;
            else
                v[i] = 3.5f; // all equal
        }
        return v;
    };
    for (const std::string kind :
         {"normal", "ties", "signed zeros", "zeros and values", "negative",
          "one bucket", "all equal"}) {
        for (const uint64_t n : sizes) {
            const std::vector<float> values = filled(kind, n);
            const auto negative_zeros = static_cast<uint64_t>(
                std::count_if(values.begin(), values.end(),
                              [](float v) { return std::signbit(v); }));
            const uint64_t ranks[] = {0, n - 1, n / 2, n / 3,
                                      rng.uniformInt(n)};
            for (const uint64_t k : ranks) {
                std::vector<float> sorted = values;
                std::nth_element(sorted.begin(),
                                 sorted.begin() + static_cast<int64_t>(k),
                                 sorted.end());
                // -0.0 == +0.0: nth_element may leave either zero at a
                // signed-zero tie; kthSmallest ranks -0.0 first.
                const float got = kthSmallest(values, k);
                EXPECT_EQ(got, sorted[k]) << kind << " n " << n << " k " << k;
                if (kind == "signed zeros") {
                    EXPECT_EQ(std::signbit(got), k < negative_zeros);
                }
            }
        }
    }
}

} // namespace
} // namespace cdma
