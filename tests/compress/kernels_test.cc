/**
 * @file
 * Tests for the pluggable SIMD kernel layer: dispatch/override plumbing,
 * op-level differential equivalence of every supported backend against
 * the scalar reference, and codec-level byte-identity of the compressed
 * output across backends, densities, odd sizes, sub-word tails and lane
 * counts — the property that makes runtime dispatch safe.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cdma/engine.hh"

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/compressor.hh"
#include "compress/kernels/kernels.hh"
#include "compress/parallel.hh"
#include "compress/zvc.hh"

namespace cdma {
namespace {

/** Activation-like fp32 words at the given density, any byte length. */
std::vector<uint8_t>
makeWords(double density, size_t bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> input(bytes, 0);
    const size_t words = bytes / 4;
    for (size_t i = 0; i < words; ++i) {
        if (density > 0.0 && rng.bernoulli(density)) {
            const float value =
                0.5f + static_cast<float>(std::abs(rng.normal()));
            std::memcpy(input.data() + i * 4, &value, 4);
        }
    }
    for (size_t i = words * 4; i < bytes; ++i)
        input[i] = static_cast<uint8_t>(rng.uniformInt(256));
    return input;
}

TEST(KernelDispatch, ScalarAlwaysAvailableAndNamed)
{
    EXPECT_STREQ(scalarKernels().name, "scalar");
    EXPECT_EQ(kernelsByName("scalar"), &scalarKernels());
    EXPECT_EQ(kernelsByName("mmx"), nullptr);
    const auto backends = supportedKernels();
    ASSERT_GE(backends.size(), 1u);
    EXPECT_EQ(backends.front(), &scalarKernels());
    if (const KernelOps *avx2 = avx2Kernels()) {
        EXPECT_STREQ(avx2->name, "avx2");
        EXPECT_EQ(kernelsByName("avx2"), avx2);
    }
    if (const KernelOps *avx512 = avx512Kernels()) {
        EXPECT_STREQ(avx512->name, "avx512");
        EXPECT_EQ(kernelsByName("avx512"), avx512);
        // AVX-512 implies AVX2 (without VPCLMULQDQ its CRC32C is the
        // AVX2 table's), and the sweep order is narrowest to widest.
        EXPECT_NE(avx2Kernels(), nullptr);
        EXPECT_EQ(backends.back(), avx512);
    } else if (const KernelOps *avx2 = avx2Kernels()) {
        EXPECT_EQ(backends.back(), avx2);
    }
}

TEST(KernelDispatch, Avx512NeverSelectedOnIncapableHosts)
{
    // The acceptance property for incapable hosts: when the CPU lacks
    // AVX-512, the backend is unreachable through every selection path —
    // by name, in the sweep, and via the startup dispatch.
    if (avx512Kernels() != nullptr) {
        // Capable host: the unforced dispatch must pick it (the widest
        // backend), and only an explicit narrower override may not.
        const char *forced = std::getenv("CDMA_KERNEL_BACKEND");
        if (forced == nullptr || *forced == '\0')
            EXPECT_STREQ(activeKernels().name, "avx512");
        return;
    }
    EXPECT_EQ(kernelsByName("avx512"), nullptr);
    for (const KernelOps *ops : supportedKernels())
        EXPECT_STRNE(ops->name, "avx512");
    EXPECT_STRNE(activeKernels().name, "avx512");
}

TEST(KernelDispatch, OverrideResolutionAcceptsAndRejectsInProcess)
{
    // The selection logic behind CDMA_KERNEL_BACKEND, covered without
    // forking: every supported backend resolves to itself, and an
    // unknown or unsupported name is rejected with a message that names
    // the bad value and lists exactly the backends this host supports.
    for (const KernelOps *ops : supportedKernels()) {
        std::string error = "unset";
        EXPECT_EQ(resolveKernelBackendOverride(ops->name, &error), ops);
        EXPECT_EQ(error, "unset") << "error set on successful resolve";
    }

    const std::string valid = supportedKernelNames();
    EXPECT_NE(valid.find("scalar"), std::string::npos);
    for (const char *bad : {"mmx", "sse2", "neon", "AVX2", ""}) {
        std::string error;
        EXPECT_EQ(resolveKernelBackendOverride(bad, &error), nullptr)
            << bad;
        EXPECT_NE(error.find("CDMA_KERNEL_BACKEND='" + std::string(bad) +
                             "'"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find(valid), std::string::npos)
            << "'" << error << "' does not list supported backends '"
            << valid << "'";
    }

    // A real backend name the host cannot run is rejected the same way
    // (null error pointer must also be safe).
    if (avx512Kernels() == nullptr) {
        EXPECT_EQ(resolveKernelBackendOverride("avx512"), nullptr);
        std::string error;
        resolveKernelBackendOverride("avx512", &error);
        EXPECT_EQ(error.find("avx512, "), std::string::npos)
            << "unsupported backend listed as valid: " << error;
    }
}

TEST(KernelDispatch, ActiveBackendHonoursEnvOverride)
{
    // Dispatch happens once at startup; this test validates the decision
    // that was actually made in this process against the environment it
    // was made in (the CI forced-scalar leg runs the whole suite with
    // CDMA_KERNEL_BACKEND=scalar).
    const KernelOps &active = activeKernels();
    const auto backends = supportedKernels();
    EXPECT_NE(std::find(backends.begin(), backends.end(), &active),
              backends.end());
    const char *forced = std::getenv("CDMA_KERNEL_BACKEND");
    if (forced != nullptr && *forced != '\0') {
        EXPECT_STREQ(active.name, forced);
    } else {
        // Unforced (unset or empty, as the CI cpuid legs set it): the
        // widest supported backend wins.
        EXPECT_EQ(&active, backends.back());
    }
}

class KernelOpEquivalence : public ::testing::Test
{
  protected:
    /** Every non-scalar backend, paired with the scalar reference. */
    std::vector<const KernelOps *> others() const
    {
        std::vector<const KernelOps *> result;
        for (const KernelOps *ops : supportedKernels()) {
            if (ops != &scalarKernels())
                result.push_back(ops);
        }
        return result;
    }
};

/**
 * Word counts for the span ops: every single-group length (1..32), then
 * lengths around two and three group edges, and a 4 KB window +- 1.
 */
std::vector<uint64_t>
spanWordCounts()
{
    std::vector<uint64_t> counts;
    for (uint64_t words = 1; words <= 32; ++words)
        counts.push_back(words);
    for (const uint64_t words : {33, 63, 64, 65, 1023, 1024, 1025})
        counts.push_back(words);
    return counts;
}

TEST_F(KernelOpEquivalence, ZvcCompactWords)
{
    const KernelOps &ref = scalarKernels();
    for (const KernelOps *ops : others()) {
        for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
            for (const uint64_t words : spanWordCounts()) {
                const auto input =
                    makeWords(density, words * 4, 91 + words);
                // Exactly the documented room (a mask per group plus
                // every word), then a sentinel tail no backend may touch.
                const size_t bound =
                    ZvcCompressor::predictedBytes(words, words);
                std::vector<uint8_t> a(bound + 64, 0xAA);
                std::vector<uint8_t> b(bound + 64, 0xAA);
                const size_t len_a =
                    ref.zvcCompactWords(input.data(), words, a.data());
                const size_t len_b =
                    ops->zvcCompactWords(input.data(), words, b.data());
                ASSERT_EQ(len_a, len_b)
                    << ops->name << " words=" << words
                    << " density=" << density;
                ASSERT_EQ(0, std::memcmp(a.data(), b.data(), len_a))
                    << ops->name << " words=" << words
                    << " density=" << density;
                for (size_t i = bound; i < b.size(); ++i) {
                    ASSERT_EQ(b[i], 0xAA)
                        << ops->name << " words=" << words << " i=" << i;
                }
            }
        }
    }
}

TEST_F(KernelOpEquivalence, RunScans)
{
    const KernelOps &ref = scalarKernels();
    Rng rng(23);
    for (const KernelOps *ops : others()) {
        for (int trial = 0; trial < 200; ++trial) {
            const double density =
                static_cast<double>(rng.uniformInt(101)) / 100.0;
            const uint64_t limit = 1 + rng.uniformInt(160);
            const auto input = makeWords(
                density, static_cast<size_t>(limit) * 4,
                1000 + static_cast<uint64_t>(trial));
            EXPECT_EQ(ref.zeroRunWords(input.data(), limit),
                      ops->zeroRunWords(input.data(), limit))
                << ops->name << " trial " << trial;
            EXPECT_EQ(ref.literalRunWords(input.data(), limit),
                      ops->literalRunWords(input.data(), limit))
                << ops->name << " trial " << trial;
        }
        // Degenerate runs: all zero / all non-zero over block edges.
        for (const uint64_t limit : {1u, 7u, 8u, 9u, 64u, 128u}) {
            const std::vector<uint8_t> zeros(limit * 4, 0);
            const std::vector<uint8_t> ones(limit * 4, 1);
            EXPECT_EQ(ops->zeroRunWords(zeros.data(), limit), limit);
            EXPECT_EQ(ops->literalRunWords(zeros.data(), limit), 0u);
            EXPECT_EQ(ops->zeroRunWords(ones.data(), limit), 0u);
            EXPECT_EQ(ops->literalRunWords(ones.data(), limit), limit);
        }
    }
}

TEST_F(KernelOpEquivalence, MatchLength)
{
    const KernelOps &ref = scalarKernels();
    Rng rng(29);
    for (const KernelOps *ops : others()) {
        for (int trial = 0; trial < 200; ++trial) {
            const size_t max = 1 + rng.uniformInt(300);
            std::vector<uint8_t> a(max), b(max);
            for (size_t i = 0; i < max; ++i)
                a[i] = b[i] = static_cast<uint8_t>(rng.uniformInt(4));
            // Flip one byte somewhere (or nowhere) to set the prefix.
            if (rng.bernoulli(0.8)) {
                const size_t flip = rng.uniformInt(max);
                b[flip] = static_cast<uint8_t>(b[flip] + 1);
            }
            const size_t expect = ref.matchLength(a.data(), b.data(), max);
            EXPECT_EQ(ops->matchLength(a.data(), b.data(), max), expect)
                << ops->name << " trial " << trial << " max=" << max;
        }
    }
}

TEST_F(KernelOpEquivalence, CopyBytes)
{
    for (const KernelOps *ops : supportedKernels()) {
        for (const size_t n : {0u, 1u, 3u, 31u, 32u, 63u, 64u, 65u,
                               127u, 513u}) {
            const auto src = makeWords(1.0, n, 7 + n);
            std::vector<uint8_t> dst(n + 8, 0xEE);
            ops->copyBytes(dst.data(), src.data(), n);
            if (n != 0) {
                EXPECT_EQ(0, std::memcmp(dst.data(), src.data(), n))
                    << ops->name << " n=" << n;
            }
            // No overwrite past n.
            for (size_t i = n; i < dst.size(); ++i)
                ASSERT_EQ(dst[i], 0xEE) << ops->name << " n=" << n;
        }
    }
}

TEST_F(KernelOpEquivalence, Crc32)
{
    // CRC-32C standard vector: crc32c("123456789") == 0xE3069283. Every
    // backend (slice-by-8 table walk, SSE4.2 instruction, carry-less-
    // multiply folds) must produce
    // the standard value — the integrity framing is only end-to-end if
    // the compress-side and verify-side backends are interchangeable.
    const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    for (const KernelOps *ops : supportedKernels()) {
        EXPECT_EQ(ops->crc32(0, check, sizeof(check)), 0xE3069283u)
            << ops->name;
        EXPECT_EQ(ops->crc32(0, check, 0), 0u) << ops->name;
    }

    // Differential sweep across sizes/alignments and seeds, plus the
    // chaining property crc(crc(0, a), b) == crc(0, a+b) at a random
    // split. The sizes straddle every block edge of the hardware paths:
    // - three crc32 streams over 3 x 8 KB blocks, then 3 x 256 B blocks,
    //   then one chain: 767/768/769, 24575/24576/24577, three long
    //   blocks + one short block + a 5-byte tail (74501), 1 MiB + 5;
    // - the 512-bit fold: under one 256-byte stride the crc32 walk
    //   takes the input whole (255/256/257), then 64-byte folds and a
    //   0..63-byte tail (511/512/513), and a 36 000-byte shard payload.
    const KernelOps &ref = scalarKernels();
    Rng rng(37);
    constexpr size_t kLongBlock = 3 * 8192;
    constexpr size_t kShortBlock = 3 * 256;
    const std::vector<size_t> sizes = {
        1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 511, 512,
        513, 1024, 4096, 36000, 65537,
        kShortBlock - 1, kShortBlock, kShortBlock + 1,
        kLongBlock - 1, kLongBlock, kLongBlock + 1,
        3 * kLongBlock + kShortBlock + 5, (1u << 20) + 5};
    for (const KernelOps *ops : others()) {
        for (const size_t n : sizes) {
            const auto data = makeWords(0.6, n, 1000 + n);
            const uint32_t expect = ref.crc32(0, data.data(), n);
            EXPECT_EQ(ops->crc32(0, data.data(), n), expect)
                << ops->name << " n=" << n;
            // Non-zero seeds: the register joins the first block.
            for (const uint32_t seed : {0xFFFFFFFFu, 0x9E3779B9u}) {
                EXPECT_EQ(ops->crc32(seed, data.data(), n),
                          ref.crc32(seed, data.data(), n))
                    << ops->name << " n=" << n << " seed=" << seed;
            }
            // Unaligned starts (the payload cursor is byte-granular).
            for (size_t offset = 1; offset <= 7 && offset < n; ++offset) {
                EXPECT_EQ(ops->crc32(0, data.data() + offset, n - offset),
                          ref.crc32(0, data.data() + offset, n - offset))
                    << ops->name << " n=" << n << " offset=" << offset;
            }
            const size_t split = rng.uniformInt(n + 1);
            const uint32_t seed = ops->crc32(0, data.data(), split);
            EXPECT_EQ(ops->crc32(seed, data.data() + split, n - split),
                      expect)
                << ops->name << " n=" << n << " split=" << split;
        }
        // Chaining splits inside a long three-stream block and inside a
        // fold stride: both halves end and start mid-block relative to
        // the unsplit call.
        const size_t n = 3 * kLongBlock + kShortBlock + 5;
        const auto data = makeWords(0.6, n, 1000 + n);
        for (const size_t split : {kLongBlock + 8192 + 1234,
                                   size_t{256 + 100}}) {
            const uint32_t seed = ops->crc32(0, data.data(), split);
            EXPECT_EQ(ops->crc32(seed, data.data() + split, n - split),
                      ref.crc32(0, data.data(), n))
                << ops->name << " n=" << n << " split=" << split;
        }
    }
}

TEST(KernelCodecEquivalence, CompressedOutputIsByteIdenticalPerBackend)
{
    // The acceptance property: for all three codecs, every supported
    // backend produces byte-for-byte the compressed stream the scalar
    // reference produces — across densities, odd sizes and sub-word
    // tails — and the stream round-trips.
    const std::vector<size_t> sizes = {0,    1,    3,    4,     5,
                                       127,  128,  4095, 4096,  4097,
                                       8195, 12288, (1u << 16) + 5};
    for (const Algorithm algorithm : kAllAlgorithms) {
        const auto reference =
            makeCompressor(algorithm, 4096, &scalarKernels());
        for (const KernelOps *ops : supportedKernels()) {
            const auto codec = makeCompressor(algorithm, 4096, ops);
            EXPECT_EQ(&codec->kernels(), ops);
            for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
                for (const size_t bytes : sizes) {
                    // DEFLATE is slow; cap its sweep to keep the suite
                    // quick (coverage of tails/odd sizes is preserved).
                    if (algorithm == Algorithm::Zlib && bytes > 8195)
                        continue;
                    const auto input = makeWords(
                        density, bytes, 555 + bytes);
                    const CompressedBuffer expect =
                        reference->compress(input);
                    const CompressedBuffer got = codec->compress(input);
                    ASSERT_EQ(expect.window_sizes, got.window_sizes)
                        << codec->name() << " " << ops->name
                        << " bytes=" << bytes << " density=" << density;
                    ASSERT_EQ(expect.payload, got.payload)
                        << codec->name() << " " << ops->name
                        << " bytes=" << bytes << " density=" << density;
                    ASSERT_EQ(codec->decompress(got).value(), input)
                        << codec->name() << " " << ops->name
                        << " bytes=" << bytes << " density=" << density;
                }
            }
        }
    }
}

TEST(KernelCodecEquivalence, LaneFanOutSharesTheBackendDecision)
{
    // 1/2/8 lanes with an explicitly forced backend: the parallel
    // fan-out must inherit the codec's single dispatch decision and
    // still be byte-identical to the serial scalar reference.
    const auto input = makeWords(0.5, (1 << 18) + 37, 77);
    for (const Algorithm algorithm : {Algorithm::Zvc, Algorithm::Rle}) {
        const auto reference =
            makeCompressor(algorithm, 4096, &scalarKernels());
        const CompressedBuffer expect = reference->compress(input);
        for (const KernelOps *ops : supportedKernels()) {
            for (const unsigned lanes : {1u, 2u, 8u}) {
                const ParallelCompressor parallel(algorithm, 4096, lanes,
                                                  ops);
                EXPECT_STREQ(parallel.backendName(), ops->name);
                const CompressedBuffer got = parallel.compress(input);
                ASSERT_EQ(expect.window_sizes, got.window_sizes)
                    << algorithmName(algorithm) << " " << ops->name
                    << " lanes=" << lanes;
                ASSERT_EQ(expect.payload, got.payload)
                    << algorithmName(algorithm) << " " << ops->name
                    << " lanes=" << lanes;
                ASSERT_EQ(parallel.decompress(got).value(), input);
            }
        }
    }
}

TEST(KernelCodecEquivalence, EngineThreadsTheBackendThrough)
{
    // CdmaConfig::kernels reaches the engine's lanes; plans built with
    // an explicit scalar backend match the default dispatch bit for bit.
    const auto input = makeWords(0.4, (1 << 17) + 3, 99);
    CdmaConfig scalar_config;
    scalar_config.compression.lanes = 2;
    scalar_config.compression.kernels = &scalarKernels();
    const CdmaEngine scalar_engine(scalar_config);
    EXPECT_STREQ(scalar_engine.backendName(), "scalar");

    CdmaConfig active_config;
    active_config.compression.lanes = 2;
    const CdmaEngine active_engine(active_config);
    EXPECT_STREQ(active_engine.backendName(), activeKernels().name);

    const TransferPlan a = scalar_engine.planTransfer("map", input);
    const TransferPlan b = active_engine.planTransfer("map", input);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_DOUBLE_EQ(a.ratio, b.ratio);
}

} // namespace
} // namespace cdma
