/**
 * @file
 * Differential tests for the prefetch-side (decompression) kernel ops
 * and their codec routing, mirroring tests/compress/kernels_test.cc for
 * the compression direction: op-level equivalence of every supported
 * backend against the scalar reference (zvcExpandWords mask scatter,
 * zeroFillBytes run reconstruction), guard-page bounds of both ZVC span
 * ops, byte-identity of decompressed
 * output across backends for all three codecs — densities, odd sizes,
 * sub-word tails, 1/2/8 lanes — and the per-lane window groups of
 * the parallel decoder.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

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

class DecompressKernelOpEquivalence : public ::testing::Test
{
  protected:
    /** Every non-scalar backend (scalar is the reference). */
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

TEST_F(DecompressKernelOpEquivalence, ZvcExpandWordsInvertsCompact)
{
    // Compact with the scalar reference, then expand with every
    // backend: the output must reproduce the original words exactly and
    // consume exactly the payload compaction produced.
    const KernelOps &ref = scalarKernels();
    for (const KernelOps *ops : supportedKernels()) {
        for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
            for (const uint64_t words : spanWordCounts()) {
                const auto input =
                    makeWords(density, words * 4, 301 + words);
                std::vector<uint8_t> packed(
                    ZvcCompressor::predictedBytes(words, words));
                const size_t len = ref.zvcCompactWords(
                    input.data(), words, packed.data());
                // The payload the expand op may read is exactly the
                // live bytes: hand it a right-sized copy so any
                // over-read lands outside the allocation (ASan job; the
                // guard-page test below checks it on every build).
                const std::vector<uint8_t> payload(
                    packed.begin(), packed.begin() + len);
                std::vector<uint8_t> out(words * 4 + 32, 0xEE);
                const size_t consumed = ops->zvcExpandWords(
                    payload.data(), payload.size(), words, out.data());
                EXPECT_EQ(consumed, len)
                    << ops->name << " words=" << words
                    << " density=" << density;
                ASSERT_EQ(0, std::memcmp(out.data(), input.data(),
                                         words * 4))
                    << ops->name << " words=" << words
                    << " density=" << density;
                // No write past the span.
                for (size_t i = words * 4; i < out.size(); ++i) {
                    ASSERT_EQ(out[i], 0xEE)
                        << ops->name << " words=" << words << " i=" << i;
                }
            }
        }
    }
}

TEST_F(DecompressKernelOpEquivalence, ZvcExpandWordsSparsePatterns)
{
    // Directed masks per group — empty, full, single bits at the
    // edges, random — over spans of one to four groups. A short final
    // group's mask keeps junk bits beyond its words, which every backend
    // must drop exactly as the scalar reference does.
    Rng rng(47);
    for (const KernelOps *ops : supportedKernels()) {
        for (int trial = 0; trial < 300; ++trial) {
            const uint64_t words = 1 + rng.uniformInt(128);
            std::vector<uint8_t> payload;
            for (uint64_t w = 0; w < words; w += 32) {
                const auto group =
                    static_cast<uint32_t>(std::min<uint64_t>(32, words - w));
                uint32_t mask;
                switch ((static_cast<uint64_t>(trial) + w / 32) % 5) {
                  case 0: mask = 0; break;
                  case 1: mask = 0xFFFFFFFFu; break;
                  case 2: mask = 1u; break;
                  case 3: mask = 1u << (group - 1); break;
                  default:
                    mask = static_cast<uint32_t>(rng.uniformInt(1u << 16)) |
                        (static_cast<uint32_t>(rng.uniformInt(1u << 16))
                         << 16);
                    break;
                }
                const uint32_t live_mask =
                    group == 32 ? mask : mask & ((1u << group) - 1u);
                const size_t at = payload.size();
                payload.resize(at + 4);
                std::memcpy(payload.data() + at, &mask, 4);
                for (int i = 0; i < 4 * std::popcount(live_mask); ++i) {
                    payload.push_back(
                        static_cast<uint8_t>(1 + rng.uniformInt(255)));
                }
            }

            std::vector<uint8_t> expect(words * 4 + 8, 0xCC);
            std::vector<uint8_t> got(words * 4 + 8, 0xCC);
            const size_t consumed_ref = scalarKernels().zvcExpandWords(
                payload.data(), payload.size(), words, expect.data());
            const size_t consumed = ops->zvcExpandWords(
                payload.data(), payload.size(), words, got.data());
            EXPECT_EQ(consumed_ref, payload.size()) << "trial " << trial;
            EXPECT_EQ(consumed, consumed_ref)
                << ops->name << " trial " << trial;
            ASSERT_EQ(expect, got) << ops->name << " trial " << trial
                                   << " words=" << words;
        }
    }
}

/**
 * Anonymous memory whose usable bytes end just before a PROT_NONE
 * page, so a read or write one byte past the end faults on every build
 * (ASan's view of masked vector loads depends on the compiler; the
 * page tests the contract directly).
 */
class GuardedRegion
{
  public:
    explicit GuardedRegion(size_t bytes)
        : page_(static_cast<size_t>(sysconf(_SC_PAGESIZE)))
    {
        const size_t data_bytes = (bytes + page_ - 1) / page_ * page_;
        size_ = data_bytes + page_;
        void *base = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            throw std::runtime_error("mmap failed");
        base_ = static_cast<uint8_t *>(base);
        end_ = base_ + data_bytes;
        if (mprotect(end_, page_, PROT_NONE) != 0) {
            munmap(base_, size_);
            throw std::runtime_error("mprotect failed");
        }
    }
    ~GuardedRegion() { munmap(base_, size_); }
    GuardedRegion(const GuardedRegion &) = delete;
    GuardedRegion &operator=(const GuardedRegion &) = delete;

    /** The last @p bytes usable bytes: the guard page follows them. */
    uint8_t *tail(size_t bytes) const { return end_ - bytes; }

  private:
    size_t page_;
    size_t size_ = 0;
    uint8_t *base_ = nullptr;
    uint8_t *end_ = nullptr;
};

TEST(ZvcGuardPage, SpanOpsStayInsideTheirBytes)
{
    // Compact reads an input and writes into the documented room that
    // both end at a guard page. Expand then reads every truncation of
    // the payload placed so its last byte sits just before a guard
    // page: each must return kZvcMalformed without faulting, and the
    // complete payload must decode into an output that also ends at a
    // guard page.
    for (const KernelOps *ops : supportedKernels()) {
        for (const double density : {0.1, 0.5, 1.0}) {
            for (const uint64_t words :
                 {1u, 15u, 16u, 17u, 31u, 32u, 33u, 100u, 1024u}) {
                const size_t raw = words * 4;
                const auto input = makeWords(density, raw, 501 + words);
                // The documented room: a mask per group plus every word.
                const size_t bound =
                    ZvcCompressor::predictedBytes(words, words);
                GuardedRegion source(raw), room(bound);
                std::memcpy(source.tail(raw), input.data(), raw);
                const size_t len = ops->zvcCompactWords(
                    source.tail(raw), words, room.tail(bound));
                ASSERT_LE(len, bound) << ops->name;
                const std::vector<uint8_t> payload(
                    room.tail(bound), room.tail(bound) + len);

                GuardedRegion wire(len), out(raw);
                for (size_t cut = 0; cut < len; ++cut) {
                    std::memcpy(wire.tail(cut), payload.data(), cut);
                    ASSERT_EQ(ops->zvcExpandWords(wire.tail(cut), cut,
                                                  words, out.tail(raw)),
                              kZvcMalformed)
                        << ops->name << " words=" << words
                        << " density=" << density << " cut=" << cut;
                }
                std::memcpy(wire.tail(len), payload.data(), len);
                ASSERT_EQ(ops->zvcExpandWords(wire.tail(len), len, words,
                                              out.tail(raw)),
                          len)
                    << ops->name << " words=" << words
                    << " density=" << density;
                ASSERT_EQ(0, std::memcmp(out.tail(raw), input.data(), raw))
                    << ops->name << " words=" << words
                    << " density=" << density;
            }
        }
    }
}

TEST_F(DecompressKernelOpEquivalence, ZeroFillBytes)
{
    for (const KernelOps *ops : supportedKernels()) {
        for (const size_t n : {0u, 1u, 3u, 31u, 32u, 63u, 64u, 65u,
                               127u, 128u, 513u}) {
            std::vector<uint8_t> dst(n + 8, 0xEE);
            ops->zeroFillBytes(dst.data(), n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(dst[i], 0) << ops->name << " n=" << n;
            // No overwrite past n.
            for (size_t i = n; i < dst.size(); ++i)
                ASSERT_EQ(dst[i], 0xEE) << ops->name << " n=" << n;
        }
    }
}

TEST(DecompressCodecEquivalence, OutputIsByteIdenticalPerBackend)
{
    // The acceptance property for the prefetch leg: for all three
    // codecs, decompressing any backend's payload with any backend
    // reproduces the original input exactly — across densities, odd
    // sizes and sub-word tails.
    const std::vector<size_t> sizes = {0,    1,    3,    4,     5,
                                       127,  128,  4095, 4096,  4097,
                                       8195, 12288, (1u << 16) + 5};
    for (const Algorithm algorithm : kAllAlgorithms) {
        const auto reference =
            makeCompressor(algorithm, 4096, &scalarKernels());
        for (const KernelOps *ops : supportedKernels()) {
            const auto codec = makeCompressor(algorithm, 4096, ops);
            for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
                for (const size_t bytes : sizes) {
                    // DEFLATE is slow; cap its sweep to keep the suite
                    // quick (tails/odd sizes stay covered).
                    if (algorithm == Algorithm::Zlib && bytes > 8195)
                        continue;
                    const auto input = makeWords(
                        density, bytes, 777 + bytes);
                    const CompressedBuffer compressed =
                        reference->compress(input);
                    ASSERT_EQ(codec->decompress(compressed).value(), input)
                        << codec->name() << " " << ops->name
                        << " bytes=" << bytes << " density=" << density;
                    // And the cross direction: backend-compressed,
                    // scalar-decompressed (streams are byte-identical,
                    // so this guards the packer too).
                    const CompressedBuffer own = codec->compress(input);
                    ASSERT_EQ(reference->decompress(own).value(), input)
                        << codec->name() << " " << ops->name
                        << " bytes=" << bytes << " density=" << density;
                }
            }
        }
    }
}

TEST(DecompressCodecEquivalence, LaneFanOutSharesTheBackendDecision)
{
    // 1/2/8 lanes with an explicitly forced backend: parallel
    // decompression must inherit the codec's dispatch decision and
    // reproduce the input whatever the lane count.
    const auto input = makeWords(0.5, (1 << 18) + 37, 99);
    for (const Algorithm algorithm : {Algorithm::Zvc, Algorithm::Rle}) {
        const auto reference =
            makeCompressor(algorithm, 4096, &scalarKernels());
        const CompressedBuffer compressed = reference->compress(input);
        for (const KernelOps *ops : supportedKernels()) {
            for (const unsigned lanes : {1u, 2u, 8u}) {
                const ParallelCompressor parallel(algorithm, 4096, lanes,
                                                  ops);
                ASSERT_EQ(parallel.decompress(compressed).value(), input)
                    << algorithmName(algorithm) << " " << ops->name
                    << " lanes=" << lanes;
            }
        }
    }
}

TEST(DecompressCodecEquivalence, WindowGroupsRestoreExactlyAtEveryLaneCount)
{
    // 65 windows, the last one short: one window group per lane (a
    // single inline group at one lane, uneven groups at 2 and 8) must
    // land every window in its own slot of the output.
    const auto input = makeWords(0.5, (1 << 18) + 37, 43);
    for (unsigned lanes : {1u, 2u, 8u}) {
        const ParallelCompressor compressor(Algorithm::Zvc, 4096, lanes);
        const CompressedBuffer compressed = compressor.compress(input);
        ASSERT_EQ(compressed.window_sizes.size(), 65u);
        const StatusOr<ByteVec> out = compressor.decompress(compressed);
        ASSERT_TRUE(out.ok()) << out.status().toString();
        EXPECT_EQ(out.value(), input) << "lanes=" << lanes;
    }

    // Empty buffer: no window groups, no output.
    const ParallelCompressor compressor(Algorithm::Zvc, 4096, 2);
    const StatusOr<ByteVec> empty =
        compressor.decompress(compressor.compress({}));
    ASSERT_TRUE(empty.ok()) << empty.status().toString();
    EXPECT_TRUE(empty.value().empty());
}

} // namespace
} // namespace cdma
