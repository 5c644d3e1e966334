/**
 * @file
 * Equivalence tests for the zero-allocation streaming core and the
 * parallel window fan-out: on every algorithm, density, size and lane
 * count, the batched compress(), an independently-stitched per-window
 * reference and ParallelCompressor must produce byte-identical
 * CompressedBuffers and lossless round trips.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/deflate.hh"
#include "compress/parallel.hh"
#include "compress/rle.hh"
#include "compress/zvc.hh"

namespace cdma {
namespace {

/** ReLU-like fp32 words at the given density, with a raw-byte tail. */
std::vector<uint8_t>
makeInput(double density, size_t bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> input(bytes, 0);
    const size_t words = bytes / 4;
    for (size_t i = 0; i < words; ++i) {
        if (density > 0.0 && rng.bernoulli(density)) {
            const float value =
                1.0f + static_cast<float>(std::abs(rng.normal()));
            std::memcpy(input.data() + i * 4, &value, 4);
        }
    }
    // Sub-word tail bytes (if any) get non-zero values so the raw-tail
    // path is exercised.
    for (size_t i = words * 4; i < bytes; ++i)
        input[i] = static_cast<uint8_t>(1 + rng.uniformInt(255));
    return input;
}

void
expectIdentical(const CompressedBuffer &a, const CompressedBuffer &b,
                const char *what)
{
    EXPECT_EQ(a.original_bytes, b.original_bytes) << what;
    EXPECT_EQ(a.window_bytes, b.window_bytes) << what;
    EXPECT_EQ(a.window_sizes, b.window_sizes) << what;
    EXPECT_EQ(a.payload, b.payload) << what;
}

/**
 * The seed implementation of compress(): each window compressed into
 * its own fresh vector, concatenated by copy. Reimplemented here over
 * the streaming core (the legacy return-by-value virtuals it once
 * exercised are gone) so the equivalence check still pins the batched
 * compress() against an independently-stitched per-window reference.
 */
CompressedBuffer
perWindowCompress(const Compressor &codec, std::span<const uint8_t> input)
{
    CompressedBuffer out;
    out.original_bytes = input.size();
    out.window_bytes = codec.windowBytes();
    for (uint64_t offset = 0; offset < input.size();
         offset += codec.windowBytes()) {
        const uint64_t len = std::min<uint64_t>(
            codec.windowBytes(), input.size() - offset);
        ByteVec window;
        codec.compressWindowInto(input.subspan(offset, len), window);
        out.window_sizes.push_back(
            static_cast<uint32_t>(window.size()));
        out.payload.insert(out.payload.end(), window.begin(),
                           window.end());
    }
    return out;
}

using EquivalenceParam =
    std::tuple<Algorithm, double /*density*/, size_t /*size*/>;

class StreamingEquivalence
    : public ::testing::TestWithParam<EquivalenceParam>
{
};

TEST_P(StreamingEquivalence, IntoApiMatchesLegacyPath)
{
    const auto [algorithm, density, size] = GetParam();
    const auto input = makeInput(density, size, 99 + size);

    const auto streaming = makeCompressor(algorithm)->compress(input);

    const CompressedBuffer legacy =
        perWindowCompress(*makeCompressor(algorithm), input);
    expectIdentical(streaming, legacy, "streaming vs legacy");
    EXPECT_EQ(makeCompressor(algorithm)->decompress(streaming).value(), input);
}

TEST_P(StreamingEquivalence, ParallelMatchesSerialAcrossLaneCounts)
{
    const auto [algorithm, density, size] = GetParam();
    const auto input = makeInput(density, size, 7 + size);
    const auto serial = makeCompressor(algorithm)->compress(input);

    for (unsigned lanes : {1u, 2u, 8u}) {
        const ParallelCompressor parallel(
            algorithm, Compressor::kDefaultWindowBytes, lanes);
        const auto compressed = parallel.compress(input);
        expectIdentical(serial, compressed, "parallel vs serial");
        EXPECT_EQ(parallel.decompress(compressed).value(), input);
        // Parallel decompression of the serial buffer (and vice versa)
        // must also round-trip: the formats are one and the same.
        EXPECT_EQ(parallel.decompress(serial).value(), input);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsDensitiesSizes, StreamingEquivalence,
    ::testing::Combine(
        ::testing::Values(Algorithm::Rle, Algorithm::Zvc, Algorithm::Zlib),
        ::testing::Values(0.0, 0.25, 0.5, 1.0),
        // Empty, sub-word, one window, odd sizes straddling window
        // boundaries, sub-word tails on multi-window buffers.
        ::testing::Values(size_t{0}, size_t{3}, size_t{4096},
                          size_t{4097}, size_t{40963}, size_t{65536})),
    [](const auto &info) {
        return algorithmName(std::get<0>(info.param)) + "_d" +
            std::to_string(
                static_cast<int>(std::get<1>(info.param) * 100)) +
            "_s" + std::to_string(std::get<2>(info.param));
    });

TEST(ParallelCompressor, LaneCountsAndSerialFallback)
{
    const ParallelCompressor serial(Algorithm::Zvc, 4096, 1);
    EXPECT_EQ(serial.lanes(), 1u);
    const ParallelCompressor eight(Algorithm::Zvc, 4096, 8);
    EXPECT_EQ(eight.lanes(), 8u);
    EXPECT_EQ(eight.name(), "ZV");
    EXPECT_EQ(eight.windowBytes(), 4096u);
}

TEST(ParallelCompressor, SingleWindowTakesSerialPath)
{
    // A buffer smaller than one window cannot fan out; result must still
    // be identical.
    const auto input = makeInput(0.5, 1000, 3);
    const ParallelCompressor parallel(Algorithm::Zvc, 4096, 8);
    expectIdentical(makeCompressor(Algorithm::Zvc)->compress(input),
                    parallel.compress(input), "single window");
}

TEST(ParallelCompressor, ShardStreamArrivesInOrderAndStitchesExactly)
{
    const auto input = makeInput(0.5, (1 << 18) + 37, 43);
    for (unsigned lanes : {1u, 2u, 8u}) {
        const ParallelCompressor compressor(Algorithm::Zvc, 4096, lanes);
        CompressedBuffer stitched;
        stitched.original_bytes = input.size();
        stitched.window_bytes = 4096;
        uint64_t expected_index = 0;
        compressor.compressShards(
            input, /*windows_per_shard=*/5, [&](CompressedShard &&shard) {
                EXPECT_EQ(shard.index, expected_index++);
                stitched.payload.insert(stitched.payload.end(),
                                        shard.payload.begin(),
                                        shard.payload.end());
                stitched.window_sizes.insert(stitched.window_sizes.end(),
                                             shard.window_sizes.begin(),
                                             shard.window_sizes.end());
            });
        EXPECT_EQ(expected_index, 13u); // ceil(65 windows / 5)
        expectIdentical(stitched, compressor.serial().compress(input),
                        "shard stream stitch");
    }
}

TEST(ParallelCompressor, RoomStreamMatchesTheShardStream)
{
    // compressShardsInto() writes each shard at its bound-strided offset
    // of one room and its window sizes into one framing array: the same
    // shards, bytes, sizes and CRCs compressShards() hands out, at every
    // lane count and on every algorithm.
    const auto input = makeInput(0.45, (1 << 18) + 37, 47);
    for (const Algorithm algorithm : kAllAlgorithms) {
        for (const unsigned lanes : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message() << algorithmName(algorithm)
                                            << " at " << lanes << " lanes");
            const ParallelCompressor compressor(algorithm, 4096, lanes);
            std::vector<CompressedShard> expected;
            compressor.compressShards(input, 5, [&](CompressedShard &&shard) {
                expected.push_back(std::move(shard));
            });
            const uint64_t windows = (input.size() + 4095) / 4096;
            const uint64_t stride = compressor.serial().compressedBound(4096);
            ByteVec room(compressor.serial().payloadBound(input.size(), 0,
                                                          windows));
            std::vector<uint32_t> sizes(windows);
            size_t drained = 0;
            compressor.compressShardsInto(
                input, 5, room, sizes, [&](const RoomShard &shard) {
                    const CompressedShard &want = expected.at(drained++);
                    EXPECT_EQ(shard.index, want.index);
                    EXPECT_EQ(shard.first_window, want.first_window);
                    EXPECT_EQ(shard.raw_bytes, want.raw_bytes);
                    EXPECT_EQ(shard.crc32c, want.crc32c);
                    EXPECT_EQ(shard.offset, shard.first_window * stride);
                    EXPECT_EQ(shard.window_count, want.window_sizes.size());
                    EXPECT_TRUE(std::equal(
                        sizes.begin() + shard.first_window,
                        sizes.begin() + shard.first_window +
                            shard.window_count,
                        want.window_sizes.begin(), want.window_sizes.end()));
                    EXPECT_TRUE(std::equal(
                        room.begin() + shard.offset,
                        room.begin() + shard.offset + shard.payload_bytes,
                        want.payload.begin(), want.payload.end()));
                    return true;
                });
            EXPECT_EQ(drained, expected.size());

            // A drain that returns false ends the stream there.
            drained = 0;
            compressor.compressShardsInto(
                input, 5, room, sizes,
                [&](const RoomShard &) { return ++drained < 2; });
            EXPECT_EQ(drained, 2u);
        }
    }
}

TEST(ParallelCompressor, ManyMoreWindowsThanLanes)
{
    const auto input = makeInput(0.3, (1 << 20) + 37, 11);
    const ParallelCompressor parallel(Algorithm::Rle, 4096, 3);
    const auto serial = makeCompressor(Algorithm::Rle)->compress(input);
    expectIdentical(serial, parallel.compress(input), "257 windows");
    EXPECT_EQ(parallel.decompress(serial).value(), input);
}

TEST(ParallelCompressor, MeasureRatioMatchesSerial)
{
    const auto input = makeInput(0.25, 1 << 18, 5);
    const ParallelCompressor parallel(Algorithm::Zvc, 4096, 4);
    EXPECT_DOUBLE_EQ(parallel.measureRatio(input),
                     makeCompressor(Algorithm::Zvc)->measureRatio(input));
}

TEST(StreamingInto, AppendsWithoutDisturbingExistingBytes)
{
    // compressWindowInto must be strictly append-only: prior contents of
    // the shared payload buffer stay untouched.
    const auto input = makeInput(0.5, 4096, 21);
    for (Algorithm algorithm : kAllAlgorithms) {
        const auto codec = makeCompressor(algorithm);
        ByteVec out = {0xDE, 0xAD, 0xBE, 0xEF};
        codec->compressWindowInto(input, out);
        ASSERT_GT(out.size(), 4u);
        EXPECT_EQ(out[0], 0xDE);
        EXPECT_EQ(out[3], 0xEF);

        // And the appended bytes are exactly one window's payload.
        const auto whole = codec->compress(input);
        ASSERT_EQ(whole.window_sizes.size(), 1u);
        EXPECT_EQ(out.size() - 4, whole.payload.size());
        EXPECT_TRUE(std::equal(out.begin() + 4, out.end(),
                               whole.payload.begin()));
    }
}

TEST(StreamingInto, DecompressIntoFillsExactRegion)
{
    const auto input = makeInput(0.25, 4096, 23);
    for (Algorithm algorithm : kAllAlgorithms) {
        const auto codec = makeCompressor(algorithm);
        const auto compressed = codec->compress(input);
        // Sentinel-padded region: the codec must write exactly the window
        // and nothing else.
        std::vector<uint8_t> region(input.size() + 8, 0xCC);
        ASSERT_TRUE(codec
                        ->decompressWindowInto(compressed.payload,
                                               input.size(),
                                               region.data() + 4)
                        .ok());
        EXPECT_EQ(region[0], 0xCC);
        EXPECT_EQ(region[3], 0xCC);
        EXPECT_EQ(region[region.size() - 4], 0xCC);
        EXPECT_TRUE(std::equal(input.begin(), input.end(),
                               region.begin() + 4));
    }
}

TEST(ShardFanOut, ThrowingConsumerJoinsWorkersAndRethrows)
{
    // The drain consumer runs on the calling thread while workers are
    // still compressing later shards; a throw out of it must join every
    // helper before the frame unwinds (no worker left touching a dead
    // frame's shard slots) and propagate to the caller.
    const ParallelCompressor parallel(Algorithm::Zvc, 4096, 4);
    const auto input = makeInput(0.4, 64 * 4096, 41);

    int consumed = 0;
    try {
        parallel.compressShards(input, 2,
                                [&](CompressedShard &&shard) {
                                    if (shard.index == 1)
                                        throw std::runtime_error(
                                            "consumer rejected shard 1");
                                    ++consumed;
                                });
        FAIL() << "compressShards swallowed the consumer exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "consumer rejected shard 1");
    }
    EXPECT_EQ(consumed, 1); // shard 0 only

    // The compressor (and its pool) survive: the next fan-out matches
    // the serial reference byte for byte.
    const CompressedBuffer after = parallel.compress(input);
    expectIdentical(after, parallel.serial().compress(input),
                    "post-exception fan-out");
}

TEST(ShardFanOut, CallingThreadWorksShards)
{
    // At 2 lanes the caller is one of the two lanes: while the next
    // shard to drain is still being worked, it claims and works one
    // itself, so the ~1 ms shards land on two distinct threads and
    // still drain strictly in order.
    const ParallelCompressor parallel(Algorithm::Zvc, 4096, 2);
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> workers;
    std::vector<int> worked(16, 0);
    std::vector<uint64_t> drained;
    std::atomic<bool> worker_started{false};
    parallel.runOrderedShardFanOut(
        16,
        [&](uint64_t s) {
            const bool on_caller = std::this_thread::get_id() == caller;
            {
                std::lock_guard<std::mutex> lock(mutex);
                workers.insert(std::this_thread::get_id());
                ++worked[s];
            }
            if (!on_caller)
                worker_started = true;
            // However the threads are scheduled, the caller's shard
            // stays open until the worker has started one of its own.
            while (on_caller && !worker_started)
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        [&](uint64_t s) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            drained.push_back(s);
            return true;
        });

    EXPECT_EQ(workers.size(), 2u);
    EXPECT_EQ(workers.count(caller), 1u);
    EXPECT_EQ(worked, std::vector<int>(16, 1));
    std::vector<uint64_t> order(16);
    std::iota(order.begin(), order.end(), 0);
    EXPECT_EQ(drained, order);
}

TEST(ShardFanOut, ThrowingWorkOnCallerJoinsWorkersAndRethrows)
{
    // The caller's own work throws while the workers are mid-shard: the
    // fan-out abandons the unclaimed shards, joins every worker before
    // the frame unwinds, and rethrows — no shard after the failure is
    // drained.
    const ParallelCompressor parallel(Algorithm::Zvc, 4096, 4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> in_flight{0};
    std::atomic<uint64_t> worked{0};
    std::atomic<uint64_t> thrown_at{~0ull};
    uint64_t drained = 0;
    try {
        parallel.runOrderedShardFanOut(
            64,
            [&](uint64_t s) {
                if (std::this_thread::get_id() == caller) {
                    thrown_at = s;
                    throw std::runtime_error("caller lane failed");
                }
                // Workers hold their shard until the caller has thrown,
                // so the caller is sure to claim one, and are still
                // mid-shard when it reaches the join.
                ++in_flight;
                ++worked;
                while (thrown_at == ~0ull)
                    std::this_thread::yield();
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                --in_flight;
            },
            [&](uint64_t) {
                ++drained;
                return true;
            });
        FAIL() << "the caller's work exception was swallowed";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "caller lane failed");
    }
    EXPECT_EQ(in_flight.load(), 0); // every worker joined
    EXPECT_LE(drained, thrown_at.load()); // nothing from the failure on
    EXPECT_LT(worked.load(), 63u); // the rest were abandoned

    // The pool survives: a clean fan-out afterwards runs every shard.
    std::atomic<uint64_t> again{0};
    parallel.runOrderedShardFanOut(
        8, [&](uint64_t) { ++again; }, [](uint64_t) { return true; });
    EXPECT_EQ(again.load(), 8u);
}

TEST(ShardFanOut, InlineLaneKeepsShardOrder)
{
    // One lane: no pool, every shard works then drains on the caller,
    // in order; a drain that returns false stops the fan-out there.
    const ParallelCompressor parallel(Algorithm::Zvc, 4096, 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::string> events;
    parallel.runOrderedShardFanOut(
        6,
        [&](uint64_t s) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            events.push_back("w" + std::to_string(s));
        },
        [&](uint64_t s) {
            events.push_back("d" + std::to_string(s));
            return s < 3;
        });
    EXPECT_EQ(events, (std::vector<std::string>{"w0", "d0", "w1", "d1",
                                                 "w2", "d2", "w3", "d3"}));
}

TEST(CompressedBound, CoversWorstCaseWindows)
{
    // Fully dense data is each codec's worst case; the bound must cover
    // what the codec actually emits (it is what compress() pre-reserves).
    const auto dense = makeInput(1.0, 4096, 31);
    for (Algorithm algorithm : kAllAlgorithms) {
        const auto codec = makeCompressor(algorithm);
        const auto compressed = codec->compress(dense);
        EXPECT_LE(compressed.payload.size(),
                  codec->compressedBound(dense.size()))
            << algorithmName(algorithm);
    }
}

} // namespace
} // namespace cdma
