/** @file Unit tests for the cDMA engine model. */

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "cdma/engine.hh"
#include "common/rng.hh"
#include "compress/policy.hh"

namespace cdma {
namespace {

CdmaConfig
defaultConfig(Algorithm algorithm = Algorithm::Zvc)
{
    CdmaConfig config;
    config.compression.algorithm = algorithm;
    return config;
}

TEST(CdmaEngine, CapRatioIsCompOverPcie)
{
    CdmaEngine engine(defaultConfig());
    // 200 GB/s / 16 GB/s = 12.5.
    EXPECT_DOUBLE_EQ(engine.capRatio(), 12.5);
}

TEST(CdmaEngine, UncappedTransferTimeIsWireOverPcie)
{
    CdmaEngine engine(defaultConfig());
    const auto plan = engine.planFromRatio("layer", 160'000'000, 2.0);
    EXPECT_EQ(plan.wire_bytes, 80'000'000u);
    // Transfer time uses the achieved 12.8 GB/s copy rate.
    EXPECT_NEAR(plan.seconds, 80e6 / 12.8e9, 1e-12);
    EXPECT_FALSE(plan.fetch_capped);
}

TEST(CdmaEngine, HighRatioTriggersFetchCap)
{
    // Section VI: a layer at ratio 13.8 needs 13.8 x 16 = 220.8 GB/s of
    // fetch bandwidth, above the 200 GB/s COMP_BW; latency inflates by
    // 220.8 / 200.
    CdmaEngine engine(defaultConfig());
    const auto plan = engine.planFromRatio("sparse", 138'000'000, 13.8);
    EXPECT_TRUE(plan.fetch_capped);
    const double uncapped = 1e7 / 12.8e9;
    EXPECT_NEAR(plan.seconds, uncapped * (13.8 * 16.0 / 200.0), 1e-12);
}

TEST(CdmaEngine, CappedTransferStillFasterThanLowerRatio)
{
    // Even with the inflation, more compression never hurts: the
    // effective drain rate caps at COMP_BW, not below it.
    CdmaEngine engine(defaultConfig());
    const uint64_t raw = 320'000'000;
    const auto r12 = engine.planFromRatio("a", raw, 12.5);
    const auto r20 = engine.planFromRatio("b", raw, 20.0);
    EXPECT_LE(r20.seconds, r12.seconds * 1.0 + 1e-12);
}

TEST(CdmaEngine, DisabledCompressionMatchesVdnn)
{
    CdmaConfig config = defaultConfig();
    config.compression.enabled = false;
    CdmaEngine engine(config);
    const auto plan = engine.planFromRatio("layer", 64'000'000, 4.0);
    EXPECT_EQ(plan.wire_bytes, 64'000'000u);
    EXPECT_DOUBLE_EQ(plan.ratio, 1.0);
    EXPECT_NEAR(plan.seconds, 64e6 / 12.8e9, 1e-12);
}

TEST(CdmaEngine, PlanTransferCompressesRealData)
{
    Rng rng(99);
    std::vector<float> words(1 << 16);
    for (auto &w : words)
        w = rng.bernoulli(0.4)
            ? static_cast<float>(std::abs(rng.normal())) : 0.0f;
    std::vector<uint8_t> bytes(words.size() * 4);
    std::memcpy(bytes.data(), words.data(), bytes.size());

    CdmaEngine engine(defaultConfig());
    const auto plan = engine.planTransfer("conv1", bytes);
    EXPECT_EQ(plan.raw_bytes, bytes.size());
    EXPECT_LT(plan.wire_bytes, plan.raw_bytes);
    EXPECT_NEAR(plan.ratio, 1.0 / (0.4 + 1.0 / 32.0), 0.1);
    EXPECT_GT(plan.seconds, 0.0);
}

TEST(CdmaEngine, AlgorithmSelectionRespected)
{
    Rng rng(100);
    // Clustered zeros: RLE and ZVC should both work, zlib best.
    std::vector<uint8_t> bytes(1 << 18, 0);
    for (size_t i = 0; i < bytes.size() / 2; ++i)
        bytes[i] = static_cast<uint8_t>(1 + rng.uniformInt(254));

    const auto rle_plan =
        CdmaEngine(defaultConfig(Algorithm::Rle)).planTransfer("x", bytes);
    const auto zvc_plan =
        CdmaEngine(defaultConfig(Algorithm::Zvc)).planTransfer("x", bytes);
    const auto zl_plan =
        CdmaEngine(defaultConfig(Algorithm::Zlib)).planTransfer("x",
                                                                bytes);
    EXPECT_GT(rle_plan.ratio, 1.0);
    EXPECT_GT(zvc_plan.ratio, 1.0);
    EXPECT_GT(zl_plan.ratio, zvc_plan.ratio);
}

/** Entries of /proc/self/task: the threads this process runs. */
long
taskCount()
{
    long count = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++count;
    return count;
}

TEST(CdmaEngine, OneLanePoolPerEngineInEveryCodecMode)
{
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "/proc/self/task is not available";
    // A runtime may start a helper thread along with the process's
    // first thread (ThreadSanitizer does), so start and join one first.
    // Threads that earlier code joined can linger in the list for a
    // moment; start from a count that has settled.
    std::thread([] {}).join();
    long base = taskCount();
    for (int i = 0; i < 100; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const long now = taskCount();
        if (now == base)
            break;
        base = now;
    }
    // Both engines stay alive, so no exiting thread skews a count: each
    // 4-lane engine adds its 3 pool workers, whatever its codec mode.
    CodecPolicyEngine policy;
    CdmaConfig fixed = defaultConfig();
    fixed.compression.lanes = 4;
    const CdmaEngine fixed_engine(fixed);
    const long with_fixed = taskCount();
    CdmaConfig adaptive = fixed;
    adaptive.compression.mode = CodecMode::Adaptive;
    adaptive.compression.policy = &policy;
    const CdmaEngine adaptive_engine(adaptive);
    const long with_both = taskCount();
    EXPECT_EQ(with_fixed - base, 3) << "fixed";
    EXPECT_EQ(with_both - with_fixed, 3) << "adaptive";
}

TEST(CdmaEngine, OneCodecBankServesEveryLookup)
{
    CodecPolicyEngine policy;
    for (const CodecMode mode : {CodecMode::Fixed, CodecMode::Adaptive}) {
        for (const unsigned lanes : {1u, 2u}) {
            CdmaConfig config = defaultConfig(Algorithm::Rle);
            config.compression.lanes = lanes;
            config.compression.mode = mode;
            config.compression.policy = &policy;
            const CdmaEngine engine(config);
            EXPECT_EQ(&engine.compressor(),
                      &engine.compressorFor(Codec::Rle));
            EXPECT_EQ(engine.compressor().lanes(), lanes);
            for (const Codec codec : kAllCodecs) {
                const ParallelCompressor &entry =
                    engine.compressorFor(codec);
                EXPECT_EQ(entry.codecTag(), codec) << codecName(codec);
                EXPECT_EQ(&engine.serialCodec(codec), &entry.serial())
                    << codecName(codec);
                EXPECT_EQ(entry.lanes(), engine.compressor().lanes())
                    << codecName(codec);
            }
        }
    }
}

TEST(CdmaEngineDeathTest, RejectsSubUnityRatio)
{
    CdmaEngine engine(defaultConfig());
    EXPECT_DEATH(engine.planFromRatio("bad", 100, 0.5), "store-raw");
}

} // namespace
} // namespace cdma
