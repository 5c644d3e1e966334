/** @file Unit tests for the cDMA engine model. */

#include <cstring>

#include <gtest/gtest.h>

#include "cdma/engine.hh"
#include "common/rng.hh"

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

TEST(CdmaEngineDeathTest, RejectsSubUnityRatio)
{
    CdmaEngine engine(defaultConfig());
    EXPECT_DEATH(engine.planFromRatio("bad", 100, 0.5), "store-raw");
}

} // namespace
} // namespace cdma
