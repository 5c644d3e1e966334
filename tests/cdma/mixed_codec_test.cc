/**
 * @file
 * Mixed-codec shard trains: under the adaptive policy, consecutive
 * offloads into one spill arena may each use a different codec, so the
 * prefetch side must dispatch the decoder per stored shard's codec tag.
 * These tests pin byte-identical restoration of interleaved
 * raw/RLE/ZVC/DEFLATE spills across lane counts and every compiled
 * kernel backend, and the end-to-end adaptive engine path (the policy
 * picking different codecs for dense and sparse maps feeding the same
 * arena).
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "compress/kernels/kernels.hh"
#include "compress/parallel.hh"
#include "compress/policy.hh"

namespace cdma {
namespace {

/** ReLU-like fp32 words at the given density. */
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
    for (size_t i = words * 4; i < bytes; ++i)
        input[i] = static_cast<uint8_t>(1 + rng.uniformInt(255));
    return input;
}

/**
 * An adaptive-mode engine over @p kernels with @p lanes lanes. Every
 * engine carries one compressor per codec, so explicit codec overrides
 * are honored in either codec mode; the mode only decides whether
 * planTransfer() asks the policy.
 */
CdmaConfig
adaptiveConfig(CodecPolicyEngine &policy, unsigned lanes,
               const KernelOps *kernels = nullptr)
{
    CdmaConfig config;
    config.compression.lanes = lanes;
    config.compression.kernels = kernels;
    config.compression.mode = CodecMode::Adaptive;
    config.compression.policy = &policy;
    config.transfer.timing_mode = TimingMode::Overlapped;
    return config;
}

TEST(MixedCodec, ShardTrainsRestoreAcrossLanesAndBackends)
{
    // One arena per (backend, lanes) pair receives four maps, each
    // offloaded with a different codec override; every map must come
    // back byte-identical on the tag-dispatched decode path.
    CodecPolicyEngine policy;
    for (const KernelOps *kernels : supportedKernels()) {
        for (const unsigned lanes : {1u, 2u, 8u}) {
            const CdmaEngine engine(
                adaptiveConfig(policy, lanes, kernels));
            const TransferEngine transfers(engine);
            SpillArena arena;

            const Codec order[] = {Codec::Zvc, Codec::Raw, Codec::Rle,
                                   Codec::Zlib};
            std::vector<std::vector<uint8_t>> originals;
            std::vector<SpillTicket> tickets;
            for (size_t i = 0; i < std::size(order); ++i) {
                originals.push_back(makeInput(
                    0.15 + 0.2 * static_cast<double>(i),
                    (1 << 17) + 41 * i, 300 + i));
                const StatusOr<SpilledOffload> spilled =
                    transfers.offloadInto(originals.back(), arena,
                                          order[i]);
                ASSERT_TRUE(spilled.ok())
                    << kernels->name << " lanes " << lanes << " codec "
                    << codecName(order[i]);
                tickets.push_back(spilled->ticket);
            }
            // Restore in reverse (the backward pass) and verify each
            // shard decoded with the codec it was stored under.
            for (size_t i = tickets.size(); i-- > 0;) {
                const StatusOr<PrefetchResult> restored =
                    transfers.prefetch(arena, tickets[i]);
                ASSERT_TRUE(restored.ok())
                    << kernels->name << " lanes " << lanes << " codec "
                    << codecName(order[i]);
                EXPECT_EQ(restored->data, originals[i])
                    << kernels->name << " lanes " << lanes << " codec "
                    << codecName(order[i]);
                arena.release(tickets[i]);
            }
        }
    }
}

/** Spill @p input with @p codec requested and return the tag every
 *  stored shard carries (they must agree), after checking the map
 *  restores. */
Codec
spilledCodec(const TransferEngine &transfers,
             const std::vector<uint8_t> &input, Codec codec)
{
    SpillArena arena;
    const SpillTicket ticket =
        transfers.offloadInto(input, arena, codec).value().ticket;
    const Codec tag = arena.shard(ticket, 0).codec;
    for (size_t s = 1; s < arena.shardCount(ticket); ++s)
        EXPECT_EQ(arena.shard(ticket, s).codec, tag) << "shard " << s;
    const StatusOr<PrefetchResult> restored =
        transfers.prefetch(arena, ticket);
    EXPECT_TRUE(restored.ok()) << codecName(codec);
    if (restored.ok()) {
        EXPECT_EQ(restored->data, input) << codecName(codec);
    }
    arena.release(ticket);
    return tag;
}

TEST(MixedCodec, OffloadOverrideTagsEveryShard)
{
    // The override is honored by an adaptive and by a fixed engine, and
    // every shard's tag records the codec that actually framed it.
    CodecPolicyEngine policy;
    CdmaConfig fixed_config;
    fixed_config.compression.lanes = 2;
    fixed_config.transfer.timing_mode = TimingMode::Overlapped;
    const auto input = makeInput(0.4, 1 << 18, 7);
    for (const CdmaConfig &config :
         {adaptiveConfig(policy, 2), fixed_config}) {
        const CdmaEngine engine(config);
        const TransferEngine transfers(engine);
        for (const Codec codec : kAllCodecs) {
            EXPECT_EQ(spilledCodec(transfers, input, codec), codec)
                << codecModeName(config.compression.mode);
        }
    }
}

TEST(MixedCodec, AdaptiveEngineRoundTripsWhatThePolicyPicks)
{
    // End to end: an adaptive engine whose policy prices a contended
    // wire picks raw for the dense map and ZVC for the sparse one; both
    // land in one arena and restore byte-identically.
    PolicyConfig policy_config;
    policy_config.wire_bandwidth = 6.4e9;
    CodecPolicyEngine policy(policy_config);
    CdmaConfig config;
    config.compression.lanes = 2;
    config.compression.mode = CodecMode::Adaptive;
    config.compression.policy = &policy;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);

    const auto dense = makeInput(1.0, 1 << 18, 21);
    const auto sparse = makeInput(0.2, 1 << 18, 22);
    const TransferPlan dense_plan = engine.planTransfer("dense", dense);
    const TransferPlan sparse_plan =
        engine.planTransfer("sparse", sparse);
    EXPECT_EQ(dense_plan.codec, Codec::Raw);
    EXPECT_EQ(sparse_plan.codec, Codec::Zvc);
    EXPECT_GT(dense_plan.policy_predicted_seconds, 0.0);

    SpillArena arena;
    const StatusOr<SpilledOffload> dense_spill =
        transfers.offloadInto(dense, arena, dense_plan.codec);
    const StatusOr<SpilledOffload> sparse_spill =
        transfers.offloadInto(sparse, arena, sparse_plan.codec);
    ASSERT_TRUE(dense_spill.ok());
    ASSERT_TRUE(sparse_spill.ok());
    const StatusOr<PrefetchResult> dense_back =
        transfers.prefetch(arena, dense_spill->ticket);
    const StatusOr<PrefetchResult> sparse_back =
        transfers.prefetch(arena, sparse_spill->ticket);
    ASSERT_TRUE(dense_back.ok());
    ASSERT_TRUE(sparse_back.ok());
    EXPECT_EQ(dense_back->data, dense);
    EXPECT_EQ(sparse_back->data, sparse);
}

} // namespace
} // namespace cdma
