/**
 * @file
 * Tests for the compressed spill arena: round-trip identity through
 * the offloadInto/prefetch streaming path on every codec, slot
 * recycling across simulated iterations (slab allocation must plateau
 * after the first), high-water-mark accounting, and ticket lifecycle.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "compress/parallel.hh"

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

CdmaEngine
makeEngine(Algorithm algorithm = Algorithm::Zvc, unsigned lanes = 2)
{
    CdmaConfig config;
    config.compression.algorithm = algorithm;
    config.compression.lanes = lanes;
    config.transfer.timing_mode = TimingMode::Overlapped;
    return CdmaEngine(config);
}

TEST(SpillArena, OffloadIntoRoundTripsEveryCodec)
{
    // The arena holds exactly the stitched buffer's bytes, cut into
    // shards, and the prefetch restores the map.
    for (const Algorithm algorithm : kAllAlgorithms) {
        const CdmaEngine engine = makeEngine(algorithm);
        const TransferEngine transfers(engine);
        const size_t bytes =
            algorithm == Algorithm::Zlib ? 16384 + 5 : (1 << 18) + 37;
        const auto input = makeInput(0.5, bytes, 61);
        const CompressedBuffer compressed =
            engine.compressor().compress(input);

        SpillArena arena;
        const SpillTicket ticket =
            transfers.offloadInto(input, arena).value().ticket;
        EXPECT_EQ(arena.originalBytes(ticket), input.size());
        EXPECT_EQ(arena.windowBytes(ticket), compressed.window_bytes);
        EXPECT_EQ(arena.wireBytes(ticket), compressed.effectiveBytes());
        EXPECT_EQ(arena.payloadBytes(ticket), compressed.payload.size());
        EXPECT_EQ(transfers.prefetch(arena, ticket).value().data, input)
            << algorithmName(algorithm);
        arena.release(ticket);
    }
}

TEST(SpillArena, SlotRecyclingPlateausAfterTheFirstIteration)
{
    // A simulated multi-layer training loop: iteration 1 bump-allocates
    // slabs; every later iteration must be served entirely from
    // recycled slots and recycled tickets.
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    SpillArena arena;

    std::vector<std::vector<uint8_t>> layers;
    for (int i = 0; i < 5; ++i)
        layers.push_back(makeInput(0.2 + 0.15 * i,
                                   (100 + 40 * i) * 1024 + 7,
                                   200 + i));

    uint64_t slabs_after_first = 0;
    for (int iteration = 0; iteration < 4; ++iteration) {
        std::vector<SpillTicket> tickets;
        for (const auto &layer : layers)
            tickets.push_back(
                transfers.offloadInto(layer, arena)->ticket);
        for (size_t i = tickets.size(); i-- > 0;) {
            const PrefetchResult restored =
                transfers.prefetch(arena, tickets[i]).value();
            EXPECT_EQ(restored.data, layers[i])
                << "iteration " << iteration << " layer " << i;
            arena.release(tickets[i]);
        }
        if (iteration == 0) {
            slabs_after_first = arena.stats().slab_allocations;
            EXPECT_GT(slabs_after_first, 0u);
        }
    }

    const SpillStats &stats = arena.stats();
    EXPECT_EQ(stats.slab_allocations, slabs_after_first)
        << "steady-state iterations must not allocate new slabs";
    EXPECT_GT(stats.reused_slots, 0u);
    EXPECT_EQ(stats.live_buffers, 0u);
    EXPECT_EQ(stats.live_payload_bytes, 0u);
    EXPECT_EQ(stats.live_slot_bytes, 0u);
    EXPECT_GT(stats.high_water_payload_bytes, 0u);
    EXPECT_GE(stats.high_water_slot_bytes,
              stats.high_water_payload_bytes);
}

TEST(SpillArena, HighWaterTracksConcurrentResidency)
{
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    SpillArena arena;
    const auto a = makeInput(0.5, 300 * 1024, 11);
    const auto b = makeInput(0.5, 300 * 1024, 13);

    const SpillTicket ta = transfers.offloadInto(a, arena)->ticket;
    const uint64_t one = arena.stats().live_payload_bytes;
    const SpillTicket tb = transfers.offloadInto(b, arena)->ticket;
    const uint64_t both = arena.stats().live_payload_bytes;
    EXPECT_GT(both, one);
    EXPECT_EQ(arena.stats().high_water_payload_bytes, both);

    // Releasing one then storing again must not raise the high water
    // past the two-buffer peak (slots are recycled, residency is the
    // same).
    arena.release(ta);
    const SpillTicket tc = transfers.offloadInto(a, arena)->ticket;
    EXPECT_EQ(arena.stats().high_water_payload_bytes, both);
    arena.release(tb);
    arena.release(tc);
    EXPECT_EQ(arena.stats().live_payload_bytes, 0u);
}

TEST(SpillArena, ShardViewsExposeTheStoredFraming)
{
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.5, (1 << 19) + 37, 83);
    SpillArena arena;
    const SpilledOffload spilled = transfers.offloadInto(input, arena).value();
    const CompressedBuffer reference =
        engine.compressor().compress(input);

    uint64_t window_cursor = 0;
    uint64_t payload_cursor = 0;
    for (size_t s = 0; s < arena.shardCount(spilled.ticket); ++s) {
        const SpillShardView view = arena.shard(spilled.ticket, s);
        EXPECT_EQ(view.first_window, window_cursor);
        for (size_t w = 0; w < view.window_sizes.size(); ++w) {
            EXPECT_EQ(view.window_sizes[w],
                      reference.window_sizes[window_cursor + w]);
        }
        ASSERT_LE(payload_cursor + view.payload.size(),
                  reference.payload.size());
        EXPECT_EQ(0, std::memcmp(view.payload.data(),
                                 reference.payload.data() + payload_cursor,
                                 view.payload.size()));
        window_cursor += view.window_sizes.size();
        payload_cursor += view.payload.size();
    }
    EXPECT_EQ(window_cursor, reference.window_sizes.size());
    EXPECT_EQ(payload_cursor, reference.payload.size());
    arena.release(spilled.ticket);
}

TEST(SpillArena, AppendShardStoresWhatTheRoomPathStores)
{
    // appendShard() (a room of the shard's exact size, one copy, a
    // commit) and the offload's room path (the lanes compress into one
    // bound-sized room) must store identical views on every codec.
    const auto input = makeInput(0.45, (1 << 19) + 37, 89);
    const CdmaEngine engine = makeEngine(Algorithm::Zvc, 2);
    const TransferEngine transfers(engine);
    for (const Codec codec : kAllCodecs) {
        SCOPED_TRACE(codecName(codec));
        SpillArena arena;
        const SpillTicket roomed =
            transfers.offloadInto(input, arena, codec)->ticket;
        const SpillTicket appended = arena.beginSpill(
            input.size(), engine.config().compression.window_bytes);
        engine.compressorFor(codec).compressShards(
            input, transfers.shardWindows(),
            [&](CompressedShard &&shard) {
                arena.appendShard(appended, shard);
            });

        ASSERT_EQ(arena.shardCount(appended), arena.shardCount(roomed));
        EXPECT_EQ(arena.payloadBytes(appended), arena.payloadBytes(roomed));
        EXPECT_EQ(arena.wireBytes(appended), arena.wireBytes(roomed));
        for (size_t s = 0; s < arena.shardCount(roomed); ++s) {
            const SpillShardView a = arena.shard(appended, s);
            const SpillShardView r = arena.shard(roomed, s);
            EXPECT_TRUE(std::equal(a.payload.begin(), a.payload.end(),
                                   r.payload.begin(), r.payload.end()))
                << "shard " << s;
            EXPECT_TRUE(std::equal(a.window_sizes.begin(),
                                   a.window_sizes.end(),
                                   r.window_sizes.begin(),
                                   r.window_sizes.end()))
                << "shard " << s;
            EXPECT_EQ(a.first_window, r.first_window);
            EXPECT_EQ(a.raw_bytes, r.raw_bytes);
            EXPECT_EQ(a.wire_bytes, r.wire_bytes);
            EXPECT_EQ(a.crc32c, r.crc32c);
            EXPECT_EQ(a.raw_framed, r.raw_framed);
            EXPECT_EQ(a.codec, r.codec);
        }
        arena.release(roomed);
        arena.release(appended);
        EXPECT_EQ(arena.stats().live_slot_bytes, 0u);
        EXPECT_EQ(arena.stats().live_payload_bytes, 0u);
    }
}

TEST(SpillArena, EmptyBufferSpills)
{
    const CdmaEngine engine = makeEngine();
    const TransferEngine transfers(engine);
    SpillArena arena;
    const SpilledOffload spilled = transfers.offloadInto({}, arena).value();
    EXPECT_EQ(arena.shardCount(spilled.ticket), 0u);
    EXPECT_EQ(arena.originalBytes(spilled.ticket), 0u);
    EXPECT_EQ(spilled.timing.shard_count, 0u);
    EXPECT_DOUBLE_EQ(spilled.timing.overlapped_seconds, 0.0);
    EXPECT_DOUBLE_EQ(spilled.timing.overlap_fraction, 0.0);
    const PrefetchResult restored =
        transfers.prefetch(arena, spilled.ticket).value();
    EXPECT_TRUE(restored.data.empty());
    EXPECT_EQ(restored.timing.shard_count, 0u);
    EXPECT_DOUBLE_EQ(restored.timing.overlapped_seconds, 0.0);
    arena.release(spilled.ticket);
    EXPECT_EQ(arena.stats().live_buffers, 0u);
}

} // namespace
} // namespace cdma
