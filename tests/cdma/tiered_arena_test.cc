/**
 * @file
 * Tests for the two-tier spill arena: FIFO eviction to the backing
 * (SSD) tier under host-capacity pressure, transparent reads through
 * either tier, promotion on prefetch, SSD traffic accounting, and
 * byte-identical round trips through the TransferEngine tiered flows.
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
makeEngine()
{
    CdmaConfig config;
    config.compression.lanes = 2;
    config.transfer.timing_mode = TimingMode::Overlapped;
    return CdmaEngine(config);
}

/** Spill @p input through the tiered flow and return the ticket. */
SpillTicket
spill(const TransferEngine &engine, TieredSpillArena &arena,
      const std::vector<uint8_t> &input)
{
    return engine.offloadInto(input, arena).value().ticket;
}

TEST(TieredSpillArena, UnlimitedCapacityNeverEvicts)
{
    const CdmaEngine cdma = makeEngine();
    const TransferEngine engine(cdma);
    TieredSpillArena arena(/*host_capacity_bytes=*/0);
    const auto input = makeInput(0.4, (1 << 18) + 7, 11);
    const SpillTicket ticket = spill(engine, arena, input);
    EXPECT_FALSE(arena.onBackingTier(ticket));
    EXPECT_EQ(arena.tierStats().evictions, 0u);
    EXPECT_EQ(arena.tierStats().ssd_write_bytes, 0u);
    EXPECT_EQ(arena.backingArena().stats().live_buffers, 0u);
    arena.release(ticket);
}

TEST(TieredSpillArena, CapacityPressureEvictsOldestSealedFirst)
{
    const CdmaEngine cdma = makeEngine();
    const TransferEngine engine(cdma);
    const auto input = makeInput(0.5, 1 << 18, 23);

    // Budget fits roughly two compressed copies of the input.
    TieredSpillArena probe(0);
    const SpillTicket sized = spill(engine, probe, input);
    const uint64_t payload = probe.payloadBytes(sized);
    probe.release(sized);
    ASSERT_GT(payload, 0u);

    TieredSpillArena arena(2 * payload + payload / 2);
    const SpillTicket first = spill(engine, arena, input);
    const SpillTicket second = spill(engine, arena, input);
    EXPECT_FALSE(arena.onBackingTier(first));
    EXPECT_FALSE(arena.onBackingTier(second));

    // The third spill pushes the host tier over budget: the OLDEST
    // sealed spill goes down, the newer ones stay resident.
    const SpillTicket third = spill(engine, arena, input);
    EXPECT_TRUE(arena.onBackingTier(first));
    EXPECT_FALSE(arena.onBackingTier(second));
    EXPECT_FALSE(arena.onBackingTier(third));
    EXPECT_EQ(arena.tierStats().evictions, 1u);
    EXPECT_EQ(arena.tierStats().ssd_write_bytes, payload);
    EXPECT_LE(arena.hostArena().stats().live_payload_bytes,
              arena.tierStats().host_capacity_bytes);

    // Reads resolve transparently through the backing tier.
    EXPECT_EQ(arena.originalBytes(first), input.size());
    EXPECT_EQ(arena.payloadBytes(first), payload);
    arena.release(first);
    arena.release(second);
    arena.release(third);
    EXPECT_EQ(arena.hostArena().stats().live_buffers, 0u);
    EXPECT_EQ(arena.backingArena().stats().live_buffers, 0u);
}

TEST(TieredSpillArena, RecycledTicketKeepsOldestFirstEviction)
{
    // A released spill leaves its eviction-order entry behind. The next
    // spill recycles its ticket; that stale entry must not move the
    // newer spill ahead of an older sealed one.
    const CdmaEngine cdma = makeEngine();
    const TransferEngine engine(cdma);
    const auto input = makeInput(0.5, 1 << 18, 97);

    TieredSpillArena probe(0);
    const SpillTicket sized = spill(engine, probe, input);
    const uint64_t payload = probe.payloadBytes(sized);
    probe.release(sized);

    TieredSpillArena arena(2 * payload + payload / 2);
    const SpillTicket a = spill(engine, arena, input);
    const SpillTicket b = spill(engine, arena, input);
    arena.release(a);
    const SpillTicket c = spill(engine, arena, input);
    ASSERT_EQ(c, a) << "the test needs c to recycle a's ticket";
    const SpillTicket d = spill(engine, arena, input);

    // b, c and d exceed the budget: b is the oldest and goes down.
    EXPECT_TRUE(arena.onBackingTier(b));
    EXPECT_FALSE(arena.onBackingTier(c));
    EXPECT_FALSE(arena.onBackingTier(d));
    EXPECT_EQ(arena.tierStats().evictions, 1u);
    arena.release(b);
    arena.release(c);
    arena.release(d);
    EXPECT_EQ(arena.hostArena().stats().live_slot_bytes, 0u);
    EXPECT_EQ(arena.backingArena().stats().live_slot_bytes, 0u);
}

TEST(TieredSpillArena, PromoteReadsBackAndReentersEvictionOrder)
{
    const CdmaEngine cdma = makeEngine();
    const TransferEngine engine(cdma);
    const auto input = makeInput(0.5, 1 << 18, 31);

    TieredSpillArena probe(0);
    const SpillTicket sized = spill(engine, probe, input);
    const uint64_t payload = probe.payloadBytes(sized);
    probe.release(sized);

    TieredSpillArena arena(payload + payload / 2);
    const SpillTicket first = spill(engine, arena, input);
    const SpillTicket second = spill(engine, arena, input);
    ASSERT_TRUE(arena.onBackingTier(first));

    // Promotion reads the payload back up and displaces the other
    // resident spill (capacity holds one).
    EXPECT_EQ(arena.promote(first), payload);
    EXPECT_FALSE(arena.onBackingTier(first));
    EXPECT_TRUE(arena.onBackingTier(second));
    EXPECT_EQ(arena.tierStats().promotions, 1u);
    EXPECT_EQ(arena.tierStats().ssd_read_bytes, payload);
    EXPECT_EQ(arena.tierStats().evictions, 2u);

    // Promoting a resident spill is free.
    EXPECT_EQ(arena.promote(first), 0u);
    arena.release(first);
    arena.release(second);
}

TEST(TieredSpillArena, PrefetchRestoresEvictedSpillsByteIdentical)
{
    const CdmaEngine cdma = makeEngine();
    const TransferEngine engine(cdma);
    const auto first_input = makeInput(0.45, (1 << 18) + 13, 41);
    const auto second_input = makeInput(0.55, (1 << 18) + 29, 43);

    TieredSpillArena probe(0);
    const SpillTicket sized = spill(engine, probe, first_input);
    const uint64_t payload = probe.payloadBytes(sized);
    probe.release(sized);

    // Capacity of one spill: the second offload evicts the first.
    TieredSpillArena arena(payload + payload / 2);
    const SpillTicket first = spill(engine, arena, first_input);
    const SpillTicket second = spill(engine, arena, second_input);
    ASSERT_TRUE(arena.onBackingTier(first));

    // Prefetching the evicted spill promotes it (SSD readback counted)
    // and restores the exact offloaded bytes.
    const PrefetchResult restored =
        engine.prefetch(arena, first).value();
    EXPECT_EQ(restored.data, first_input);
    EXPECT_FALSE(arena.onBackingTier(first));
    EXPECT_GT(arena.tierStats().ssd_read_bytes, 0u);

    const PrefetchResult also =
        engine.prefetch(arena, second).value();
    EXPECT_EQ(also.data, second_input);
    arena.release(first);
    arena.release(second);
}

TEST(TieredSpillArena, ShardViewsMatchAcrossTiers)
{
    const CdmaEngine cdma = makeEngine();
    const TransferEngine engine(cdma);
    const auto input = makeInput(0.5, (1 << 17) + 3, 53);

    TieredSpillArena unlimited(0);
    const SpillTicket resident = spill(engine, unlimited, input);
    TieredSpillArena tight(1); // evicts everything sealed
    const SpillTicket evicted = spill(engine, tight, input);
    ASSERT_TRUE(tight.onBackingTier(evicted));

    ASSERT_EQ(tight.shardCount(evicted), unlimited.shardCount(resident));
    EXPECT_EQ(tight.originalBytes(evicted),
              unlimited.originalBytes(resident));
    EXPECT_EQ(tight.payloadBytes(evicted), unlimited.payloadBytes(resident));
    for (size_t s = 0; s < tight.shardCount(evicted); ++s) {
        const SpillShardView ssd = tight.shard(evicted, s);
        const SpillShardView host = unlimited.shard(resident, s);
        EXPECT_TRUE(std::equal(ssd.payload.begin(), ssd.payload.end(),
                               host.payload.begin(), host.payload.end()))
            << "shard " << s;
        EXPECT_TRUE(std::equal(ssd.window_sizes.begin(),
                               ssd.window_sizes.end(),
                               host.window_sizes.begin(),
                               host.window_sizes.end()))
            << "shard " << s;
        EXPECT_EQ(ssd.crc32c, host.crc32c);
    }
    EXPECT_EQ(engine.prefetch(tight, evicted).value().data, input);
    unlimited.release(resident);
    tight.release(evicted);
}

TEST(TieredSpillArena, TicketsRecycleAcrossIterations)
{
    const CdmaEngine cdma = makeEngine();
    const TransferEngine engine(cdma);
    const auto input = makeInput(0.4, 1 << 17, 67);

    TieredSpillArena arena(1); // every sealed spill evicts
    for (int iteration = 0; iteration < 3; ++iteration) {
        const SpillTicket ticket = spill(engine, arena, input);
        EXPECT_TRUE(arena.onBackingTier(ticket));
        EXPECT_EQ(engine.prefetch(arena, ticket).value().data, input);
        arena.release(ticket);
    }
    // One eviction + one promotion per iteration, symmetric traffic.
    EXPECT_EQ(arena.tierStats().evictions, 3u);
    EXPECT_EQ(arena.tierStats().promotions, 3u);
    EXPECT_EQ(arena.tierStats().ssd_read_bytes,
              arena.tierStats().ssd_write_bytes);
}

} // namespace
} // namespace cdma
