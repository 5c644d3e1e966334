/**
 * @file
 * Tests for the unified full-duplex TransferEngine: byte-identity of
 * spill-arena round trips through the ticket flow across shard and lane
 * shapes (one window, shards vs lanes in both directions, 1/2/8 lanes,
 * repeats), the routes it prices (an edgeless route, a graph's
 * half-duplex edge), and the pipeline surfaces on TransferPlan,
 * VdnnMemoryManager and the step simulator.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "compress/kernels/kernels.hh"
#include "perf/step_sim.hh"
#include "vdnn/memory_manager.hh"

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
makeEngine(unsigned lanes, DuplexMode mode = DuplexMode::Full,
           LinkArbiter arbiter = LinkArbiter::RoundRobin,
           uint64_t shard_bytes = 0)
{
    CdmaConfig config;
    config.compression.lanes = lanes;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.duplex_mode = mode;
    config.transfer.link_arbiter = arbiter;
    config.transfer.shard_bytes = shard_bytes;
    return CdmaEngine(config);
}

/** Bytes @p data compresses to under @p engine's serial codec. */
CompressedBuffer
serialCompress(const CdmaEngine &engine, std::span<const uint8_t> data)
{
    return engine.compressor().serial().compress(data);
}

/** Round-trip @p input through @p transfers and @p arena, checking the
 *  restored bytes and that the prefetch prices the offload's train. */
SpilledOffload
roundTrip(const TransferEngine &transfers, SpillArena &arena,
          const std::vector<uint8_t> &input)
{
    const SpilledOffload spilled =
        transfers.offloadInto(input, arena).value();
    const PrefetchResult restored =
        transfers.prefetch(arena, spilled.ticket).value();
    EXPECT_EQ(restored.data, ByteVec(input.begin(), input.end()));
    EXPECT_EQ(restored.shards.size(), spilled.shards.size());
    for (size_t i = 0; i < restored.shards.size(); ++i) {
        EXPECT_EQ(restored.shards[i].raw_bytes,
                  spilled.shards[i].raw_bytes);
        EXPECT_EQ(restored.shards[i].wire_bytes,
                  spilled.shards[i].wire_bytes);
    }
    EXPECT_EQ(restored.timing.overlapped_seconds,
              transfers.duplexTiming({}, spilled.shards)
                  .prefetch.overlapped_seconds);
    return spilled;
}

TEST(TransferEngine, SingleWindowSpillHasNoOverlap)
{
    const CdmaEngine engine = makeEngine(4);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.5, 1000, 17);
    SpillArena arena;
    const SpilledOffload spilled = roundTrip(transfers, arena, input);
    ASSERT_EQ(spilled.shards.size(), 1u);
    EXPECT_EQ(spilled.shards[0].raw_bytes, input.size());
    EXPECT_EQ(spilled.shards[0].wire_bytes,
              serialCompress(engine, input).effectiveBytes());
    EXPECT_DOUBLE_EQ(spilled.timing.overlap_fraction, 0.0);
    EXPECT_EQ(arena.shard(spilled.ticket, 0).payload.size(),
              serialCompress(engine, input).payload.size());
    arena.release(spilled.ticket);
}

TEST(TransferEngine, MoreLanesThanShardsRoundTrips)
{
    // 8 lanes, 3 single-window shards: most lanes idle, identity and
    // timing must still hold.
    const CdmaEngine engine =
        makeEngine(8, DuplexMode::Full, LinkArbiter::RoundRobin, 4096);
    const TransferEngine transfers(engine);
    EXPECT_EQ(transfers.shardWindows(), 1u);
    const auto input = makeInput(0.5, 3 * 4096, 31);
    SpillArena arena;
    const SpilledOffload spilled = roundTrip(transfers, arena, input);
    ASSERT_EQ(spilled.shards.size(), 3u);
    EXPECT_EQ(arena.wireBytes(spilled.ticket),
              serialCompress(engine, input).effectiveBytes());
    EXPECT_GT(spilled.timing.overlap_fraction, 0.0);
    arena.release(spilled.ticket);
}

TEST(TransferEngine, RepeatSpillIsDeterministic)
{
    // Two spills of the same map store the same bytes and price the
    // same timing, whatever order the lanes finish shards in.
    const CdmaEngine engine = makeEngine(0); // all hardware threads
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.5, (1 << 20) + 4096, 41);
    SpillArena arena;
    const SpilledOffload a = roundTrip(transfers, arena, input);
    const SpilledOffload b = roundTrip(transfers, arena, input);
    EXPECT_EQ(a.timing.overlapped_seconds, b.timing.overlapped_seconds);
    EXPECT_EQ(a.timing.compress_seconds, b.timing.compress_seconds);
    EXPECT_EQ(a.timing.wire_seconds, b.timing.wire_seconds);
    EXPECT_EQ(a.timing.overlap_fraction, b.timing.overlap_fraction);
    ASSERT_EQ(arena.shardCount(a.ticket), arena.shardCount(b.ticket));
    for (size_t s = 0; s < arena.shardCount(a.ticket); ++s) {
        const SpillShardView x = arena.shard(a.ticket, s);
        const SpillShardView y = arena.shard(b.ticket, s);
        EXPECT_TRUE(std::equal(x.payload.begin(), x.payload.end(),
                               y.payload.begin(), y.payload.end()))
            << "shard " << s;
    }
    arena.release(a.ticket);
    arena.release(b.ticket);
}

TEST(TransferEngine, SpillArenaRoundTripsByteIdenticalAcrossLanes)
{
    // The unified ticket flow (offloadInto -> prefetch(arena, ticket))
    // must restore byte-identical data at 1/2/8 compression lanes, with
    // more shards than lanes, and the shard trains and their timing
    // must not depend on lane count.
    const auto input = makeInput(0.4, (1 << 20) + 123, 929);
    std::vector<SpilledOffload> spills;
    for (const unsigned lanes : {1u, 2u, 8u}) {
        const CdmaEngine engine = makeEngine(lanes);
        const TransferEngine transfers(engine);
        SpillArena arena;
        spills.push_back(roundTrip(transfers, arena, input));
        EXPECT_GT(spills.back().shards.size(), size_t{lanes});
        arena.release(spills.back().ticket);
    }
    for (const SpilledOffload &spilled : spills) {
        ASSERT_EQ(spilled.shards.size(), spills[0].shards.size());
        for (size_t i = 0; i < spilled.shards.size(); ++i) {
            EXPECT_EQ(spilled.shards[i].wire_bytes,
                      spills[0].shards[i].wire_bytes);
        }
        EXPECT_EQ(spilled.timing.overlapped_seconds,
                  spills[0].timing.overlapped_seconds);
    }
}

TEST(TransferEngine, ZeroCopyOffloadStoresWhatCompressFrames)
{
    // The lanes compress straight into the spill's room and write their
    // window sizes into its framing: at every lane count and on every
    // codec, the shard views hold exactly the bytes, window sizes and
    // codec compress() frames, each CRC covers its view's payload, and
    // no room outlives its release.
    const auto input = makeInput(0.4, (1 << 19) + 37, 947);
    for (const Codec codec : kAllCodecs) {
        for (const unsigned lanes : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message() << codecName(codec) << " at "
                                            << lanes << " lanes");
            const CdmaEngine engine = makeEngine(lanes);
            const TransferEngine transfers(engine);
            const Compressor &serial = engine.serialCodec(codec);
            const CompressedBuffer reference = serial.compress(input);
            SpillArena arena;
            const SpilledOffload spilled =
                transfers.offloadInto(input, arena, codec).value();
            const size_t shards = arena.shardCount(spilled.ticket);
            ASSERT_GT(shards, size_t{lanes});
            uint64_t window = 0;
            uint64_t offset = 0;
            for (size_t s = 0; s < shards; ++s) {
                const SpillShardView view = arena.shard(spilled.ticket, s);
                EXPECT_EQ(view.codec, codec);
                EXPECT_FALSE(view.raw_framed);
                EXPECT_EQ(view.first_window, window);
                ASSERT_LE(window + view.window_sizes.size(),
                          reference.window_sizes.size());
                EXPECT_TRUE(std::equal(view.window_sizes.begin(),
                                       view.window_sizes.end(),
                                       reference.window_sizes.begin() +
                                           window))
                    << "shard " << s;
                ASSERT_LE(offset + view.payload.size(),
                          reference.payload.size());
                EXPECT_EQ(0, std::memcmp(view.payload.data(),
                                         reference.payload.data() + offset,
                                         view.payload.size()))
                    << "shard " << s;
                EXPECT_EQ(view.crc32c,
                          serial.kernels().crc32(
                              0, reference.payload.data() + offset,
                              view.payload.size()))
                    << "shard " << s;
                window += view.window_sizes.size();
                offset += view.payload.size();
            }
            EXPECT_EQ(window, reference.window_sizes.size());
            EXPECT_EQ(offset, reference.payload.size());
            EXPECT_EQ(arena.wireBytes(spilled.ticket),
                      reference.effectiveBytes());
            EXPECT_EQ(transfers.prefetch(arena, spilled.ticket).value().data,
                      ByteVec(input.begin(), input.end()));
            arena.release(spilled.ticket);
            EXPECT_EQ(arena.stats().live_slot_bytes, 0u);
            EXPECT_EQ(arena.stats().live_payload_bytes, 0u);
        }
    }
}

TEST(TransferEngine, ArenaFlowsRunOnAnEdgelessRoute)
{
    // GPU and host on one node: the route has no edge, so the wire legs
    // cost nothing but any retry backoff, and both flows still work.
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.topology.graph = Topology::pcieLink(12.8e9);
    config.topology.gpu_node = 0;
    config.topology.host_node = 0;
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.4, 1 << 20, 12);
    SpillArena arena;
    const SpilledOffload spilled = roundTrip(transfers, arena, input);
    EXPECT_GT(spilled.shards.size(), 1u);
    EXPECT_DOUBLE_EQ(spilled.timing.wire_seconds, 0.0);
    EXPECT_DOUBLE_EQ(spilled.timing.overlapped_seconds,
                     spilled.timing.compress_seconds);
    const DuplexTiming race =
        transfers.duplexTiming(spilled.shards, spilled.shards);
    EXPECT_DOUBLE_EQ(race.contentionSeconds(), 0.0);
    arena.release(spilled.ticket);
}

TEST(TransferEngine, FullDuplexStepRacesOffloadAgainstPrefetch)
{
    // The steady-state training step: offload layer n+1's input while
    // prefetching layer n-1's out of the arena, both on one half-duplex
    // link. Restored bytes stay identical and both directions report
    // the contention the shared link imposed.
    const auto earlier = makeInput(0.5, (1 << 19) + 77, 31);
    const auto later = makeInput(0.3, (1 << 19) + 4096, 32);
    const CdmaEngine engine = makeEngine(2, DuplexMode::Half);
    const TransferEngine transfers(engine);
    SpillArena arena;

    const SpilledOffload first =
        transfers.offloadInto(earlier, arena).value();
    const SpilledOffload offload =
        transfers.offloadInto(later, arena).value();
    const PrefetchResult prefetch =
        transfers.prefetch(arena, first.ticket).value();
    EXPECT_EQ(prefetch.data, ByteVec(earlier.begin(), earlier.end()));
    arena.release(first.ticket);
    const DuplexTiming race =
        transfers.duplexTiming(offload.shards, prefetch.shards);

    const PrefetchResult second =
        transfers.prefetch(arena, offload.ticket).value();
    EXPECT_EQ(second.data, ByteVec(later.begin(), later.end()));
    arena.release(offload.ticket);

    // Wire-bound ZV-class shard trains on one link: the race must cost
    // someone something.
    EXPECT_GT(race.contentionSeconds(), 0.0);
    EXPECT_GT(race.makespan_seconds, 0.0);
    // Each flow priced its train alone; the race prices the same trains
    // on the shared link, so neither direction gets faster.
    EXPECT_GE(race.offload.overlapped_seconds,
              offload.timing.overlapped_seconds);
    EXPECT_GE(race.prefetch.overlapped_seconds,
              prefetch.timing.overlapped_seconds);
}

TEST(CdmaEngine, PlansCarryDuplexTiming)
{
    const uint64_t raw = 64ull << 20;

    // Full duplex: the duplex race's per-direction breakdowns coincide
    // with the independent single-direction pipelines.
    const CdmaEngine full = makeEngine(1, DuplexMode::Full);
    const TransferPlan full_plan = full.planFromRatio("map", raw, 2.5);
    EXPECT_GT(full_plan.duplex.offload.shard_count, 0u);
    EXPECT_NEAR(full_plan.duplex.offload.overlapped_seconds,
                full_plan.offload.overlapped_seconds,
                1e-9 * full_plan.offload.overlapped_seconds);
    EXPECT_NEAR(full_plan.duplex.prefetch.overlapped_seconds,
                full_plan.prefetch.overlapped_seconds,
                1e-9 * full_plan.prefetch.overlapped_seconds);
    EXPECT_DOUBLE_EQ(full_plan.duplex.contentionSeconds(), 0.0);

    // Half duplex: the race on the shared link shows up as contention
    // and stretches at least one direction past its solo makespan.
    const CdmaEngine half = makeEngine(1, DuplexMode::Half);
    const TransferPlan half_plan = half.planFromRatio("map", raw, 2.5);
    EXPECT_GT(half_plan.duplex.contentionSeconds(), 0.0);
    EXPECT_GT(half_plan.duplex.contentionStallFraction(), 0.0);
    EXPECT_GE(half_plan.duplex.makespan_seconds,
              std::max(half_plan.offload.overlapped_seconds,
                       half_plan.prefetch.overlapped_seconds));

    // Real-bytes planning carries the same surface.
    const auto input = makeInput(0.25, 1 << 20, 47);
    const TransferPlan real = half.planTransfer("real", input);
    EXPECT_GT(real.duplex.offload.shard_count, 0u);
    EXPECT_GT(real.duplex.contentionSeconds(), 0.0);

    // CompressionFree keeps the seed model: no duplex breakdown.
    CdmaConfig free_config;
    free_config.transfer.duplex_mode = DuplexMode::Half;
    const CdmaEngine free_engine(free_config);
    const TransferPlan free_plan =
        free_engine.planFromRatio("map", raw, 2.5);
    EXPECT_EQ(free_plan.duplex.offload.shard_count, 0u);
    EXPECT_DOUBLE_EQ(free_plan.duplex.makespan_seconds, 0.0);
}

TEST(CdmaEngine, PlanDuplexFollowsTheGraphsHalfDuplexEdge)
{
    // A configured graph's per-edge mode decides the race, not
    // TransferConfig::duplex_mode (left at Full here): one half-duplex
    // edge makes the plan's offload and prefetch contend.
    auto graph = std::make_shared<Topology>();
    const NodeId gpu = graph->addNode(NodeKind::Gpu, "gpu0");
    const NodeId host = graph->addNode(NodeKind::HostDram, "host");
    graph->connect(gpu, host, "pcie",
                   {16e9, DuplexMode::Half, LinkArbiter::RoundRobin});
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.topology.graph = graph;
    config.topology.gpu_node = gpu;
    config.topology.host_node = host;
    const CdmaEngine engine(config);

    const uint64_t raw = 64ull << 20;
    const TransferPlan plan = engine.planFromRatio("map", raw, 2.5);
    const DuplexTiming race =
        TransferEngine(engine).modelFromRatio(raw, 2.5, raw, 2.5);
    EXPECT_GT(plan.duplex.contentionSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(plan.duplex.makespan_seconds, race.makespan_seconds);
    EXPECT_DOUBLE_EQ(plan.duplex.contentionSeconds(),
                     race.contentionSeconds());
    EXPECT_GT(plan.duplex.makespan_seconds,
              std::max(plan.offload.overlapped_seconds,
                       plan.prefetch.overlapped_seconds));
}

TEST(CdmaEngine, OverlappedModeTimesPlansThroughThePipeline)
{
    const CdmaEngine overlapped = makeEngine(2);
    CdmaConfig free_config;
    free_config.compression.lanes = 2;
    const CdmaEngine free_engine(free_config);

    const uint64_t raw = 64ull << 20;
    const TransferPlan a = overlapped.planFromRatio("map", raw, 2.5);
    const TransferPlan b = free_engine.planFromRatio("map", raw, 2.5);

    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_DOUBLE_EQ(a.seconds, a.offload.overlapped_seconds);
    EXPECT_GT(a.offload.shard_count, 1u);
    EXPECT_GT(a.offload.overlap_fraction, 0.0);
    EXPECT_LE(a.offload.overlap_fraction, 1.0);
    // CompressionFree keeps the seed model: no pipeline breakdown.
    EXPECT_EQ(b.offload.shard_count, 0u);
    EXPECT_DOUBLE_EQ(b.offload.overlapped_seconds, 0.0);
    // Overlapped includes the compression fill, so it can only be
    // slower than a model that prices compression at zero — and by at
    // most the compression leg.
    EXPECT_GE(a.seconds, b.seconds);
    EXPECT_LE(a.seconds, b.seconds + a.offload.compress_seconds + 1e-12);

    // The plan prices the same train the engine's analytic model does.
    const OffloadTiming direct =
        TransferEngine(overlapped).modelFromRatio(raw, 2.5, 0, 1.0).offload;
    EXPECT_DOUBLE_EQ(a.offload.overlapped_seconds,
                     direct.overlapped_seconds);
}

TEST(CdmaEngine, DisabledCompressionBypassesThePipelineModel)
{
    // No cDMA engine in the path means no compression-fetch leg: a
    // disabled-compression engine must keep plain DMA occupancy even in
    // Overlapped mode.
    CdmaConfig config;
    config.compression.enabled = false;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const uint64_t raw = 32ull << 20;
    const TransferPlan plan = engine.planFromRatio("raw", raw, 3.0);
    EXPECT_EQ(plan.wire_bytes, raw);
    EXPECT_DOUBLE_EQ(plan.seconds, engine.transferSeconds(raw, 1.0));
    EXPECT_EQ(plan.offload.shard_count, 0u);
    EXPECT_EQ(plan.prefetch.shard_count, 0u);
}

TEST(CdmaEngine, OverlappedPlanTransferUsesMeasuredShardSizes)
{
    const CdmaEngine engine = makeEngine(4);
    const auto input = makeInput(0.25, (1 << 20), 47);
    const TransferPlan plan = engine.planTransfer("real", input);
    const CompressedBuffer reference = serialCompress(engine, input);
    EXPECT_EQ(plan.wire_bytes, reference.effectiveBytes());
    EXPECT_DOUBLE_EQ(plan.ratio, reference.effectiveRatio());
    EXPECT_DOUBLE_EQ(plan.seconds, plan.offload.overlapped_seconds);
    EXPECT_GT(plan.offload.overlap_fraction, 0.0);
}

TEST(CdmaEngine, OverlappedPlansCarryBothPipelineDirections)
{
    const CdmaEngine engine = makeEngine(2);
    const TransferEngine transfers(engine);
    // Exact multiple of the staging shard: a uniform train, where the
    // mirrored pipelines' makespans coincide exactly (a partial tail
    // breaks the symmetry by one sub-shard fill).
    const uint64_t shard_raw = transfers.shardWindows() *
        engine.config().compression.window_bytes;
    const uint64_t raw = 96 * shard_raw;
    const TransferPlan plan = engine.planFromRatio("map", raw, 2.5);

    EXPECT_GT(plan.prefetch.shard_count, 1u);
    EXPECT_EQ(plan.prefetch.shard_count, plan.offload.shard_count);
    EXPECT_GT(plan.prefetch.overlap_fraction, 0.0);
    EXPECT_LE(plan.prefetch.overlap_fraction, 1.0);
    // Same shards, mirrored stages: leg totals swap roles.
    EXPECT_NEAR(plan.prefetch.wire_seconds, plan.offload.wire_seconds,
                1e-12);
    EXPECT_NEAR(plan.prefetch.decompress_seconds,
                plan.offload.compress_seconds, 1e-12);
    EXPECT_NEAR(plan.prefetch.overlapped_seconds,
                plan.offload.overlapped_seconds,
                1e-9 * plan.offload.overlapped_seconds);
    const PrefetchTiming direct =
        transfers.modelFromRatio(0, 1.0, raw, 2.5).prefetch;
    EXPECT_DOUBLE_EQ(plan.prefetch.overlapped_seconds,
                     direct.overlapped_seconds);

    // Real-bytes planning models the prefetch over the measured shards.
    const auto input = makeInput(0.25, 1 << 20, 47);
    const TransferPlan real = engine.planTransfer("real", input);
    SpillArena arena;
    const SpilledOffload spilled =
        transfers.offloadInto(input, arena).value();
    EXPECT_DOUBLE_EQ(real.prefetch.overlapped_seconds,
                     transfers.duplexTiming({}, spilled.shards)
                         .prefetch.overlapped_seconds);
    arena.release(spilled.ticket);

    // CompressionFree keeps the seed model: no prefetch breakdown.
    CdmaConfig free_config;
    free_config.compression.lanes = 2;
    const TransferPlan free_plan =
        CdmaEngine(free_config).planFromRatio("map", raw, 2.5);
    EXPECT_EQ(free_plan.prefetch.shard_count, 0u);
    EXPECT_DOUBLE_EQ(free_plan.prefetch.overlapped_seconds, 0.0);
}

TEST(VdnnMemoryManager, PlannedOffloadsCarryOverlapTiming)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    const CdmaEngine engine = makeEngine(1);

    std::vector<double> ratios(net.layers.size(), 2.0);
    const auto plans = manager.plannedOffloads(engine, ratios);
    ASSERT_EQ(plans.size(), manager.offloadSchedule().size());
    for (size_t k = 0; k < plans.size(); ++k) {
        EXPECT_EQ(plans[k].raw_bytes, manager.offloadSchedule()[k].bytes);
        EXPECT_GT(plans[k].offload.shard_count, 0u);
        EXPECT_DOUBLE_EQ(plans[k].seconds,
                         plans[k].offload.overlapped_seconds);
    }
    // Row 0 carries the raw image batch: never compressed.
    EXPECT_DOUBLE_EQ(plans[0].ratio, 1.0);

    // The raw-DMA (vDNN baseline) flavour bypasses the pipeline model.
    const auto raw_plans =
        manager.plannedOffloads(engine, {}, /*raw_dma=*/true);
    for (const auto &plan : raw_plans) {
        EXPECT_EQ(plan.wire_bytes, plan.raw_bytes);
        EXPECT_EQ(plan.offload.shard_count, 0u);
    }

    // Staging buffers show up in the engine-aware footprint.
    const MemoryFootprint fp = manager.footprint(engine);
    EXPECT_EQ(fp.staging_bytes,
              2 * TransferEngine(engine).shardWindows() *
                  engine.config().compression.window_bytes);
    EXPECT_EQ(fp.vdnn_peak,
              manager.footprint().vdnn_peak + fp.staging_bytes);
}

TEST(VdnnMemoryManager, PlannedPrefetchesUseThePrefetchPipeline)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    const CdmaEngine engine = makeEngine(1);

    std::vector<double> ratios(net.layers.size(), 2.0);
    const auto offloads = manager.plannedOffloads(engine, ratios);
    const auto prefetches = manager.plannedPrefetches(engine, ratios);
    ASSERT_EQ(prefetches.size(), offloads.size());
    for (size_t k = 0; k < prefetches.size(); ++k) {
        // Reverse order, retimed to the prefetch makespan.
        const TransferPlan &off = offloads[offloads.size() - 1 - k];
        const TransferPlan &pre = prefetches[k];
        EXPECT_EQ(pre.label, off.label);
        EXPECT_GT(pre.prefetch.shard_count, 0u);
        EXPECT_DOUBLE_EQ(pre.seconds, pre.prefetch.overlapped_seconds);
    }

    // The raw-DMA (vDNN baseline) flavour keeps plain occupancy.
    const auto raw_prefetches =
        manager.plannedPrefetches(engine, {}, /*raw_dma=*/true);
    for (const auto &plan : raw_prefetches) {
        EXPECT_EQ(plan.prefetch.shard_count, 0u);
        EXPECT_DOUBLE_EQ(plan.seconds,
                         engine.transferSeconds(plan.raw_bytes, 1.0));
    }
}

TEST(VdnnMemoryManager, DuplexScheduleInterleavesBothDirections)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    const auto &offloads = manager.offloadSchedule();
    const auto schedule = manager.duplexSchedule();
    ASSERT_EQ(schedule.size(), 2 * offloads.size());
    for (size_t k = 0; k < offloads.size(); ++k) {
        // Offloads in forward order...
        EXPECT_EQ(schedule[k].direction, TransferDirection::Offload);
        EXPECT_EQ(schedule[k].op.layer_index, offloads[k].layer_index);
        EXPECT_EQ(schedule[k].op.bytes, offloads[k].bytes);
        // ...then prefetches in backward order, one per offload.
        const auto &pre = schedule[offloads.size() + k];
        EXPECT_EQ(pre.direction, TransferDirection::Prefetch);
        EXPECT_EQ(pre.op.layer_index,
                  offloads[offloads.size() - 1 - k].layer_index);
    }
}

TEST(StepSimulator, BackwardLegWaitsOnThePrefetchPipeline)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, 16);
    PerfModel perf;

    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const StepSimulator sim(manager, engine, perf, CudnnVersion::V5);

    std::vector<double> ratios(net.layers.size(), 2.0);
    const StepResult result = sim.run(StepMode::Cdma, ratios);
    bool saw_prefetch = false;
    for (const auto &layer : result.layers) {
        if (layer.offload.shard_count == 0)
            continue;
        saw_prefetch = true;
        EXPECT_GT(layer.prefetch.shard_count, 0u) << layer.label;
        EXPECT_DOUBLE_EQ(layer.prefetch_seconds,
                         layer.prefetch.overlapped_seconds)
            << layer.label;
    }
    EXPECT_TRUE(saw_prefetch);

    // vDNN mode (raw DMA) prices both directions identically.
    const StepResult vdnn = sim.run(StepMode::Vdnn);
    for (const auto &layer : vdnn.layers) {
        EXPECT_EQ(layer.prefetch.shard_count, 0u);
        EXPECT_DOUBLE_EQ(layer.prefetch_seconds, layer.offload_seconds);
    }
}

TEST(StepSimulator, HalfDuplexReportsContentionStall)
{
    const NetworkDesc net = allNetworkDescs().front();
    const VdnnMemoryManager manager(net, net.default_batch);
    PerfModel perf;

    // A link slow enough that the last layer's offload is guaranteed
    // to still be draining when its forward compute finishes: the
    // parked head prefetch then releases the boundary lookahead, and
    // already-resident maps race the tail offload on the link.
    CdmaConfig full_config;
    full_config.transfer.duplex_mode = DuplexMode::Full;
    full_config.gpu.pcie_effective_bandwidth = 2e9;
    const CdmaEngine full_engine(full_config);
    CdmaConfig half_config;
    half_config.transfer.duplex_mode = DuplexMode::Half;
    half_config.gpu.pcie_effective_bandwidth = 2e9;
    const CdmaEngine half_engine(half_config);

    const StepSimulator full_sim(manager, full_engine, perf,
                                 CudnnVersion::V5);
    const StepSimulator half_sim(manager, half_engine, perf,
                                 CudnnVersion::V5);

    const StepResult full = full_sim.run(StepMode::Vdnn);
    const StepResult half = half_sim.run(StepMode::Vdnn);

    // Independent directions never contend.
    EXPECT_DOUBLE_EQ(full.contentionStallFraction(), 0.0);
    EXPECT_DOUBLE_EQ(full.offload_contention_seconds, 0.0);

    // One shared link: the boundary race (tail offloads vs head
    // prefetches) must cost something, and the iteration cannot be
    // faster than with independent directions.
    EXPECT_GT(half.contentionStallFraction(), 0.0);
    EXPECT_GT(half.offload_contention_seconds +
                  half.prefetch_contention_seconds,
              0.0);
    EXPECT_GE(half.total_seconds, full.total_seconds - 1e-12);

    // Per-layer contention surfaces: some layer paid the race.
    double layer_contention = 0.0;
    bool saw_fraction = false;
    for (const auto &layer : half.layers) {
        layer_contention +=
            layer.offload_contention + layer.prefetch_contention;
        EXPECT_GE(layer.offload_contention, 0.0) << layer.label;
        EXPECT_GE(layer.prefetch_contention, 0.0) << layer.label;
        EXPECT_LE(layer.contentionStallFraction(), 1.0 + 1e-9)
            << layer.label;
        if (layer.contentionStallFraction() > 0.0)
            saw_fraction = true;
    }
    EXPECT_GT(layer_contention, 0.0);
    EXPECT_TRUE(saw_fraction);
    EXPECT_NEAR(layer_contention,
                half.offload_contention_seconds +
                    half.prefetch_contention_seconds,
                1e-9);
}

TEST(StepSimulator, DuplexInvariantsHoldAcrossModesAndArbiters)
{
    const NetworkDesc net = allNetworkDescs()[1];
    const VdnnMemoryManager manager(net, net.default_batch);
    PerfModel perf;
    const std::vector<double> ratios(net.layers.size(), 2.6);

    for (const DuplexMode mode : {DuplexMode::Full, DuplexMode::Half}) {
        for (const LinkArbiter arbiter :
             {LinkArbiter::RoundRobin, LinkArbiter::OffloadFirst,
              LinkArbiter::PrefetchFirst}) {
            CdmaConfig config;
            config.transfer.duplex_mode = mode;
            config.transfer.link_arbiter = arbiter;
            const CdmaEngine engine(config);
            const StepSimulator sim(manager, engine, perf,
                                    CudnnVersion::V5);
            const StepResult vdnn = sim.run(StepMode::Vdnn);
            const StepResult cdma = sim.run(StepMode::Cdma, ratios);
            const StepResult oracle = sim.run(StepMode::Oracle);
            // The paper's ordering relations survive the contended
            // timeline under every link configuration.
            EXPECT_LE(cdma.total_seconds, vdnn.total_seconds + 1e-12)
                << duplexModeName(mode) << "/"
                << linkArbiterName(arbiter);
            EXPECT_GE(cdma.total_seconds, oracle.total_seconds - 1e-12);
            EXPECT_NEAR(vdnn.total_seconds,
                        vdnn.forward_seconds + vdnn.backward_seconds,
                        1e-9 * vdnn.total_seconds);
            EXPECT_GE(vdnn.stall_seconds, -1e-12);
        }
    }
}

} // namespace
} // namespace cdma
