/**
 * @file
 * Tests for shard-train pricing: the uncontended recurrence
 * (uncontendedTiming) pinned field by field against the duplex DES
 * (DuplexPipeline) on random trains, staging depths, routes and retry
 * folds; its analytic steady states; and the contention properties that
 * only the DES models (half-duplex races and their arbiters).
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"

namespace cdma {
namespace {

/** A topology plus the GPU -> host route the engine's offloads take. */
struct RoutedGraph {
    std::shared_ptr<const Topology> topology;
    Route route;
};

/** The two-node GPU—host PCIe link at 12.8 GB/s. */
RoutedGraph
pcieLink(DuplexMode mode = DuplexMode::Full,
         LinkArbiter arbiter = LinkArbiter::RoundRobin)
{
    auto topology = Topology::pcieLink(12.8e9, mode, arbiter);
    Route route = topology->route(topology->firstNode(NodeKind::Gpu),
                                  topology->firstNode(NodeKind::HostDram));
    return {std::move(topology), std::move(route)};
}

/** GPU -> switch -> switch -> host: three full-duplex edges with
 *  distinct rates and per-edge latencies. */
RoutedGraph
threeHopGraph()
{
    auto topology = std::make_shared<Topology>();
    const NodeId gpu = topology->addNode(NodeKind::Gpu, "gpu0");
    const NodeId leaf = topology->addNode(NodeKind::PcieSwitch, "leaf");
    const NodeId spine = topology->addNode(NodeKind::PcieSwitch, "spine");
    const NodeId host = topology->addNode(NodeKind::HostDram, "host");
    topology->connect(gpu, leaf, "pcie", {16e9, DuplexMode::Full,
                                          LinkArbiter::RoundRobin, 1e-6});
    topology->connect(leaf, spine, "uplink",
                      {9e9, DuplexMode::Full, LinkArbiter::RoundRobin,
                       0.5e-6});
    topology->connect(spine, host, "host", {24e9, DuplexMode::Full,
                                            LinkArbiter::RoundRobin,
                                            0.25e-6});
    Route route = topology->route(gpu, host);
    return {std::move(topology), std::move(route)};
}

PipelineSpec
makeSpec(unsigned staging_buffers, double backoff_base_seconds = 0.0)
{
    PipelineSpec spec;
    spec.compress_bandwidth = 200e9;
    spec.decompress_bandwidth = 200e9;
    spec.staging_buffers = staging_buffers;
    spec.backoff_base_seconds = backoff_base_seconds;
    return spec;
}

/** The DES reference: both trains raced on one fresh network. */
DuplexTiming
desTiming(const RoutedGraph &graph, std::span<const ShardTransfer> offload,
          std::span<const ShardTransfer> prefetch, const PipelineSpec &spec,
          obs::MetricsRegistry *metrics = nullptr)
{
    EventQueue queue;
    LinkNetwork network(queue, *graph.topology);
    DuplexPipeline pipeline(network, graph.route,
                            {offload.begin(), offload.end()},
                            {prefetch.begin(), prefetch.end()}, spec);
    pipeline.setObservers(nullptr, metrics, "");
    pipeline.start();
    queue.run();
    return pipeline.collect();
}

DuplexTiming
recurrence(const RoutedGraph &graph, std::span<const ShardTransfer> offload,
           std::span<const ShardTransfer> prefetch, const PipelineSpec &spec,
           obs::MetricsRegistry *metrics = nullptr)
{
    return uncontendedTiming(*graph.topology, graph.route, offload,
                             prefetch, spec, metrics);
}

/** Mixed shard train; with @p faults, about a third of the shards
 *  retried 1-3 times (re-sent bytes and backoff). */
std::vector<ShardTransfer>
makeShards(size_t n, uint64_t seed, bool faults = false)
{
    Rng rng(seed);
    std::vector<ShardTransfer> shards;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t raw = 4096 + 4096 * rng.uniformInt(16);
        ShardTransfer shard{raw, raw / (1 + rng.uniformInt(8))};
        if (faults && rng.bernoulli(0.35)) {
            shard.attempts = static_cast<uint32_t>(2 + rng.uniformInt(3));
            shard.failed_wire_bytes =
                (shard.attempts - 1) * shard.wire_bytes;
        }
        shards.push_back(shard);
    }
    return shards;
}

void
expectTime(double actual, double expected, const std::string &what)
{
    EXPECT_NEAR(actual, expected, 1e-9 * std::abs(expected)) << what;
}

/** Every DuplexTiming field: 1e-9 relative for times, absolute for
 *  fractions, exact for counts. */
void
expectSameTiming(const DuplexTiming &actual, const DuplexTiming &expected,
                 const std::string &what)
{
    EXPECT_EQ(actual.offload.shard_count, expected.offload.shard_count)
        << what;
    expectTime(actual.offload.compress_seconds,
               expected.offload.compress_seconds, what + " compress");
    expectTime(actual.offload.wire_seconds, expected.offload.wire_seconds,
               what + " offload wire");
    expectTime(actual.offload.retry_stall_seconds,
               expected.offload.retry_stall_seconds,
               what + " offload stall");
    expectTime(actual.offload.overlapped_seconds,
               expected.offload.overlapped_seconds,
               what + " offload makespan");
    EXPECT_NEAR(actual.offload.overlap_fraction,
                expected.offload.overlap_fraction, 1e-9)
        << what;
    EXPECT_EQ(actual.prefetch.shard_count, expected.prefetch.shard_count)
        << what;
    expectTime(actual.prefetch.wire_seconds,
               expected.prefetch.wire_seconds, what + " prefetch wire");
    expectTime(actual.prefetch.decompress_seconds,
               expected.prefetch.decompress_seconds, what + " expand");
    expectTime(actual.prefetch.retry_stall_seconds,
               expected.prefetch.retry_stall_seconds,
               what + " prefetch stall");
    expectTime(actual.prefetch.overlapped_seconds,
               expected.prefetch.overlapped_seconds,
               what + " prefetch makespan");
    EXPECT_NEAR(actual.prefetch.overlap_fraction,
                expected.prefetch.overlap_fraction, 1e-9)
        << what;
    expectTime(actual.makespan_seconds, expected.makespan_seconds,
               what + " makespan");
    EXPECT_EQ(actual.offload_contention_seconds,
              expected.offload_contention_seconds)
        << what;
    EXPECT_EQ(actual.prefetch_contention_seconds,
              expected.prefetch_contention_seconds)
        << what;
}

TEST(UncontendedTiming, MatchesTheDesFieldByField)
{
    // Random trains of unequal shards, each direction alone and both
    // together under full duplex, on a one-edge link, a three-hop route
    // and an edgeless route (GPU and host on one node, where landings
    // can overtake each other once backoffs differ), with and without
    // retries: every DuplexTiming field and the shard-latency samples
    // must match the DES.
    RoutedGraph edgeless = pcieLink();
    edgeless.route = edgeless.topology->route(0, 0);
    ASSERT_TRUE(edgeless.route.empty());
    const std::vector<std::pair<const char *, RoutedGraph>> graphs = {
        {"two-node", pcieLink()},
        {"three-hop", threeHopGraph()},
        {"edgeless", edgeless},
    };
    for (const auto &[name, graph] : graphs) {
        for (const unsigned buffers : {1u, 2u, 3u, 5u}) {
            for (const bool faults : {false, true}) {
                // Distinct engine rates, so a swapped field shows.
                PipelineSpec spec = makeSpec(buffers, faults ? 2e-6 : 0.0);
                spec.decompress_bandwidth = 180e9;
                const auto off = makeShards(19, buffers, faults);
                const auto pre = makeShards(23, 100 + buffers, faults);
                const std::vector<ShardTransfer> none;
                for (const auto &[o, p] :
                     {std::pair{&off, &none}, std::pair{&none, &pre},
                      std::pair{&off, &pre}}) {
                    const std::string what = std::string(name) + " " +
                        std::to_string(buffers) + " buffers, " +
                        std::to_string(o->size()) + "/" +
                        std::to_string(p->size()) + " shards" +
                        (faults ? ", retries" : "");
                    obs::MetricsRegistry des_metrics;
                    obs::MetricsRegistry our_metrics;
                    const DuplexTiming des =
                        desTiming(graph, *o, *p, spec, &des_metrics);
                    const DuplexTiming ours =
                        recurrence(graph, *o, *p, spec, &our_metrics);
                    expectSameTiming(ours, des, what);
                    for (const char *hist :
                         {"transfer.offload.shard_latency_seconds",
                          "transfer.prefetch.shard_latency_seconds"}) {
                        EXPECT_EQ(our_metrics.histogram(hist).count(),
                                  des_metrics.histogram(hist).count())
                            << what << " " << hist;
                    }
                }
            }
        }
    }
}

TEST(UncontendedTiming, UniformTrainsMatchTheDes)
{
    // What the analytic plans price: uniform staging shards plus a
    // partial tail, from one sub-shard map to 64 shards and a tail, at
    // ratios on both sides of the fetch cap and at every staging depth
    // including the fully serialized single buffer. The engine's
    // modelFromRatio (the recurrence) against the DES on the same train.
    for (const unsigned buffers : {1u, 2u, 3u}) {
        for (const uint64_t shard_bytes : {0ull, 4096ull, 3 * 4096ull}) {
            CdmaConfig config;
            config.transfer.shard_bytes = shard_bytes;
            config.transfer.staging_buffers = buffers;
            config.transfer.timing_mode = TimingMode::Overlapped;
            const CdmaEngine engine(config);
            const TransferEngine transfers(engine);
            const uint64_t shard_raw =
                transfers.shardWindows() * config.compression.window_bytes;
            PipelineSpec spec;
            spec.compress_bandwidth = config.gpu.comp_bandwidth;
            spec.decompress_bandwidth = config.gpu.comp_bandwidth;
            spec.staging_buffers = buffers;
            auto topology =
                Topology::pcieLink(config.gpu.pcie_effective_bandwidth);
            const RoutedGraph link{topology, topology->route(0, 1)};

            for (const double ratio : {1.0, 2.5, 7.3, 12.5, 40.0}) {
                for (const uint64_t raw :
                     {uint64_t{1}, shard_raw / 2, shard_raw,
                      shard_raw + 1, 3 * shard_raw,
                      7 * shard_raw + shard_raw / 3,
                      64 * shard_raw + 4097}) {
                    const auto train = TransferEngine::uniformShardTrain(
                        raw, ratio, shard_raw);
                    expectSameTiming(
                        transfers.modelFromRatio(raw, ratio, raw, ratio),
                        desTiming(link, train, train, spec),
                        "raw=" + std::to_string(raw) + " ratio=" +
                            std::to_string(ratio) + " buffers=" +
                            std::to_string(buffers));
                }
            }
        }
    }
}

TEST(UncontendedTiming, SteadyStatesAreNTimesTheSlowerStagePlusTheFaster)
{
    // Uniform shards, double buffered: each leg's makespan is one fill
    // of the faster stage plus n times the slower one,
    //   n * max(c, w) + min(c, w),
    // and all but the pipeline-fill shard of the faster leg is hidden.
    const RoutedGraph link = pcieLink();
    const PipelineSpec spec = makeSpec(2);
    const uint64_t raw = 1 << 20;
    for (const uint64_t wire_bytes : {raw / 4, raw / 64}) {
        const size_t n = 16;
        const std::vector<ShardTransfer> train(n, {raw, wire_bytes});
        const DuplexTiming timing = recurrence(link, train, train, spec);
        const double stage = static_cast<double>(raw) / 200e9;
        const double wire = static_cast<double>(wire_bytes) / 12.8e9;
        const double steady =
            n * std::max(stage, wire) + std::min(stage, wire);
        const double hidden = static_cast<double>(n - 1) / n;
        EXPECT_NEAR(timing.offload.overlapped_seconds, steady,
                    1e-9 * steady);
        EXPECT_NEAR(timing.prefetch.overlapped_seconds, steady,
                    1e-9 * steady);
        EXPECT_NEAR(timing.offload.compress_seconds, n * stage,
                    1e-9 * n * stage);
        EXPECT_NEAR(timing.offload.wire_seconds, n * wire, 1e-9 * n * wire);
        EXPECT_NEAR(timing.prefetch.decompress_seconds, n * stage,
                    1e-9 * n * stage);
        EXPECT_NEAR(timing.offload.overlap_fraction, hidden, 1e-9);
        EXPECT_NEAR(timing.prefetch.overlap_fraction, hidden, 1e-9);
    }
}

TEST(UncontendedTiming, MatchesTheTextbookRecurrence)
{
    // Mixed shards at several staging depths on one edge: the serial
    // engine, the FIFO wire, and shard k waiting for shard k - buffers
    // (to land on the offload side, to finish expanding on the
    // prefetch side).
    const RoutedGraph link = pcieLink();
    PipelineSpec spec = makeSpec(1);
    spec.decompress_bandwidth = 180e9;
    const double comp = spec.compress_bandwidth;
    const double decomp = spec.decompress_bandwidth;
    const auto shards = makeShards(23, 404);
    const size_t n = shards.size();
    for (const unsigned buffers : {1u, 2u, 3u, 5u}) {
        std::vector<double> stage_end(n), wire_end(n), expand_end(n),
            in_end(n);
        for (size_t k = 0; k < n; ++k) {
            const double raw = static_cast<double>(shards[k].raw_bytes);
            const double wire =
                static_cast<double>(shards[k].wire_bytes) / 12.8e9;
            double start = k > 0 ? stage_end[k - 1] : 0.0;
            if (k >= buffers)
                start = std::max(start, wire_end[k - buffers]);
            stage_end[k] = start + raw / comp;
            wire_end[k] = std::max(stage_end[k],
                                   k > 0 ? wire_end[k - 1] : 0.0) +
                wire;

            start = k > 0 ? in_end[k - 1] : 0.0;
            if (k >= buffers)
                start = std::max(start, expand_end[k - buffers]);
            in_end[k] = start + wire;
            expand_end[k] = std::max(in_end[k],
                                     k > 0 ? expand_end[k - 1] : 0.0) +
                raw / decomp;
        }
        spec.staging_buffers = buffers;
        const DuplexTiming timing = recurrence(link, shards, shards, spec);
        EXPECT_NEAR(timing.offload.overlapped_seconds, wire_end[n - 1],
                    1e-9 * wire_end[n - 1])
            << buffers << " staging buffers";
        EXPECT_NEAR(timing.prefetch.overlapped_seconds, expand_end[n - 1],
                    1e-9 * expand_end[n - 1])
            << buffers << " staging buffers";
        // More staging can only help, and never beats full overlap.
        EXPECT_LE(timing.offload.overlapped_seconds,
                  timing.offload.serializedSeconds() + 1e-12);
        EXPECT_GE(timing.offload.overlapped_seconds,
                  std::max(timing.offload.compress_seconds,
                           timing.offload.wire_seconds) -
                      1e-12);
    }
}

TEST(UncontendedTiming, SingleShardHasNoOverlapAndZeroBytesCostNothing)
{
    const RoutedGraph link = pcieLink();
    const std::vector<ShardTransfer> one = {{4096, 1024}};
    const DuplexTiming single = recurrence(link, one, one, makeSpec(2));
    EXPECT_DOUBLE_EQ(single.offload.overlapped_seconds,
                     single.offload.serializedSeconds());
    EXPECT_DOUBLE_EQ(single.prefetch.overlapped_seconds,
                     single.prefetch.serializedSeconds());
    EXPECT_DOUBLE_EQ(single.offload.overlap_fraction, 0.0);
    EXPECT_DOUBLE_EQ(single.prefetch.overlap_fraction, 0.0);
    EXPECT_EQ(single.offload.shard_count, 1u);

    const DuplexTiming empty = recurrence(link, {}, {}, makeSpec(2));
    EXPECT_EQ(empty.offload.shard_count, 0u);
    EXPECT_EQ(empty.prefetch.shard_count, 0u);
    EXPECT_DOUBLE_EQ(empty.makespan_seconds, 0.0);

    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const DuplexTiming zero =
        TransferEngine(engine).modelFromRatio(0, 2.0, 0, 2.0);
    EXPECT_EQ(zero.offload.shard_count, 0u);
    EXPECT_DOUBLE_EQ(zero.offload.overlapped_seconds, 0.0);
    EXPECT_DOUBLE_EQ(zero.prefetch.overlapped_seconds, 0.0);
}

TEST(DuplexPipeline, IdleDirectionReducesToTheRecurrence)
{
    // With the opposing direction idle the DES reduces to the
    // uncontended recurrence under both duplex modes and every
    // arbiter, none of which may matter with one direction idle.
    const auto train = makeShards(29, 7);
    for (const DuplexMode mode : {DuplexMode::Half, DuplexMode::Full}) {
        for (const LinkArbiter arbiter :
             {LinkArbiter::RoundRobin, LinkArbiter::OffloadFirst,
              LinkArbiter::PrefetchFirst}) {
            const RoutedGraph link = pcieLink(mode, arbiter);
            const std::string what = std::string(duplexModeName(mode)) +
                "/" + linkArbiterName(arbiter);
            const PipelineSpec spec = makeSpec(2);
            expectSameTiming(desTiming(link, train, {}, spec),
                             recurrence(link, train, {}, spec),
                             what + " offload");
            expectSameTiming(desTiming(link, {}, train, spec),
                             recurrence(link, {}, train, spec),
                             what + " prefetch");
        }
    }
}

TEST(DuplexPipeline, ConservationBusyTimeBoundedByMakespan)
{
    // Sum of per-direction wire busy time never exceeds the duplex
    // makespan times the number of directions — and under half duplex
    // (one shared link) it is bounded by the makespan alone.
    for (const DuplexMode mode : {DuplexMode::Half, DuplexMode::Full}) {
        for (const unsigned buffers : {1u, 2u, 3u}) {
            for (const uint64_t seed : {1ull, 2ull, 3ull}) {
                const auto off_shards = makeShards(17, seed);
                const auto pre_shards = makeShards(23, seed + 100);
                const DuplexTiming timing =
                    desTiming(pcieLink(mode), off_shards, pre_shards,
                              makeSpec(buffers));
                const double wire_busy = timing.offload.wire_seconds +
                    timing.prefetch.wire_seconds;
                if (mode == DuplexMode::Half) {
                    EXPECT_LE(wire_busy,
                              timing.makespan_seconds + 1e-12);
                } else {
                    EXPECT_LE(wire_busy,
                              2.0 * timing.makespan_seconds + 1e-12);
                }
                // Each direction's makespan bounds the duplex makespan
                // from below and is itself at least its busy legs' max.
                EXPECT_GE(timing.makespan_seconds,
                          timing.offload.overlapped_seconds - 1e-12);
                EXPECT_GE(timing.makespan_seconds,
                          timing.prefetch.overlapped_seconds - 1e-12);
                // Contention only exists on a shared link.
                if (mode == DuplexMode::Full) {
                    EXPECT_DOUBLE_EQ(timing.contentionSeconds(), 0.0);
                }
            }
        }
    }
}

TEST(DuplexPipeline, HalfDuplexContendsAndFullDuplexDoesNot)
{
    // Identical symmetric trains in both directions, wire-bound so the
    // link is the bottleneck: under half duplex each direction must be
    // slower than it would be alone and report nonzero contention;
    // under full duplex both match the single-direction timelines
    // exactly.
    const uint64_t raw = 1 << 20;
    const std::vector<ShardTransfer> train(
        16, {raw, static_cast<uint64_t>(raw / 2.5)});
    const PipelineSpec spec = makeSpec(2);

    const DuplexTiming alone =
        desTiming(pcieLink(DuplexMode::Half), train, {}, spec);
    const DuplexTiming full =
        desTiming(pcieLink(DuplexMode::Full), train, train, spec);
    const DuplexTiming half =
        desTiming(pcieLink(DuplexMode::Half), train, train, spec);

    EXPECT_DOUBLE_EQ(full.offload.overlapped_seconds,
                     alone.offload.overlapped_seconds);
    EXPECT_DOUBLE_EQ(full.contentionSeconds(), 0.0);

    EXPECT_GT(half.offload.overlapped_seconds,
              alone.offload.overlapped_seconds);
    EXPECT_GT(half.contentionSeconds(), 0.0);
    EXPECT_GT(half.contentionStallFraction(), 0.0);
    EXPECT_LE(half.contentionStallFraction(), 1.0);
    // A shared wire-bound link serving two equal trains takes about
    // twice as long as either train alone.
    EXPECT_GT(half.makespan_seconds,
              1.8 * alone.offload.overlapped_seconds);
}

TEST(DuplexPipeline, RoundRobinIsFairUnderSymmetricLoad)
{
    // Equal trains in both directions under round-robin: the two
    // directions' makespans and contention shares must come out (near)
    // symmetric — neither direction starves.
    const uint64_t raw = 1 << 20;
    const std::vector<ShardTransfer> train(
        12, {raw, static_cast<uint64_t>(raw / 3.0)});
    const DuplexTiming timing =
        desTiming(pcieLink(DuplexMode::Half), train, train, makeSpec(2));

    const double off = timing.offload.overlapped_seconds;
    const double pre = timing.prefetch.overlapped_seconds;
    EXPECT_NEAR(off, pre, 0.10 * std::max(off, pre));
    // Both directions pay contention, in comparable shares (a transfer
    // can wait out several opposing grants, so the per-direction sums
    // are bounded by the race's length, not the opposing wire total).
    EXPECT_GT(timing.offload_contention_seconds, 0.0);
    EXPECT_GT(timing.prefetch_contention_seconds, 0.0);
    EXPECT_NEAR(timing.offload_contention_seconds,
                timing.prefetch_contention_seconds,
                0.25 * std::max(timing.offload_contention_seconds,
                                timing.prefetch_contention_seconds));
}

TEST(DuplexPipeline, PriorityArbiterFavorsItsDirection)
{
    const uint64_t raw = 1 << 20;
    const std::vector<ShardTransfer> train(
        12, {raw, static_cast<uint64_t>(raw / 3.0)});
    const PipelineSpec spec = makeSpec(2);
    const DuplexTiming off_first = desTiming(
        pcieLink(DuplexMode::Half, LinkArbiter::OffloadFirst), train,
        train, spec);
    const DuplexTiming pre_first = desTiming(
        pcieLink(DuplexMode::Half, LinkArbiter::PrefetchFirst), train,
        train, spec);
    // The favored direction finishes earlier than it does when the
    // other direction is favored.
    EXPECT_LT(off_first.offload.overlapped_seconds,
              pre_first.offload.overlapped_seconds);
    EXPECT_LT(pre_first.prefetch.overlapped_seconds,
              off_first.prefetch.overlapped_seconds);
}

} // namespace
} // namespace cdma
