/**
 * @file
 * Unified full-duplex transfer engine — one DMA engine driving both
 * directions of the PCIe link, the way the paper's Figure 2(b) overlaps
 * the offload of layer n+1's input with the prefetch of layer n-1's and
 * the Figure 13 speedups assume the cDMA unit services both
 * concurrently. Each direction is a double-buffered two-stage pipeline
 * (Section V-C):
 *
 *   offload:  serial compression engine (COMP_BW) -> staging buffer ->
 *             wire out along the engine's route
 *   prefetch: wire in along the route -> staging buffer ->
 *             serial decompression engine (COMP_BW)
 *
 * The compression and decompression engines are provisioned separately
 * (the paper's CPE vs DPE replicas, Section V-B), so they never contend
 * with each other — only the wire is shared, and only on a half-duplex
 * edge, where the link arbiter (round-robin or fixed priority) picks
 * which pending direction's shard crosses next.
 *
 * TransferEngine::duplexTiming is the one pricing entry point. A shard
 * train with nothing to contend with — either direction alone, or both
 * on a route whose every edge is full duplex — is priced by
 * uncontendedTiming(), an O(shards x hops) recurrence. Only two trains
 * racing for a half-duplex edge run the DES, DuplexPipeline, which also
 * stays the reference the recurrence is pinned against at 1e-9 and the
 * model FleetSimulator instantiates once per GPU on one shared
 * LinkNetwork.
 *
 * The wire legs ride a Route through a sim Topology graph: the default
 * configuration routes over the degenerate two-node GPU—host graph, and
 * a configured TopologyConfig routes them across switches and shared
 * uplinks.
 */

#ifndef CDMA_CDMA_TRANSFER_ENGINE_HH
#define CDMA_CDMA_TRANSFER_ENGINE_HH

#include <queue>
#include <span>
#include <vector>

#include "cdma/engine.hh"
#include "cdma/spill_arena.hh"
#include "common/status.hh"
#include "sim/topology.hh"

namespace cdma {

namespace obs {
class HistogramMetric;
class TraceRecorder;
} // namespace obs

/** Byte counts of one staging shard entering the pipeline model. */
struct ShardTransfer {
    uint64_t raw_bytes = 0;  ///< uncompressed bytes the shard covers
    uint64_t wire_bytes = 0; ///< store-raw-floored bytes put on the wire
    /** Wire crossings the shard took (1 = landed clean first try). */
    uint32_t attempts = 1;
    /** Wire bytes of the failed crossings (re-sent under RetryPolicy). */
    uint64_t failed_wire_bytes = 0;
    /** Shard was downgraded to raw framing after repeated faults. */
    bool degraded = false;
};

/** Outcome of an offload spilled into an arena instead of a buffer. */
struct SpilledOffload {
    /** Arena reference to the stored shards (caller releases it). */
    SpillTicket ticket = 0;
    /** Pipeline timing over the real per-shard compressed sizes. */
    OffloadTiming timing;
    /** Per-shard byte counts, in drain order. */
    std::vector<ShardTransfer> shards;
    /** Fault/retry accounting (sampled per crossing on this flow). */
    TransferIntegrity integrity;
};

/** Outcome of one scheduled prefetch: restored data and modeled timing. */
struct PrefetchResult {
    /** Reconstructed bytes, identical to the original offloaded buffer. */
    ByteVec data;
    /** Pipeline timing over the real per-shard compressed sizes. */
    PrefetchTiming timing;
    /** Per-shard byte counts, in arrival order. */
    std::vector<ShardTransfer> shards;
    /** Fault/retry accounting (sampled per crossing). */
    TransferIntegrity integrity;
};

/** Stage bandwidths and staging depth of one engine's pipelines. */
struct PipelineSpec {
    double compress_bandwidth = 0.0;   ///< serial CPE fetch rate
    double decompress_bandwidth = 0.0; ///< serial DPE writeback rate
    unsigned staging_buffers = 2;      ///< per-direction staging pool
    double backoff_base_seconds = 0.0; ///< retry backoff base (0 = none)
};

/**
 * Price one engine's shard trains when nothing contends with them: the
 * double-buffered pipelines as an O(shards x hops) recurrence over
 * @p route through @p topology, with a fixed number of allocations per
 * call and none per shard.
 *
 *  - Offload: a shard starts compressing once the serial compression
 *    engine and a staging buffer are free (a buffer frees when its
 *    shard lands, so shard k waits for shard k - staging_buffers on a
 *    route with an edge). Each edge of the route serves the wire leg
 *    FIFO, store-and-forward, in (wire_bytes + failed_wire_bytes) /
 *    rate plus the edge's latency; the retry backoff,
 *    base * (2^(attempts-1) - 1), rides on the first edge (the retry
 *    sequence holds the shard's DMA slot until it lands). That is what
 *    LinkNetwork charges a routed transfer.
 *  - Prefetch: shards enter the reversed route in order, each once a
 *    staging buffer is free (a buffer frees when its shard finishes
 *    expanding); the serial decompression engine expands shards in
 *    the order they land.
 *  - A route with no edge (GPU and host on one node) costs no edge
 *    time; the backoff still counts, as LinkNetwork::submit prices it.
 *
 * Either train may be empty. With both present each is priced on its
 * own, which is exact when they cannot meet: every edge of the route
 * full duplex. The result carries every DuplexTiming field with zero
 * contention, and @p metrics (optional) receives the same
 * `transfer.{offload,prefetch}.shard_latency_seconds` samples the DES
 * records. DuplexPipeline is the reference this is pinned against.
 */
DuplexTiming uncontendedTiming(const Topology &topology, const Route &route,
                               std::span<const ShardTransfer> offload_shards,
                               std::span<const ShardTransfer> prefetch_shards,
                               const PipelineSpec &spec,
                               obs::MetricsRegistry *metrics = nullptr);

/**
 * The duplex DES core as a restartable driver: both double-buffered
 * pipelines of ONE engine, with the wire legs routed through a
 * LinkNetwork instead of a hardwired channel. Offload shards travel
 * the offload route (compress -> staging -> route out), prefetch
 * shards travel it reversed (route in -> staging -> expand). Several
 * pipelines can share one network/event queue — that is exactly a
 * fleet, and @p source tags this pipeline's wire legs so shared edges
 * attribute queueing waits across pipelines (RouteGrant's
 * cross_source_wait). Stages and retries are priced as in
 * uncontendedTiming(); what only the DES adds is contention, between
 * the two directions on a half-duplex edge and between pipelines on a
 * shared one.
 *
 * Usage: construct, start(), run the network's event queue (once, even
 * with many pipelines started), then collect().
 */
class DuplexPipeline
{
  public:
    DuplexPipeline(LinkNetwork &network, Route offload_route,
                   std::vector<ShardTransfer> offload_shards,
                   std::vector<ShardTransfer> prefetch_shards,
                   const PipelineSpec &spec, unsigned source = 0);

    /**
     * Attach observability sinks (both non-owning, either may be null);
     * call before start(). With a trace recorder, the pipeline emits
     * per-shard "compress"/"expand" spans and wire "landed"/"retry"
     * instants onto the @p name process's stage tracks ("compress",
     * "wire.out", "wire.in", "expand") — wire legs are instants here,
     * not spans, because a multi-hop route's [first-hop start, last-hop
     * end] windows can partially overlap (full per-edge spans live on
     * the LinkNetwork's edge tracks). With a metrics registry, every
     * shard's end-to-end wire latency lands in the
     * `transfer.{offload,prefetch}.shard_latency_seconds` histograms.
     */
    void setObservers(obs::TraceRecorder *trace,
                      obs::MetricsRegistry *metrics,
                      const std::string &name);

    /** Schedule the initial events; the caller runs the queue. */
    void start();

    /** Both shard trains fully drained (valid after the queue ran). */
    bool done() const;

    /** Per-direction timing breakdown; call after the queue drained. */
    DuplexTiming collect() const;

    /** Cross-pipeline wait this pipeline's wire legs paid on shared
     *  edges (sum of RouteGrant::cross_source_wait, both directions). */
    SimTime crossSourceWaitSeconds() const { return cross_source_wait_; }

    /** Completion time of this pipeline's last drained event. */
    SimTime lastDrain() const
    {
        return std::max(last_off_drain_, last_expand_);
    }

  private:
    void startCompress();
    void startWire();
    void startExpand();

    /** Emit the "landed" (and, on retried shards, "retry") instants of
     *  one drained wire leg; no-op without a trace recorder. */
    void traceWireGrant(uint32_t track, size_t shard,
                        const ShardTransfer &xfer, const RouteGrant &grant);

    LinkNetwork &network_;
    Route offload_route_;
    Route prefetch_route_;
    std::vector<ShardTransfer> offload_shards_;
    std::vector<ShardTransfer> prefetch_shards_;
    PipelineSpec spec_;
    unsigned source_;

    // Offload pipeline state (compress -> staging -> route out).
    size_t off_next_ = 0;
    size_t off_in_flight_ = 0; ///< shards holding an offload buffer
    bool compressing_ = false; ///< the compression engine is serial
    SimTime last_off_drain_ = 0.0;

    // Prefetch pipeline state (route in -> staging -> expand).
    size_t pre_next_ = 0;
    size_t pre_in_flight_ = 0; ///< shards holding a prefetch buffer
    bool expanding_ = false;   ///< the decompression engine is serial
    std::queue<size_t> landed_; ///< arrived shards awaiting expansion
    SimTime last_expand_ = 0.0;
    size_t off_done_ = 0;
    size_t pre_done_ = 0;

    // Wire accounting accumulated from the grants.
    SimTime off_wire_seconds_ = 0.0;
    SimTime pre_wire_seconds_ = 0.0;
    SimTime off_contention_ = 0.0;
    SimTime pre_contention_ = 0.0;
    SimTime cross_source_wait_ = 0.0;

    // Observability sinks (see setObservers; all null = zero cost).
    obs::TraceRecorder *trace_ = nullptr;
    uint32_t compress_track_ = 0;
    uint32_t wire_out_track_ = 0;
    uint32_t wire_in_track_ = 0;
    uint32_t expand_track_ = 0;
    obs::HistogramMetric *off_latency_hist_ = nullptr;
    obs::HistogramMetric *pre_latency_hist_ = nullptr;
};

/**
 * Drives real compression/decompression for both PCIe directions and
 * models them racing on one (possibly shared) link.
 */
class TransferEngine
{
  public:
    explicit TransferEngine(const CdmaEngine &engine);

    /** Windows per staging shard (>= 1), from CdmaConfig::shard_bytes. */
    uint64_t shardWindows() const { return shard_windows_; }

    /** The cDMA engine this transfer engine drives. */
    const CdmaEngine &cdma() const { return engine_; }

    // ---- Real-bytes flows ----

    /**
     * Offload @p data into @p arena: the spill reserves one room sized
     * for every window's worst case, and the compression lanes write
     * their shards straight into it (no per-shard payload, no copy, no
     * per-layer allocation in steady state); the calling thread commits
     * each shard's real size in shard order. The returned ticket holds
     * the compressed activations until the backward pass prefetches and
     * releases them.
     *
     * With a fault injector configured, each shard's host-bound wire
     * crossing samples the fault process: damaged crossings are caught
     * by the length/CRC-32C framing checks and re-sent under the
     * engine's RetryPolicy (after repeated failures the shard is
     * rewritten to raw framing in place). Returns
     * Status::retryExhausted when a shard burns every attempt. On that
     * and every other exit but success (an exception rethrown from a
     * lane included) the spill and its room are released.
     *
     * @p codec overrides the engine's configured codec for this
     * transfer (the adaptive policy's choice), in either codec mode;
     * nullopt = the engine's configured compressor. Every stored shard
     * carries its codec tag, so spills written with different
     * overrides decode correctly side by side.
     */
    StatusOr<SpilledOffload>
    offloadInto(std::span<const uint8_t> data, SpillArena &arena,
                std::optional<Codec> codec = std::nullopt) const;

    /**
     * offloadInto() against a two-tier arena: identical flow, and the
     * spill is sealed on success — making it eligible for FIFO
     * eviction to the arena's backing (SSD) tier under host-capacity
     * pressure.
     */
    StatusOr<SpilledOffload>
    offloadInto(std::span<const uint8_t> data, TieredSpillArena &arena,
                std::optional<Codec> codec = std::nullopt) const;

    /**
     * Prefetch a spilled buffer straight out of @p arena's shard slots
     * (no stitched CompressedBuffer in between). The ticket stays live;
     * the caller releases it once the restored bytes are consumed.
     *
     * The spill's framing is checked whole first: a shard whose windows
     * fall outside the spill or disagree with its payload, or shards
     * that do not tile the spill's windows in order, return
     * Status::corrupt before any crossing is sampled or any byte is
     * written. Shards then verify and expand on every lane of the
     * engine's compressor (the calling thread included): each payload
     * is verified against its stored CRC-32C before expansion
     * (Status::integrityError on mismatch). With a fault injector
     * configured, each GPU-bound crossing samples the fault process on
     * the calling thread, in shard order; faulted crossings re-read the
     * pristine arena slot under the RetryPolicy, so the restored bytes
     * stay byte-identical to the offloaded data whenever the prefetch
     * succeeds. The first error in shard order is returned, and the
     * counters, the fault draws and the Status are the same at every
     * lane count.
     */
    StatusOr<PrefetchResult> prefetch(const SpillArena &arena,
                                      SpillTicket ticket) const;

    /**
     * Arena prefetch against a two-tier arena: an evicted spill is
     * first promoted back to the host tier (the SSD -> host readback,
     * counted in the arena's tierStats), then expanded exactly like
     * the single-tier flow.
     */
    StatusOr<PrefetchResult> prefetch(TieredSpillArena &arena,
                                      SpillTicket ticket) const;

    // ---- Timing models ----

    /**
     * Price two measured shard trains under this engine's configuration
     * (bandwidths, staging depth, route, duplex modes, arbiter). Either
     * train may be empty. Trains that cannot meet — one of them empty,
     * or every edge of the route full duplex — go through
     * uncontendedTiming(); both trains on a route with a half-duplex
     * edge race in the DES (DuplexPipeline). Shard latencies land in
     * the engine's metrics registry, if one is configured.
     */
    DuplexTiming duplexTiming(
        std::span<const ShardTransfer> offload_shards,
        std::span<const ShardTransfer> prefetch_shards) const;

    /**
     * Analytic duplex model: both directions cut into uniform staging
     * shards (plus a trailing partial) at their known compression
     * ratios (see shardTrain()), then priced by duplexTiming(). Either
     * direction may be empty (raw_bytes = 0).
     */
    DuplexTiming modelFromRatio(uint64_t offload_raw, double offload_ratio,
                                uint64_t prefetch_raw,
                                double prefetch_ratio) const;

    /**
     * Shard train of a raw_bytes transfer at ratio (uniform + tail).
     * With a fault injector configured the train carries the fault
     * process in expectation (see applyExpectedFaults()).
     */
    std::vector<ShardTransfer> shardTrain(uint64_t raw_bytes,
                                          double ratio) const;

    /**
     * Fault-free shard train of @p raw_bytes cut into uniform
     * @p shard_raw_bytes shards (plus a trailing partial) at @p ratio,
     * with the per-shard wire bytes store-raw-floored the way the
     * real flows truncate them. The engine-free building block fleet
     * scenarios use to fabricate per-GPU trains.
     */
    static std::vector<ShardTransfer> uniformShardTrain(
        uint64_t raw_bytes, double ratio, uint64_t shard_raw_bytes);

    /**
     * Fold the configured fault process into @p shards analytically:
     * each shard's attempts / failed_wire_bytes become the expectation
     * under the injector's per-crossing failure probability and the
     * engine's RetryPolicy. No RNG draws — the sampled streams of the
     * arena flows are untouched. No-op without an injector.
     */
    void applyExpectedFaults(std::vector<ShardTransfer> &shards) const;

    /** Sum a shard train's attempts / retries / failed wire bytes. */
    static TransferIntegrity trainIntegrity(
        std::span<const ShardTransfer> shards);

  private:
    const CdmaEngine &engine_;
    uint64_t shard_windows_;
    /** Stage bandwidths, staging depth and retry backoff of the
     *  engine's pipelines. */
    PipelineSpec spec_;
    /** The configured graph, or the two-node GPU—host PCIe link. */
    std::shared_ptr<const Topology> topology_;
    /** GPU -> host route the offload leg takes (prefetch reverses it). */
    Route route_;
    /** Some edge of route_ is half duplex: two trains can contend. */
    bool contended_route_ = false;
};

} // namespace cdma

#endif // CDMA_CDMA_TRANSFER_ENGINE_HH
