/**
 * @file
 * Unified full-duplex transfer engine — one DMA engine arbitrating both
 * directions of the PCIe link, the way the paper's Figure 2(b) overlaps
 * the offload of layer n+1's input with the prefetch of layer n-1's and
 * the Figure 13 speedups assume the cDMA unit services both
 * concurrently. The engine owns one sim::EventQueue and one duplex
 * sim::Channel and runs BOTH double-buffered pipelines on it:
 *
 *   offload:  serial compression engine (COMP_BW) -> staging buffer ->
 *             wire out (DuplexChannel Direction::Out)
 *   prefetch: wire in (Direction::In) -> staging buffer ->
 *             serial decompression engine (COMP_BW)
 *
 * The compression and decompression engines are provisioned separately
 * (the paper's CPE vs DPE replicas, Section V-B), so they never contend
 * with each other — only the wire is shared, and only under
 * DuplexMode::Half, where the link arbiter (round-robin or fixed
 * priority) picks which pending direction's shard crosses next. With
 * the opposing direction idle the duplex DES degenerates exactly to the
 * single-direction pipelines that OffloadScheduler / PrefetchScheduler
 * model (their closed forms are pinned against it at 1e-9), so the two
 * direction schedulers are now thin facades over this engine, defined
 * at the bottom of this header — the one header to include for
 * transfer planning.
 *
 * Since the topology redesign the wire legs ride a Route through a
 * sim Topology graph instead of one hardwired DuplexChannel: the
 * default configuration routes over the degenerate two-node GPU—host
 * graph (identical event timeline, pins unmoved), and a configured
 * TopologyConfig routes them across switches and shared uplinks. The
 * DES core is DuplexPipeline, a restartable driver FleetSimulator
 * instantiates once per GPU on one shared LinkNetwork.
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

/** Outcome of one scheduled offload: data and modeled timing. */
struct OffloadResult {
    /** Compressed buffer, byte-identical to ParallelCompressor::compress. */
    CompressedBuffer buffer;
    /** Pipeline timing over the real per-shard compressed sizes. */
    OffloadTiming timing;
    /** Per-shard byte counts, in drain order. */
    std::vector<ShardTransfer> shards;
    /** Fault/retry accounting (expectation-priced on this flow). */
    TransferIntegrity integrity;
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
    /** Fault/retry accounting (sampled on the arena flow,
     *  expectation-priced on the buffer flow). */
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
 * The duplex DES core as a restartable driver: both double-buffered
 * pipelines of ONE engine, with the wire legs routed through a
 * LinkNetwork instead of a hardwired channel. Offload shards travel
 * the offload route (compress -> staging -> route out), prefetch
 * shards travel it reversed (route in -> staging -> expand). Several
 * pipelines can share one network/event queue — that is exactly a
 * fleet, and @p source tags this pipeline's wire legs so shared edges
 * attribute queueing waits across pipelines (RouteGrant's
 * cross_source_wait).
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

    // ---- Real-bytes flows (the direction schedulers delegate here) ----

    /**
     * Offload @p data: compress it shard-by-shard on the engine's lanes,
     * stitch the shards into a CompressedBuffer as they drain (in shard
     * order, while later shards are still compressing), and model the
     * double-buffered pipeline over the measured per-shard sizes.
     *
     * @p codec overrides the engine's fixed codec for this transfer
     * (the adaptive policy's choice — requires the engine's codec bank
     * when it differs from the fixed codec); nullopt = the engine's
     * configured compressor, the historical behavior.
     */
    OffloadResult offload(std::span<const uint8_t> data,
                          std::optional<Codec> codec = std::nullopt) const;

    /**
     * Offload @p data into @p arena: shards stream from the compression
     * lanes straight into recycled arena slots (no stitched
     * CompressedBuffer, no per-layer payload allocation in steady
     * state). The returned ticket holds the compressed activations
     * until the backward pass prefetches and releases them.
     *
     * With a fault injector configured, each shard's host-bound wire
     * crossing samples the fault process: damaged crossings are caught
     * by the length/CRC-32C framing checks and re-sent under the
     * engine's RetryPolicy (degrading to raw framing after repeated
     * failures). Returns Status::retryExhausted — with the partially
     * filled ticket released — when a shard burns every attempt.
     *
     * @p codec as in offload(): per-transfer override of the engine's
     * fixed codec. Every stored shard carries its codec tag, so spills
     * written with different overrides decode correctly side by side.
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
     * Prefetch @p buffer: reconstruct it shard-by-shard on the engine's
     * lanes (consumed in deterministic shard order) and model the
     * double-buffered pipeline over the measured per-shard sizes.
     * Decode errors (a corrupt or truncated payload) propagate as a
     * non-OK Status instead of crashing. The stitched buffer carries no
     * per-shard CRC framing, so a configured fault injector is priced
     * in expectation on this flow rather than sampled.
     */
    StatusOr<PrefetchResult> prefetch(const CompressedBuffer &buffer) const;

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

    /** Outcome of one full-duplex step: both real flows + the race. */
    struct DuplexResult {
        SpilledOffload offload;   ///< @p offload_data spilled to the arena
        PrefetchResult prefetch;  ///< @p prefetch_ticket restored
        /** Both measured shard trains raced on the configured link. */
        DuplexTiming timing;
    };

    /**
     * One steady-state training-loop step on the unified ticket flow:
     * compress and spill @p offload_data into @p arena while prefetching
     * (and expanding) @p prefetch_ticket out of it, with both measured
     * shard trains racing on the configured duplex link. The caller
     * releases the prefetched ticket once the restored bytes are
     * consumed. Fault handling follows the two underlying flows; the
     * first leg to exhaust its retries surfaces its Status.
     */
    StatusOr<DuplexResult> transfer(std::span<const uint8_t> offload_data,
                                    SpillArena &arena,
                                    SpillTicket prefetch_ticket) const;

    // ---- Timing models ----

    /**
     * The duplex race of two measured shard trains under this engine's
     * configuration (bandwidths, staging depth, duplex mode, arbiter).
     * Either train may be empty (single-direction degenerate case).
     */
    DuplexTiming duplexTiming(
        std::span<const ShardTransfer> offload_shards,
        std::span<const ShardTransfer> prefetch_shards) const;

    /**
     * Analytic duplex model: both directions cut into uniform staging
     * shards (plus a trailing partial) at their known compression
     * ratios, then raced through the duplex DES. Either direction may
     * be empty (raw_bytes = 0).
     */
    DuplexTiming modelFromRatio(uint64_t offload_raw, double offload_ratio,
                                uint64_t prefetch_raw,
                                double prefetch_ratio) const;

    /**
     * The core duplex DES: both double-buffered pipelines run on one
     * event queue, wire transfers of both directions submitted to a
     * DuplexChannel. Offload shard k's compression starts when the
     * serial compression engine AND an offload staging buffer are free;
     * its wire leg queues on Direction::Out. Prefetch shard k's wire
     * leg (Direction::In) starts when a prefetch staging buffer is
     * free; its expansion queues on the serial decompression engine.
     * Under DuplexMode::Half both directions serialize on the link and
     * @p arbiter breaks ties; under Full they never interact. The
     * per-direction staging pools are independent (@p staging_buffers
     * each).
     *
     * Retry pricing: a shard's wire leg carries its failed crossings
     * too (wire_bytes + failed_wire_bytes on the link) plus the
     * exponential backoff @p backoff_base_seconds * (2^(attempts-1) - 1)
     * as extra latency — the retry sequence holds the shard's DMA
     * transaction slot until it lands. Shards with attempts == 1 price
     * exactly as before, which keeps the schedulers' closed forms
     * pinned to this DES on fault-free trains.
     */
    static DuplexTiming pipelineTiming(
        std::span<const ShardTransfer> offload_shards,
        std::span<const ShardTransfer> prefetch_shards,
        double compress_bandwidth, double wire_bandwidth,
        double decompress_bandwidth, unsigned staging_buffers,
        DuplexMode mode, LinkArbiter arbiter,
        double backoff_base_seconds = 0.0);

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
    DuplexTiming timingFor(std::span<const ShardTransfer> offload_shards,
                           std::span<const ShardTransfer> prefetch_shards)
        const;

    const CdmaEngine &engine_;
    uint64_t shard_windows_;
};

// ---------------------------------------------------------------------
// Single-direction facades. Historically src/cdma/offload_scheduler.hh
// and prefetch_scheduler.hh; folded in here so transfer planning is one
// include. Each is the duplex TransferEngine viewed with the opposing
// direction idle, plus the allocation-free closed form of its pipeline
// (pinned against the duplex DES at 1e-9 by the scheduler tests).
// ---------------------------------------------------------------------

/**
 * Drives compression and models the double-buffered compress/transfer
 * pipeline for one cDMA engine (the offload-only view of the duplex
 * TransferEngine). For uniform shards (compression time c, wire time
 * w, n shards) the double-buffered makespan is n*max(c,w) + min(c,w);
 * modelFromRatio() extends that with the trailing-partial-shard and
 * single-staging-buffer cases.
 */
class OffloadScheduler
{
  public:
    explicit OffloadScheduler(const CdmaEngine &engine);

    /** Windows per staging shard (>= 1), from TransferConfig::shard_bytes. */
    uint64_t shardWindows() const { return engine_.shardWindows(); }

    /** See TransferEngine::offload(). */
    OffloadResult offload(std::span<const uint8_t> data) const;

    /** See TransferEngine::offloadInto(). */
    StatusOr<SpilledOffload> offloadInto(std::span<const uint8_t> data,
                                         SpillArena &arena) const;

    /**
     * Pipeline timing for a transfer of @p raw_bytes at a known
     * compression ratio: allocation-free closed form over uniform
     * staging shards plus a trailing partial. For n uniform shards
     * (compression time c, wire time w, tail c_t/w_t):
     *
     *   wire-bound  (w >= c): c + n*w + w_t
     *   comp-bound  (c >  w): n*c + max(c_t, w) + w_t
     *
     * one staging buffer serializes fully; the duplex DES
     * (TransferEngine::pipelineTiming) is the pinned reference.
     */
    OffloadTiming modelFromRatio(uint64_t raw_bytes, double ratio) const;

    /**
     * The single-direction pipeline reference: the duplex DES with the
     * prefetch direction idle, routed over the degenerate two-node
     * graph. Shard k's compression starts when the compression engine
     * AND a staging buffer are free; its wire transfer starts when its
     * compression ends and the channel is free (FIFO).
     */
    static OffloadTiming pipelineTiming(std::span<const ShardTransfer> shards,
                                        double compress_bandwidth,
                                        double wire_bandwidth,
                                        unsigned staging_buffers = 2);

  private:
    TransferEngine engine_;
};

/**
 * Drives decompression and models the double-buffered transfer/expand
 * pipeline for one cDMA engine (the prefetch-only view of the duplex
 * TransferEngine) — OffloadScheduler's mirror image for the backward
 * pass, with the stages swapped: wire in, then the serial DPE expands
 * while the next shard crosses.
 */
class PrefetchScheduler
{
  public:
    explicit PrefetchScheduler(const CdmaEngine &engine);

    /** Windows per staging shard (>= 1), from TransferConfig::shard_bytes. */
    uint64_t shardWindows() const { return engine_.shardWindows(); }

    /** See TransferEngine::prefetch(const CompressedBuffer &). */
    StatusOr<PrefetchResult> prefetch(const CompressedBuffer &buffer) const;

    /** See TransferEngine::prefetch(const SpillArena &, SpillTicket). */
    StatusOr<PrefetchResult> prefetch(const SpillArena &arena,
                                      SpillTicket ticket) const;

    /**
     * Closed-form prefetch timing of @p raw_bytes at @p ratio —
     * OffloadScheduler::modelFromRatio with the stages swapped (wire
     * first, then the serial decompression engine); pinned against the
     * duplex DES at 1e-9 by the scheduler tests.
     */
    PrefetchTiming modelFromRatio(uint64_t raw_bytes, double ratio) const;

    /**
     * The single-direction pipeline reference: the duplex DES with the
     * offload direction idle, routed over the degenerate two-node
     * graph. Shard k's wire transfer starts when the (FIFO) channel
     * AND a staging buffer are free; its decompression starts when its
     * last wire byte lands and the serial engine is free.
     */
    static PrefetchTiming pipelineTiming(
        std::span<const ShardTransfer> shards, double wire_bandwidth,
        double decompress_bandwidth, unsigned staging_buffers = 2);

  private:
    TransferEngine engine_;
};

} // namespace cdma

#endif // CDMA_CDMA_TRANSFER_ENGINE_HH
