/**
 * @file
 * The compressing DMA engine (cDMA) — the paper's primary contribution
 * (Section V). The engine compresses activation maps on their way from
 * GPU DRAM to the PCIe DMA unit and decompresses on the way back,
 * shrinking the offload/prefetch traffic of virtualized DNN training.
 *
 * Two modeling constraints from the paper are applied to every transfer:
 *
 *  1. Fetch-bandwidth cap (Sections V-B, VI): generating compressed data
 *     at PCIe line rate requires reading compression_ratio x PCIe_BW from
 *     DRAM. The engine may use at most COMP_BW (200 GB/s of the 236 GB/s
 *     left over by compute); layers whose ratio demands more see their
 *     transfer latency inflated by (required / COMP_BW).
 *
 *  2. Store-raw fallback: windows that do not compress are sent raw, so a
 *     transfer never exceeds its uncompressed size.
 *
 * The software interface mirrors the proposed cudaMemcpyCompressed():
 * the plan returns the compressed size of the region along with the
 * modeled transfer time.
 */

#ifndef CDMA_CDMA_ENGINE_HH
#define CDMA_CDMA_ENGINE_HH

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "compress/compressor.hh"
#include "compress/parallel.hh"
#include "gpu/gpu_spec.hh"
#include "sim/channel.hh"
#include "sim/topology.hh"

namespace cdma {

namespace obs {
class MetricsRegistry;
} // namespace obs

class CodecPolicyEngine;
struct PolicyDecision;

/**
 * How a transfer plan accounts for compression latency.
 *
 * The seed model (CompressionFree) treats compression as instantaneous:
 * plan.seconds is PCIe occupancy with the Section VI fetch-bandwidth
 * inflation folded in as a multiplier. Overlapped replaces that
 * assumption with the double-buffered offload pipeline of Section V-C:
 * the buffer is cut into staging-sized shards, shard k+1 compresses
 * while shard k drains over PCIe, and plan.seconds becomes the pipeline
 * makespan — the fetch cap then *emerges* (a compression stage that
 * cannot feed the link at line rate becomes the pipeline bottleneck)
 * instead of being bolted on.
 */
enum class TimingMode {
    CompressionFree, ///< seed model: compression costs nothing
    Overlapped,      ///< double-buffered compress/transfer pipeline
};

/** Display name of a timing mode. */
std::string timingModeName(TimingMode mode);

/**
 * Bounded-retry policy for faulted shard crossings. A shard whose wire
 * crossing is damaged (CRC mismatch, truncation, link drop — see
 * sim::FaultInjector) is re-sent after an exponential backoff:
 * the k-th retry waits backoff_seconds * 2^(k-1). After
 * raw_fallback_after failed crossings the shard degrades to raw
 * framing (uncompressed payload, no decode step on the far side), the
 * robustness analogue of the paper's store-raw fallback. A shard that
 * fails max_attempts crossings surfaces Status::retryExhausted.
 */
struct RetryPolicy {
    /** Total crossings allowed per shard (first try + retries). */
    uint32_t max_attempts = 4;
    /** Backoff before the first retry; doubles each further retry. */
    double backoff_seconds = 2e-6;
    /** Failed crossings before the shard degrades to raw framing. */
    uint32_t raw_fallback_after = 2;
};

/**
 * Integrity and retry accounting of one transfer (or one accumulated
 * schedule step). attempts counts wire crossings, so attempts ==
 * shard_count on a fault-free transfer; every counter beyond that is
 * zero unless a fault injector is configured.
 */
struct TransferIntegrity {
    uint64_t attempts = 0;      ///< wire crossings (first tries + retries)
    uint64_t retries = 0;       ///< crossings repeated after a fault
    uint64_t crc_failures = 0;  ///< crossings rejected by the CRC check
    uint64_t link_faults = 0;   ///< crossings lost or truncated in flight
    uint64_t degraded_shards = 0; ///< shards downgraded to raw framing
    uint64_t failed_wire_bytes = 0; ///< wire bytes of failed crossings
    /** Modeled seconds lost to re-sent bytes and retry backoff. */
    double retry_stall_seconds = 0.0;

    /** Fold another transfer's accounting into this one. */
    void accumulate(const TransferIntegrity &other)
    {
        attempts += other.attempts;
        retries += other.retries;
        crc_failures += other.crc_failures;
        link_faults += other.link_faults;
        degraded_shards += other.degraded_shards;
        failed_wire_bytes += other.failed_wire_bytes;
        retry_stall_seconds += other.retry_stall_seconds;
    }
};

/**
 * Timing of one offloaded buffer under the double-buffered pipeline
 * model. All times are modeled seconds (compression fetches raw bytes at
 * COMP_BW; the wire drains store-raw-floored bytes at effective PCIe
 * bandwidth).
 */
struct OffloadTiming {
    double compress_seconds = 0.0; ///< sum of per-shard compression times
    double wire_seconds = 0.0;     ///< sum of per-shard wire times
    /**
     * Portion of wire_seconds spent re-sending faulted crossings plus
     * their exponential backoff (zero without a fault injector). The
     * retry sequence holds the shard's DMA transaction slot, so the
     * stall is priced inside the shard's wire leg on the DES timeline.
     */
    double retry_stall_seconds = 0.0;
    /** Pipeline makespan: first byte fetched to last byte on the wire. */
    double overlapped_seconds = 0.0;
    /** Fraction of the hideable (shorter) leg actually hidden, in [0,1]. */
    double overlap_fraction = 0.0;
    uint64_t shard_count = 0; ///< staging shards the buffer was cut into

    /** What the same transfer costs with no overlap at all. */
    double serializedSeconds() const
    {
        return compress_seconds + wire_seconds;
    }

    /** Latency hidden by the pipeline relative to serialization. */
    double hiddenSeconds() const
    {
        return serializedSeconds() - overlapped_seconds;
    }
};

/**
 * Timing of one prefetched buffer under the double-buffered pipeline
 * model — the mirror image of OffloadTiming for the backward direction:
 * compressed shards cross PCIe at effective wire bandwidth while the
 * decompression engine re-inflates the previously landed shard, writing
 * raw bytes back to DRAM at COMP_BW (the paper provisions the DPE
 * replicas symmetrically, Section V-B).
 */
struct PrefetchTiming {
    double wire_seconds = 0.0;       ///< sum of per-shard wire times
    double decompress_seconds = 0.0; ///< sum of per-shard expand times
    /** Re-sent-crossing service plus backoff inside wire_seconds (zero
     *  without a fault injector); see OffloadTiming. */
    double retry_stall_seconds = 0.0;
    /** Pipeline makespan: first wire byte to last byte re-inflated. */
    double overlapped_seconds = 0.0;
    /** Fraction of the hideable (shorter) leg actually hidden, in [0,1]. */
    double overlap_fraction = 0.0;
    uint64_t shard_count = 0; ///< staging shards the buffer arrives in

    /** What the same prefetch costs with no overlap at all. */
    double serializedSeconds() const
    {
        return wire_seconds + decompress_seconds;
    }

    /** Latency hidden by the pipeline relative to serialization. */
    double hiddenSeconds() const
    {
        return serializedSeconds() - overlapped_seconds;
    }
};

/**
 * Finalize @p timing's overlap fraction in [0,1]: the share of the
 * hideable (shorter) leg actually hidden. One shared rule — the 1e-9
 * pin between the uncontended pricing recurrence and the duplex DES
 * depends on both finalizing identically.
 */
inline void
finalizeOverlapFraction(OffloadTiming &timing)
{
    const double hideable =
        std::min(timing.compress_seconds, timing.wire_seconds);
    timing.overlap_fraction = hideable > 0.0
        ? std::clamp(timing.hiddenSeconds() / hideable, 0.0, 1.0)
        : 0.0;
}

/** Prefetch-leg mirror of finalizeOverlapFraction(OffloadTiming&). */
inline void
finalizeOverlapFraction(PrefetchTiming &timing)
{
    const double hideable =
        std::min(timing.wire_seconds, timing.decompress_seconds);
    timing.overlap_fraction = hideable > 0.0
        ? std::clamp(timing.hiddenSeconds() / hideable, 0.0, 1.0)
        : 0.0;
}

/**
 * Timing of one full-duplex transfer step: an offload shard train and a
 * prefetch shard train racing on the same PCIe link (the Figure 2(b)
 * overlap of layer n+1's offload with layer n-1's prefetch). The
 * per-direction breakdowns keep their single-direction shapes; the
 * contention fields record how long each direction's wire transfers
 * waited while the link served the opposing direction (nonzero only
 * under DuplexMode::Half, where both directions share one link).
 */
struct DuplexTiming {
    /** Offload leg (compress, then wire out) on the contended link. */
    OffloadTiming offload;
    /** Prefetch leg (wire in, then decompress) on the contended link. */
    PrefetchTiming prefetch;
    /** Both directions drained: max of the per-direction makespans. */
    double makespan_seconds = 0.0;
    /** Offload wire waits caused by prefetch occupancy of the link. */
    double offload_contention_seconds = 0.0;
    /** Prefetch wire waits caused by offload occupancy of the link. */
    double prefetch_contention_seconds = 0.0;

    /** Total cross-direction wire wait. */
    double contentionSeconds() const
    {
        return offload_contention_seconds + prefetch_contention_seconds;
    }

    /** Fraction of the duplex makespan lost to contention, in [0,1]. */
    double contentionStallFraction() const
    {
        return makespan_seconds > 0.0
            ? std::min(1.0, contentionSeconds() / makespan_seconds)
            : 0.0;
    }
};

/**
 * How the engine picks the codec for each transfer. Both modes run the
 * same codec bank (one compressor per Codec on one lane pool), and an
 * explicit per-transfer codec override is honored in both; the mode
 * only decides whether the engine asks its policy. Fixed (the
 * historical behavior) uses CompressionConfig::algorithm. Adaptive
 * consults CompressionConfig::policy per transfer: the
 * CodecPolicyEngine prices ZVC/RLE/ZL/raw from the layer's observed
 * density and the wire, and the engine compresses with whatever won —
 * per-shard codec tags make the decode side follow along.
 */
enum class CodecMode {
    Fixed,    ///< always CompressionConfig::algorithm
    Adaptive, ///< per-transfer cost-model choice via the policy engine
};

/** Display name of a codec mode ("fixed", "adaptive"). */
std::string codecModeName(CodecMode mode);

/** Codec configuration of the cDMA engine. */
struct CompressionConfig {
    Algorithm algorithm = Algorithm::Zvc;
    uint64_t window_bytes = 4096;
    /** When false the engine degrades to a plain (vDNN) DMA copy. */
    bool enabled = true;
    /**
     * Software lanes the engine compresses and expands real bytes on,
     * mirroring the hardware's replicated compression and
     * decompression pipelines (Section V-B). The count includes the
     * calling thread, which works shards alongside lanes - 1 pool
     * workers, and the same lanes serve every codec and both legs:
     * planTransfer, the offload flows and the prefetch flows. 1 =
     * serial; 0 = one lane per hardware thread.
     */
    unsigned lanes = 1;
    /**
     * Kernel backend for the codec's primitive hot ops (mask/compact,
     * run scans). nullptr = the process-wide runtime dispatch
     * (activeKernels(): CPUID with the CDMA_KERNEL_BACKEND override).
     * The engine's compression lanes all share this one decision.
     */
    const KernelOps *kernels = nullptr;
    /** Fixed codec (algorithm above) or per-transfer adaptive choice. */
    CodecMode mode = CodecMode::Fixed;
    /**
     * The adaptive policy engine (non-owning; the caller keeps it alive
     * for the engine's lifetime — it holds the per-layer density/
     * hysteresis state, so sharing one across engines shares that
     * state). Required when mode == Adaptive; ignored under Fixed.
     */
    CodecPolicyEngine *policy = nullptr;
};

/** Transfer-pipeline configuration of the cDMA engine. */
struct TransferConfig {
    /** Compression-latency model for planned transfers. */
    TimingMode timing_mode = TimingMode::CompressionFree;
    /**
     * Staging-shard size of the offload pipeline, rounded down to whole
     * compression windows. 0 derives it from the paper's bandwidth-delay
     * DMA buffer (GpuSpec::dmaBufferBytes(), 70 KB at 200 GB/s x 350 ns).
     */
    uint64_t shard_bytes = 0;
    /** Staging buffers in flight; 2 = classic double buffering. */
    unsigned staging_buffers = 2;
    /**
     * How the offload and prefetch directions share the PCIe link.
     * Full (the default, PCIe's nominal operating point) gives each
     * direction the effective bandwidth independently — the historical
     * behavior where the two pipelines never contended. Half serializes
     * both directions on one shared link, so an offload shard train and
     * a prefetch shard train in flight together slow each other down.
     */
    DuplexMode duplex_mode = DuplexMode::Full;
    /** Which pending direction a contended link serves next. */
    LinkArbiter link_arbiter = LinkArbiter::RoundRobin;
    /**
     * GPU-memory budget for the step simulator's boundary prefetch
     * lookahead, in bytes. At the forward/backward boundary the head
     * prefetch is parked behind its own draining offload; rather than
     * idle the inbound link, the simulator issues further prefetches in
     * backward order. With a budget set, it issues as many as fit —
     * every map vDNN freed during forward can land back as soon as the
     * link allows, so the natural setting is the freed working set
     * (MemoryFootprint::freedBytes()). 0 means the capacity is not
     * modeled: the simulator falls back to the fixed staging_buffers-1
     * lookahead (the pre-capacity behavior, pinned by tests as the
     * degenerate case).
     */
    uint64_t prefetch_lookahead_bytes = 0;
    /**
     * Optional link fault process (non-owning; the caller keeps the
     * injector alive for the engine's lifetime). When set, the arena
     * transfer flows sample per-crossing damage from it — detected by
     * the CRC-32C shard framing and repaired by RetryPolicy — and the
     * plans price the same process in expectation, folded into the
     * shard train they price. nullptr = a perfect link (the historical
     * behavior). Applied to every edge of the configured topology.
     */
    sim::FaultInjector *fault_injector = nullptr;
    /** Retry/backoff/degradation policy for faulted crossings. */
    RetryPolicy retry;
};

/**
 * Interconnect the engine's wire legs ride on. By default (null graph)
 * the engine models the historical two-endpoint PCIe link, built from
 * GpuSpec::pcie_effective_bandwidth and the TransferConfig duplex
 * mode/arbiter — the degenerate two-node graph, so every transfer
 * already goes through the topology path. A configured graph routes the
 * wire legs from gpu_node to host_node across whatever switches sit
 * between them (per-edge bandwidth/duplex/arbiter from the graph).
 */
struct TopologyConfig {
    /** Interconnect graph; nullptr = two-node GPU—host PCIe link. */
    std::shared_ptr<const Topology> graph;
    /** This engine's GPU endpoint in the graph. */
    NodeId gpu_node = 0;
    /** The host-DRAM endpoint transfers terminate at. */
    NodeId host_node = 1;
};

/**
 * Observability hooks of the cDMA engine. Only the metrics registry
 * rides here: histograms record durations, which are origin-agnostic,
 * so they aggregate correctly across the many independent t=0 event
 * queues the engine's planning paths spin up. A TraceRecorder needs one
 * coherent timeline and therefore attaches at the simulator level
 * instead (FleetSpec::trace, StepSimulator::setTrace).
 */
struct ObsConfig {
    /** Metrics sink (non-owning; nullptr = no metrics recorded). */
    obs::MetricsRegistry *metrics = nullptr;
};

/** Configuration of the cDMA engine. */
struct CdmaConfig {
    GpuSpec gpu;
    /** Codec: algorithm, window size, lanes, kernel backend. */
    CompressionConfig compression;
    /** Pipelines: timing mode, staging, duplex link, fault handling. */
    TransferConfig transfer;
    /** Interconnect the wire legs traverse. */
    TopologyConfig topology;
    /** Metrics hooks (trace recorders attach at the simulator level). */
    ObsConfig obs;
};

/**
 * Fold one transfer's integrity accounting into @p metrics as
 * `integrity.*` counters plus the `integrity.retry_stall_seconds`
 * histogram — the registry-backed replacement for hand-summed
 * TransferIntegrity scalars in harness code.
 */
void recordIntegrity(obs::MetricsRegistry &metrics,
                     const TransferIntegrity &integrity);

/** Outcome of planning one activation-map transfer. */
struct TransferPlan {
    std::string label;
    uint64_t raw_bytes = 0;   ///< uncompressed activation size
    uint64_t wire_bytes = 0;  ///< bytes actually crossing PCIe
    double ratio = 1.0;       ///< raw / wire
    /**
     * Modeled offload latency. CompressionFree: PCIe occupancy including
     * the cap penalty. Overlapped: the pipeline makespan
     * (offload.overlapped_seconds).
     */
    double seconds = 0.0;
    double required_fetch_bandwidth = 0.0; ///< ratio x PCIe bandwidth
    bool fetch_capped = false; ///< true when COMP_BW limited the transfer
    /** Pipeline breakdown; all zeros under TimingMode::CompressionFree. */
    OffloadTiming offload;
    /**
     * Prefetch-leg pipeline breakdown for restoring this map during
     * backward propagation (wire in, then decompress); all zeros under
     * TimingMode::CompressionFree, where the seed model prices both
     * directions identically at plan.seconds.
     */
    PrefetchTiming prefetch;
    /**
     * Full-duplex race of this map's offload against an equal-size
     * prefetch on the engine's route (the configured graph's per-edge
     * modes and arbiters, or CdmaConfig::duplex_mode / link_arbiter on
     * the default link): the per-direction makespans and the contention
     * stall each direction pays when both share a half-duplex edge.
     * All zeros under TimingMode::CompressionFree. On a route whose
     * every edge is full duplex, duplex.offload/duplex.prefetch
     * coincide with the single-direction breakdowns above.
     */
    DuplexTiming duplex;
    /**
     * Expected integrity accounting for the offload + prefetch round
     * trip under CdmaConfig::fault_injector. Without one, attempts
     * counts one crossing per shard and direction and every other
     * field is zero; all zeros under TimingMode::CompressionFree, which
     * has no shard pipeline to price retries on.
     */
    TransferIntegrity integrity;
    /**
     * Codec that framed (or will frame) this transfer. Under
     * CodecMode::Fixed this is the configured algorithm's codec; under
     * Adaptive it is whatever the policy chose for this layer this
     * iteration.
     */
    Codec codec = Codec::Zvc;
    /**
     * The policy's modeled compress + wire seconds for the chosen
     * codec (CodecPolicyEngine closed form, uncontended besides the
     * configured policy wire bandwidth). Zero when the plan did not go
     * through the adaptive path. Consumers compare this against the
     * engine's own (DES / pipeline) pricing to report
     * predicted-vs-actual cost error.
     */
    double policy_predicted_seconds = 0.0;
};

/** The compressing DMA engine model. */
class CdmaEngine
{
  public:
    explicit CdmaEngine(const CdmaConfig &config);

    /** Engine configuration. */
    const CdmaConfig &config() const { return config_; }

    /**
     * The bank's compressor for the configured algorithm: what a
     * transfer uses when neither the policy nor the caller picks a
     * codec.
     */
    const ParallelCompressor &compressor() const;

    /**
     * The bank's compressor for @p codec, in either codec mode. Every
     * entry shares the engine's window, kernel backend and lane pool.
     */
    const ParallelCompressor &compressorFor(Codec codec) const;

    /**
     * Serial decoder for @p codec: compressorFor(codec).serial(), so
     * the same window and kernel backend. The prefetch side dispatches
     * per *stored shard* tag, which under the adaptive policy can
     * differ shard to shard within one spill.
     */
    const Compressor &serialCodec(Codec codec) const;

    /** The adaptive policy engine (nullptr under CodecMode::Fixed). */
    CodecPolicyEngine *policy() const { return config_.compression.policy; }

    /** Kernel backend name the engine compresses with. */
    const char *backendName() const { return compressor().backendName(); }

    /**
     * Plan a transfer by compressing the actual bytes (the
     * cudaMemcpyCompressed() path).
     */
    TransferPlan planTransfer(const std::string &label,
                              std::span<const uint8_t> data) const;

    /**
     * Plan a transfer from a known raw size and compression ratio (the
     * analytic path used by the full-size network experiments, where the
     * ratio was measured on generated activation data).
     */
    TransferPlan planFromRatio(const std::string &label,
                               uint64_t raw_bytes, double ratio) const;

    /**
     * Plan a transfer from a known raw size and activation density (the
     * analytic path of the adaptive codec policy: no activation bytes
     * exist, so the policy prices codecs at @p density, its decision's
     * modeled ratio feeds planFromRatio, and the plan carries the
     * chosen codec + the policy's predicted cost). Requires
     * CodecMode::Adaptive with a configured policy; with compression
     * disabled it degrades to the raw plan like every other path.
     */
    TransferPlan planFromDensity(const std::string &label,
                                 uint64_t raw_bytes, double density) const;

    /**
     * PCIe occupancy of a transfer of @p wire_bytes compressed at
     * @p ratio, including the fetch-bandwidth inflation of Section VI.
     */
    double transferSeconds(uint64_t wire_bytes, double ratio) const;

    /**
     * The compression ratio above which the COMP_BW cap binds
     * (200 / 16 = 12.5x with default provisioning).
     */
    double capRatio() const;

  private:
    CdmaConfig config_;
    /** The lanes every bank entry borrows (CompressionConfig::lanes);
     *  null at one lane. Declared before bank_, so it outlives it. */
    std::unique_ptr<ThreadPool> pool_;
    /** One compressor per Codec, indexed by static_cast<size_t>(Codec). */
    std::vector<ParallelCompressor> bank_;
};

} // namespace cdma

#endif // CDMA_CDMA_ENGINE_HH
