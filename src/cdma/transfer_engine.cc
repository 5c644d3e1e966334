#include "cdma/transfer_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <queue>

#include "common/bits.hh"
#include "common/logging.hh"
#include "compress/kernels/kernels.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"

namespace cdma {

namespace {

/** Total exponential backoff of a shard that took @p attempts
 *  crossings: base, 2*base, ... summing to base * (2^(attempts-1) - 1). */
double
backoffSeconds(uint32_t attempts, double base)
{
    if (attempts <= 1 || base <= 0.0)
        return 0.0;
    return base * (std::ldexp(1.0, static_cast<int>(attempts) - 1) - 1.0);
}

/**
 * Receiver-side view of one sampled crossing: applies @p outcome to a
 * scratch copy of @p payload and runs the same length + CRC-32C framing
 * checks a clean landing passes, charging the appropriate counter for
 * rejected crossings. Returns true when the payload landed usable.
 * (A lost or short crossing is rejected by the framing length before
 * any CRC work; bit flips are what the CRC catches — CRC-32C detects
 * every error of fewer than 4 flipped bits at these payload sizes, so
 * the fall-through "damage evaded detection" arm is unreachable in
 * practice but kept honest.)
 */
bool
crossingLanded(const sim::FaultOutcome &outcome,
               std::span<const uint8_t> payload, uint32_t expected_crc,
               const KernelOps &kernels, TransferIntegrity &integrity)
{
    if (outcome.clean())
        return true;
    if (outcome.link_failed || outcome.truncated) {
        ++integrity.link_faults;
        return false;
    }
    ByteVec scratch(payload.begin(), payload.end());
    for (size_t i = 0; i < outcome.flip_offsets.size(); ++i)
        scratch[outcome.flip_offsets[i]] ^= outcome.flip_masks[i];
    if (kernels.crc32(0, scratch.data(), scratch.size()) !=
        expected_crc) {
        ++integrity.crc_failures;
        return false;
    }
    return true;
}

/**
 * Downgrade @p shard to raw framing: the payload becomes the shard's
 * uncompressed source bytes (no decode step can fail on the far side),
 * the per-window sizes become raw sizes, and the CRC is re-framed over
 * the new payload — the robustness analogue of store-raw.
 */
void
degradeToRaw(CompressedShard &shard, std::span<const uint8_t> data,
             uint64_t window_bytes, const KernelOps &kernels)
{
    const uint64_t begin = shard.first_window * window_bytes;
    shard.payload.assign(
        data.begin() + static_cast<ptrdiff_t>(begin),
        data.begin() + static_cast<ptrdiff_t>(begin + shard.raw_bytes));
    uint64_t remaining = shard.raw_bytes;
    for (uint32_t &size : shard.window_sizes) {
        size = static_cast<uint32_t>(
            std::min<uint64_t>(window_bytes, remaining));
        remaining -= size;
    }
    shard.raw_framed = true;
    shard.crc32c =
        kernels.crc32(0, shard.payload.data(), shard.payload.size());
}

/**
 * Emit the pseudo-clock instant of one rejected crossing on the arena
 * flows (no DES timeline exists there); no-op without a recorder. The
 * cause mirrors crossingLanded()'s rejection order: lost/short
 * crossings are link faults, surviving damage is a CRC failure.
 */
void
traceRejectedCrossing(obs::TraceRecorder *trace, const char *flow,
                      const sim::FaultOutcome &outcome, size_t shard,
                      uint32_t attempt)
{
    if (trace == nullptr)
        return;
    const uint32_t track = trace->track("integrity", flow);
    const char *cause = (outcome.link_failed || outcome.truncated)
        ? "link_fault"
        : "crc_failure";
    trace->instant(track, cause, trace->tick(),
                   obs::TraceArgs{{"shard", shard}, {"attempt", attempt}});
}

/** Spill-completion hook of the arena flows: a plain SpillArena has no
 *  notion of completion; a tiered one seals the spill, making it
 *  eligible for eviction to its backing tier. */
void
sealSpill(SpillArena &, SpillTicket)
{
}

void
sealSpill(TieredSpillArena &arena, SpillTicket ticket)
{
    arena.seal(ticket);
}

} // namespace

TransferEngine::TransferEngine(const CdmaEngine &engine)
    : engine_(engine)
{
    const CdmaConfig &config = engine.config();
    const uint64_t shard_bytes = config.transfer.shard_bytes > 0
        ? config.transfer.shard_bytes
        : config.gpu.dmaBufferBytes();
    shard_windows_ = std::max<uint64_t>(1, shard_bytes /
                                               config.compression.window_bytes);
    CDMA_ASSERT(config.transfer.staging_buffers >= 1,
                "the transfer pipelines need at least one staging buffer");
}

OffloadResult
TransferEngine::offload(std::span<const uint8_t> data,
                        std::optional<Codec> codec_override) const
{
    const CdmaConfig &config = engine_.config();
    const ParallelCompressor &compressor = codec_override
        ? engine_.compressorFor(*codec_override)
        : engine_.compressor();
    OffloadResult result;
    result.buffer.original_bytes = data.size();
    result.buffer.window_bytes = config.compression.window_bytes;
    result.buffer.codec = compressor.codecTag();

    const uint64_t windows = ceilDiv(data.size(), config.compression.window_bytes);
    result.buffer.window_sizes.reserve(windows);
    result.shards.reserve(ceilDiv(windows, shard_windows_));
    // Whole-buffer worst case reserved once, so the per-shard payload
    // appends below never reallocate (mirrors Compressor::compress).
    if (windows > 0) {
        const Compressor &codec = compressor.serial();
        result.buffer.payload.reserve(
            (windows - 1) * codec.compressedBound(config.compression.window_bytes) +
            codec.compressedBound(data.size() -
                                  (windows - 1) * config.compression.window_bytes));
    }

    // The consumer is the staging drain: it runs on this thread in shard
    // order while the lanes compress later shards, appending each shard's
    // payload to the stitched buffer and recording its wire size for the
    // pipeline model.
    compressor.compressShards(
        data, shard_windows_, [&](CompressedShard &&shard) {
            result.shards.push_back(
                {shard.raw_bytes,
                 shard.effectiveBytes(config.compression.window_bytes)});
            result.buffer.payload.insert(result.buffer.payload.end(),
                                         shard.payload.begin(),
                                         shard.payload.end());
            result.buffer.window_sizes.insert(
                result.buffer.window_sizes.end(),
                shard.window_sizes.begin(), shard.window_sizes.end());
        });

    // The stitched buffer carries no per-shard CRC framing, so a
    // configured fault process is priced in expectation here; the
    // arena flow (offloadInto) samples it crossing by crossing.
    applyExpectedFaults(result.shards);
    result.integrity = trainIntegrity(result.shards);
    result.timing = timingFor(result.shards, {}).offload;
    result.integrity.retry_stall_seconds =
        result.timing.retry_stall_seconds;
    return result;
}

namespace {

/**
 * The streaming offload drain, generic over the spill store (plain
 * SpillArena or the two-tier TieredSpillArena — both expose the same
 * beginSpill / appendShard / release surface). Uses only the engine's
 * public API so the template can live at file scope.
 */
template <typename Arena>
StatusOr<SpilledOffload>
offloadIntoArena(const TransferEngine &te, std::span<const uint8_t> data,
                 Arena &arena, std::optional<Codec> codec_override)
{
    const CdmaEngine &engine = te.cdma();
    const CdmaConfig &config = engine.config();
    const ParallelCompressor &compressor = codec_override
        ? engine.compressorFor(*codec_override)
        : engine.compressor();
    sim::FaultInjector *injector = config.transfer.fault_injector;
    const RetryPolicy &retry = config.transfer.retry;
    const KernelOps &kernels = compressor.serial().kernels();
    const uint64_t shard_windows = te.shardWindows();

    SpilledOffload result;
    result.ticket = arena.beginSpill(data.size(), config.compression.window_bytes);
    result.shards.reserve(
        ceilDiv(ceilDiv(data.size(), config.compression.window_bytes),
                shard_windows));

    // Same drain as offload(), but each shard lands in a recycled arena
    // slot instead of growing a stitched payload vector. The drain is
    // also where the shard crosses the wire, so the fault process (if
    // any) is sampled here, crossing by crossing: a damaged crossing is
    // caught by the length/CRC framing checks and re-sent, degrading to
    // raw framing and finally giving up per the RetryPolicy. The drain
    // runs serially on this thread in shard order, which keeps the
    // injector's draw sequence deterministic.
    Status fault_error;
    compressor.compressShards(
        data, shard_windows, [&](CompressedShard &&shard) {
            if (!fault_error.ok())
                return; // an earlier shard burned its retry budget
            ShardTransfer xfer;
            xfer.raw_bytes = shard.raw_bytes;
            xfer.wire_bytes = shard.effectiveBytes(config.compression.window_bytes);
            uint32_t attempts = 0;
            while (injector != nullptr) {
                ++attempts;
                const sim::FaultOutcome outcome =
                    injector->sample(shard.payload.size());
                if (crossingLanded(outcome, shard.payload, shard.crc32c,
                                   kernels, result.integrity)) {
                    break;
                }
                traceRejectedCrossing(config.obs.integrity_trace,
                                      "offload", outcome, shard.index,
                                      attempts);
                xfer.failed_wire_bytes += xfer.wire_bytes;
                if (attempts >= retry.max_attempts) {
                    fault_error = Status::retryExhausted(
                        "offload shard %llu dropped after %u crossings",
                        static_cast<unsigned long long>(shard.index),
                        attempts);
                    return;
                }
                ++result.integrity.retries;
                if (!shard.raw_framed &&
                    attempts >= retry.raw_fallback_after) {
                    degradeToRaw(shard, data, config.compression.window_bytes,
                                 kernels);
                    xfer.wire_bytes =
                        shard.effectiveBytes(config.compression.window_bytes);
                    xfer.degraded = true;
                    ++result.integrity.degraded_shards;
                }
            }
            xfer.attempts = std::max<uint32_t>(1, attempts);
            result.integrity.attempts += xfer.attempts;
            result.integrity.failed_wire_bytes += xfer.failed_wire_bytes;
            result.shards.push_back(xfer);
            arena.appendShard(result.ticket, shard);
        });

    if (!fault_error.ok()) {
        // The partially filled spill is useless to the caller; return
        // its slots so the error path leaks nothing.
        arena.release(result.ticket);
        return fault_error;
    }
    sealSpill(arena, result.ticket);
    result.timing = te.duplexTiming(result.shards, {}).offload;
    result.integrity.retry_stall_seconds =
        result.timing.retry_stall_seconds;
    return result;
}

} // namespace

StatusOr<SpilledOffload>
TransferEngine::offloadInto(std::span<const uint8_t> data,
                            SpillArena &arena,
                            std::optional<Codec> codec) const
{
    return offloadIntoArena(*this, data, arena, codec);
}

StatusOr<SpilledOffload>
TransferEngine::offloadInto(std::span<const uint8_t> data,
                            TieredSpillArena &arena,
                            std::optional<Codec> codec) const
{
    return offloadIntoArena(*this, data, arena, codec);
}

StatusOr<PrefetchResult>
TransferEngine::prefetch(const CompressedBuffer &buffer) const
{
    PrefetchResult result;
    result.data.resize(buffer.original_bytes);
    result.shards.reserve(ceilDiv(buffer.window_sizes.size(),
                                  shard_windows_));

    // The consumer is the expand drain: notifications arrive on this
    // thread in shard order while the lanes reconstruct later shards,
    // recording each shard's byte counts for the pipeline model (the
    // raw bytes themselves land directly in the output region). The
    // buffer's codec tag picks the decoder, so an adaptive peer's
    // choice round-trips (Fixed engines have no bank and keep their
    // single configured codec).
    const Status status = engine_.compressorFor(buffer.codec).decompressShards(
        buffer, shard_windows_, result.data.data(),
        [&](const ParallelCompressor::DecompressedShard &shard) {
            result.shards.push_back({shard.raw_bytes, shard.wire_bytes});
        });
    if (!status.ok())
        return status;

    applyExpectedFaults(result.shards);
    result.integrity = trainIntegrity(result.shards);
    result.timing = timingFor({}, result.shards).prefetch;
    result.integrity.retry_stall_seconds =
        result.timing.retry_stall_seconds;
    return result;
}

namespace {

/**
 * Framing check of spilled shard @p s before any of it is written out.
 * The arena returns whatever framing was appended through its public
 * surface, so the drain trusts none of it: the shard must frame at
 * least one window, all inside the spill; its window sizes must add up
 * to its payload; and a raw payload must exactly fill the bytes its
 * windows cover.
 */
Status
checkShardFraming(const SpillShardView &view, size_t s,
                  uint64_t original_bytes, uint64_t window_bytes)
{
    using ull = unsigned long long;
    const uint64_t windows =
        original_bytes == 0 ? 0 : ceilDiv(original_bytes, window_bytes);
    const uint64_t count = view.window_sizes.size();
    if (count == 0 || view.first_window >= windows ||
        count > windows - view.first_window) {
        return Status::corrupt(
            "spilled shard %zu frames windows [%llu, %llu) of a %llu-window "
            "spill",
            s, static_cast<ull>(view.first_window),
            static_cast<ull>(view.first_window + count),
            static_cast<ull>(windows));
    }
    uint64_t framed = 0;
    for (const uint32_t size : view.window_sizes)
        framed += size;
    if (framed != view.payload.size()) {
        return Status::corrupt(
            "spilled shard %zu window sizes sum to %llu bytes but its "
            "payload holds %zu",
            s, static_cast<ull>(framed), view.payload.size());
    }
    if (view.raw_framed || view.codec == Codec::Raw) {
        const uint64_t region =
            std::min(original_bytes,
                     (view.first_window + count) * window_bytes) -
            view.first_window * window_bytes;
        if (view.payload.size() != region) {
            return Status::corrupt(
                "spilled raw shard %zu holds %zu bytes for a %llu-byte "
                "region",
                s, view.payload.size(), static_cast<ull>(region));
        }
    }
    return Status{};
}

/**
 * Whole-spill framing check, before any crossing is sampled or any
 * output byte is written: every shard passes checkShardFraming(), and
 * together the shards tile the spill's windows in order — the first
 * starts at window 0, each starts where the previous one ended, and the
 * last ends at the spill's final window. Every output byte then has
 * exactly one writer, so the lanes can expand shards concurrently and
 * no byte of the result is left unwritten.
 */
Status
checkSpillFraming(std::span<const SpillShardView> views,
                  uint64_t original_bytes, uint64_t window_bytes)
{
    using ull = unsigned long long;
    const uint64_t windows =
        original_bytes == 0 ? 0 : ceilDiv(original_bytes, window_bytes);
    uint64_t next_window = 0;
    for (size_t s = 0; s < views.size(); ++s) {
        const Status framing =
            checkShardFraming(views[s], s, original_bytes, window_bytes);
        if (!framing.ok())
            return framing;
        if (views[s].first_window != next_window) {
            return Status::corrupt(
                "spilled shard %zu starts at window %llu, where the "
                "shards before it end at window %llu",
                s, static_cast<ull>(views[s].first_window),
                static_cast<ull>(next_window));
        }
        next_window += views[s].window_sizes.size();
    }
    if (next_window != windows) {
        return Status::corrupt(
            "spilled shards frame %llu of the spill's %llu windows",
            static_cast<ull>(next_window), static_cast<ull>(windows));
    }
    return Status{};
}

/**
 * Verify spilled shard @p s against the CRC-32C framed at compress
 * time, then expand it into its own region of @p out. Reads only the
 * shard's view and writes only the windows it frames, so any lane can
 * run it.
 */
Status
expandSpilledShard(const CdmaEngine &engine, const KernelOps &kernels,
                   const SpillShardView &view, size_t s,
                   uint64_t original_bytes, uint64_t window_bytes,
                   uint8_t *out)
{
    // End-to-end verify: the stored payload against its CRC, before any
    // decode work touches it.
    const uint32_t crc =
        kernels.crc32(0, view.payload.data(), view.payload.size());
    if (crc != view.crc32c) {
        return Status::integrityError(
            "spilled shard %zu CRC mismatch (framed %08x, landed %08x)", s,
            view.crc32c, crc);
    }

    if (view.raw_framed || view.codec == Codec::Raw) {
        // Degraded or policy-chosen raw shard: the payload IS the raw
        // bytes (identity framing), one bounded copy.
        std::memcpy(out + view.first_window * window_bytes,
                    view.payload.data(), view.payload.size());
        return Status{};
    }
    // Per-shard decoder dispatch: under the adaptive policy a spill's
    // shards can carry different codecs (the choice changed between
    // offloads); each stored tag names the decoder that inverts it.
    const Compressor &codec = engine.serialCodec(view.codec);
    uint64_t cursor = 0;
    uint64_t window = view.first_window;
    for (const uint32_t size : view.window_sizes) {
        const uint64_t out_offset = window * window_bytes;
        const uint64_t raw =
            std::min<uint64_t>(window_bytes, original_bytes - out_offset);
        const Status status = codec.decompressWindowInto(
            view.payload.subspan(cursor, size), raw, out + out_offset);
        if (!status.ok()) {
            return status.withContext(
                "spilled shard %zu window %llu", s,
                static_cast<unsigned long long>(window));
        }
        cursor += size;
        ++window;
    }
    return Status{};
}

/**
 * The arena expand path, generic over the spill store's read surface
 * (SpillArena or TieredSpillArena — a tiered spill must already be
 * host-resident; the public tiered overload promotes first).
 */
template <typename Arena>
StatusOr<PrefetchResult>
prefetchFromArena(const TransferEngine &te, const Arena &arena,
                  SpillTicket ticket)
{
    const CdmaEngine &engine = te.cdma();
    const CdmaConfig &config = engine.config();
    sim::FaultInjector *injector = config.transfer.fault_injector;
    const RetryPolicy &retry = config.transfer.retry;
    const uint64_t original_bytes = arena.originalBytes(ticket);
    const uint64_t window_bytes = arena.windowBytes(ticket);
    const ParallelCompressor &lanes = engine.compressor();
    const KernelOps &kernels = lanes.serial().kernels();

    // The arena is read here, on this thread, only: the lanes see the
    // views, which point straight into the arena slots (no stitched
    // payload copy).
    const size_t shards = arena.shardCount(ticket);
    std::vector<SpillShardView> views;
    views.reserve(shards);
    for (size_t s = 0; s < shards; ++s)
        views.push_back(arena.shard(ticket, s));
    const Status framing =
        checkSpillFraming(views, original_bytes, window_bytes);
    if (!framing.ok())
        return framing;

    PrefetchResult result;
    result.data.resize(original_bytes);
    result.shards.reserve(shards);
    uint8_t *const out = result.data.data();

    // Every lane verifies and expands shards into their own regions of
    // result.data. The drain runs on this thread in shard order: it
    // samples the fault process (if any) crossing by crossing, records
    // the shard's transfer, and stops at the first error in shard
    // order. So the injector's draw sequence, the integrity counters
    // and the returned Status do not depend on the lane count.
    std::vector<Status> expanded(shards);
    Status first_error;
    lanes.runOrderedShardFanOut(
        shards,
        [&](uint64_t s) {
            expanded[s] = expandSpilledShard(engine, kernels, views[s], s,
                                             original_bytes, window_bytes,
                                             out);
        },
        [&](uint64_t s) {
            const SpillShardView &view = views[s];
            ShardTransfer xfer;
            xfer.raw_bytes = view.raw_bytes;
            xfer.wire_bytes = view.wire_bytes;
            xfer.degraded = view.raw_framed;

            // GPU-bound wire crossing(s): a faulted crossing re-reads
            // the pristine arena slot, so once a crossing lands clean
            // the landed bytes are exactly the stored bytes the lane
            // verified and expanded.
            uint32_t attempts = 0;
            while (injector != nullptr) {
                ++attempts;
                const sim::FaultOutcome outcome =
                    injector->sample(view.payload.size());
                if (crossingLanded(outcome, view.payload, view.crc32c,
                                   kernels, result.integrity)) {
                    break;
                }
                traceRejectedCrossing(config.obs.integrity_trace,
                                      "prefetch", outcome, s, attempts);
                xfer.failed_wire_bytes += view.wire_bytes;
                if (attempts >= retry.max_attempts) {
                    first_error = Status::retryExhausted(
                        "prefetch shard %llu dropped after %u crossings",
                        static_cast<unsigned long long>(s), attempts);
                    return false;
                }
                ++result.integrity.retries;
            }
            xfer.attempts = std::max<uint32_t>(1, attempts);
            result.integrity.attempts += xfer.attempts;
            result.integrity.failed_wire_bytes += xfer.failed_wire_bytes;
            if (!expanded[s].ok()) {
                first_error = expanded[s];
                return false;
            }
            result.shards.push_back(xfer);
            return true;
        });
    if (!first_error.ok())
        return first_error;

    result.timing = te.duplexTiming({}, result.shards).prefetch;
    result.integrity.retry_stall_seconds =
        result.timing.retry_stall_seconds;
    return result;
}

} // namespace

StatusOr<PrefetchResult>
TransferEngine::prefetch(const SpillArena &arena, SpillTicket ticket) const
{
    return prefetchFromArena(*this, arena, ticket);
}

StatusOr<PrefetchResult>
TransferEngine::prefetch(TieredSpillArena &arena, SpillTicket ticket) const
{
    // An evicted spill crosses the SSD -> host edge first (counted in
    // the arena's tierStats); the expand drain then reads host slots.
    arena.promote(ticket);
    return prefetchFromArena(*this, arena, ticket);
}

StatusOr<TransferEngine::DuplexResult>
TransferEngine::transfer(std::span<const uint8_t> offload_data,
                         SpillArena &arena,
                         SpillTicket prefetch_ticket) const
{
    StatusOr<SpilledOffload> offloaded =
        offloadInto(offload_data, arena);
    if (!offloaded.ok())
        return offloaded.status();
    StatusOr<PrefetchResult> prefetched =
        prefetch(arena, prefetch_ticket);
    if (!prefetched.ok())
        return prefetched.status();

    DuplexResult result;
    result.offload = std::move(offloaded.value());
    result.prefetch = std::move(prefetched.value());
    // Re-time both measured shard trains as one race on the shared
    // link: the per-direction breakdowns pick up any contention the
    // independent flows above could not see.
    result.timing = timingFor(result.offload.shards,
                              result.prefetch.shards);
    result.offload.timing = result.timing.offload;
    result.prefetch.timing = result.timing.prefetch;
    return result;
}

DuplexTiming
TransferEngine::timingFor(std::span<const ShardTransfer> offload_shards,
                          std::span<const ShardTransfer> prefetch_shards)
    const
{
    const CdmaConfig &config = engine_.config();
    PipelineSpec spec;
    spec.compress_bandwidth = config.gpu.comp_bandwidth;
    spec.decompress_bandwidth = config.gpu.comp_bandwidth;
    spec.staging_buffers = config.transfer.staging_buffers;
    spec.backoff_base_seconds = config.transfer.retry.backoff_seconds;

    DuplexTiming timing;
    timing.offload.shard_count = offload_shards.size();
    timing.prefetch.shard_count = prefetch_shards.size();
    if (offload_shards.empty() && prefetch_shards.empty())
        return timing;

    // The wire legs always ride the topology graph: the configured one,
    // or the degenerate two-node GPU—host link built from the GpuSpec
    // (identical event timeline to the historical single channel).
    std::shared_ptr<const Topology> topo = config.topology.graph;
    NodeId gpu_node = config.topology.gpu_node;
    NodeId host_node = config.topology.host_node;
    if (topo == nullptr) {
        topo = Topology::pcieLink(config.gpu.pcie_effective_bandwidth,
                                  config.transfer.duplex_mode,
                                  config.transfer.link_arbiter);
        gpu_node = topo->firstNode(NodeKind::Gpu);
        host_node = topo->firstNode(NodeKind::HostDram);
    }
    EventQueue queue;
    LinkNetwork network(queue, *topo);
    DuplexPipeline pipeline(
        network, topo->route(gpu_node, host_node),
        {offload_shards.begin(), offload_shards.end()},
        {prefetch_shards.begin(), prefetch_shards.end()}, spec,
        config.topology.source);
    // Metrics only: every call here opens a fresh t=0 event queue, so a
    // trace recorder (one coherent timeline) cannot attach at this
    // level — but shard latency histograms are origin-agnostic.
    pipeline.setObservers(nullptr, config.obs.metrics, "");
    pipeline.start();
    queue.run();
    return pipeline.collect();
}

DuplexTiming
TransferEngine::duplexTiming(
    std::span<const ShardTransfer> offload_shards,
    std::span<const ShardTransfer> prefetch_shards) const
{
    return timingFor(offload_shards, prefetch_shards);
}

std::vector<ShardTransfer>
TransferEngine::shardTrain(uint64_t raw_bytes, double ratio) const
{
    std::vector<ShardTransfer> shards = uniformShardTrain(
        raw_bytes, ratio,
        shard_windows_ * engine_.config().compression.window_bytes);
    applyExpectedFaults(shards);
    return shards;
}

std::vector<ShardTransfer>
TransferEngine::uniformShardTrain(uint64_t raw_bytes, double ratio,
                                  uint64_t shard_raw_bytes)
{
    CDMA_ASSERT(ratio >= 1.0, "ratio %f below store-raw floor", ratio);
    CDMA_ASSERT(shard_raw_bytes > 0, "shards need a positive raw size");
    std::vector<ShardTransfer> shards;
    shards.reserve(ceilDiv(raw_bytes, shard_raw_bytes));
    uint64_t remaining = raw_bytes;
    while (remaining > 0) {
        const uint64_t raw = std::min(remaining, shard_raw_bytes);
        shards.push_back({raw, static_cast<uint64_t>(
                                   static_cast<double>(raw) / ratio)});
        remaining -= raw;
    }
    return shards;
}

void
TransferEngine::applyExpectedFaults(
    std::vector<ShardTransfer> &shards) const
{
    const sim::FaultInjector *injector = engine_.config().transfer.fault_injector;
    if (injector == nullptr)
        return;
    const RetryPolicy &retry = engine_.config().transfer.retry;
    // Integerize the per-shard expectation with a running remainder so
    // the train-level totals track the closed form: at E[attempts] of,
    // say, 1.25, independent rounding would give every shard 1 attempt
    // and erase the fold entirely, whereas the carry hands every fourth
    // shard the retry.
    double carry = 0.0;
    for (ShardTransfer &shard : shards) {
        const double expected = injector->expectedAttempts(
            shard.wire_bytes, retry.max_attempts);
        carry += expected;
        const auto attempts =
            std::max<uint32_t>(1, static_cast<uint32_t>(carry));
        carry -= attempts;
        shard.attempts = attempts;
        shard.failed_wire_bytes = static_cast<uint64_t>(std::llround(
            (expected - 1.0) * static_cast<double>(shard.wire_bytes)));
    }
}

TransferIntegrity
TransferEngine::trainIntegrity(std::span<const ShardTransfer> shards)
{
    TransferIntegrity integrity;
    for (const ShardTransfer &shard : shards) {
        integrity.attempts += shard.attempts;
        integrity.retries += shard.attempts - 1;
        integrity.failed_wire_bytes += shard.failed_wire_bytes;
        integrity.degraded_shards += shard.degraded ? 1 : 0;
    }
    return integrity;
}

DuplexTiming
TransferEngine::modelFromRatio(uint64_t offload_raw, double offload_ratio,
                               uint64_t prefetch_raw,
                               double prefetch_ratio) const
{
    return timingFor(shardTrain(offload_raw, offload_ratio),
                     shardTrain(prefetch_raw, prefetch_ratio));
}

DuplexTiming
TransferEngine::pipelineTiming(
    std::span<const ShardTransfer> offload_shards,
    std::span<const ShardTransfer> prefetch_shards,
    double compress_bandwidth, double wire_bandwidth,
    double decompress_bandwidth, unsigned staging_buffers,
    DuplexMode mode, LinkArbiter arbiter, double backoff_base_seconds)
{
    CDMA_ASSERT(compress_bandwidth > 0.0 && wire_bandwidth > 0.0 &&
                    decompress_bandwidth > 0.0,
                "pipeline model needs positive bandwidths");
    CDMA_ASSERT(staging_buffers >= 1, "need at least one staging buffer");

    DuplexTiming timing;
    timing.offload.shard_count = offload_shards.size();
    timing.prefetch.shard_count = prefetch_shards.size();
    if (offload_shards.empty() && prefetch_shards.empty())
        return timing;

    // The explicit-bandwidth entry point rides the degenerate two-node
    // graph: one GPU—host edge, whose routed timeline reproduces the
    // historical direct-channel submission event for event.
    const std::shared_ptr<const Topology> topo =
        Topology::pcieLink(wire_bandwidth, mode, arbiter);
    EventQueue queue;
    LinkNetwork network(queue, *topo);
    PipelineSpec spec;
    spec.compress_bandwidth = compress_bandwidth;
    spec.decompress_bandwidth = decompress_bandwidth;
    spec.staging_buffers = staging_buffers;
    spec.backoff_base_seconds = backoff_base_seconds;
    DuplexPipeline pipeline(
        network,
        topo->route(topo->firstNode(NodeKind::Gpu),
                    topo->firstNode(NodeKind::HostDram)),
        {offload_shards.begin(), offload_shards.end()},
        {prefetch_shards.begin(), prefetch_shards.end()}, spec);
    pipeline.start();
    queue.run();
    return pipeline.collect();
}

DuplexPipeline::DuplexPipeline(LinkNetwork &network, Route offload_route,
                               std::vector<ShardTransfer> offload_shards,
                               std::vector<ShardTransfer> prefetch_shards,
                               const PipelineSpec &spec, unsigned source)
    : network_(network), offload_route_(std::move(offload_route)),
      prefetch_route_(offload_route_.reversed()),
      offload_shards_(std::move(offload_shards)),
      prefetch_shards_(std::move(prefetch_shards)), spec_(spec),
      source_(source)
{
    CDMA_ASSERT(spec_.compress_bandwidth > 0.0 &&
                    spec_.decompress_bandwidth > 0.0,
                "pipeline model needs positive engine bandwidths");
    CDMA_ASSERT(spec_.staging_buffers >= 1,
                "need at least one staging buffer");
}

void
DuplexPipeline::setObservers(obs::TraceRecorder *trace,
                             obs::MetricsRegistry *metrics,
                             const std::string &name)
{
    trace_ = trace;
    if (trace_ != nullptr) {
        compress_track_ = trace_->track(name, "compress");
        wire_out_track_ = trace_->track(name, "wire.out");
        wire_in_track_ = trace_->track(name, "wire.in");
        expand_track_ = trace_->track(name, "expand");
    }
    if (metrics != nullptr) {
        off_latency_hist_ = &metrics->histogram(
            "transfer.offload.shard_latency_seconds");
        pre_latency_hist_ = &metrics->histogram(
            "transfer.prefetch.shard_latency_seconds");
    } else {
        off_latency_hist_ = nullptr;
        pre_latency_hist_ = nullptr;
    }
}

void
DuplexPipeline::start()
{
    startCompress();
    startWire();
}

bool
DuplexPipeline::done() const
{
    return off_done_ == offload_shards_.size() &&
        pre_done_ == prefetch_shards_.size();
}

void
DuplexPipeline::startCompress()
{
    if (off_next_ >= offload_shards_.size() || compressing_ ||
        off_in_flight_ >= spec_.staging_buffers) {
        return;
    }
    const size_t k = off_next_++;
    compressing_ = true;
    ++off_in_flight_;
    const SimTime compress_time =
        static_cast<double>(offload_shards_[k].raw_bytes) /
        spec_.compress_bandwidth;
    const SimTime t0 = network_.queue().now();
    network_.queue().scheduleAfter(compress_time, [this, k, t0] {
        // Shard k staged: hand it to the DMA unit (it queues on the
        // route's first edge behind that edge's arbiter) and start
        // compressing the next shard into the other buffer.
        compressing_ = false;
        CDMA_TRACE_SPAN(trace_, compress_track_, "compress", t0,
                        network_.queue().now(),
                        (obs::TraceArgs{
                            {"shard", k},
                            {"raw_bytes", offload_shards_[k].raw_bytes},
                        }));
        // The wire leg carries the shard's failed crossings too, and
        // the retry backoff rides as extra latency: the retry sequence
        // holds the shard's DMA transaction slot (and, under half
        // duplex, the link) until the shard lands.
        network_.submit(
            offload_route_,
            offload_shards_[k].wire_bytes +
                offload_shards_[k].failed_wire_bytes,
            [this, k](const RouteGrant &grant) {
                --off_in_flight_;
                ++off_done_;
                last_off_drain_ = network_.queue().now();
                off_wire_seconds_ += grant.service_seconds;
                off_contention_ += grant.opposing_wait;
                cross_source_wait_ += grant.cross_source_wait;
                traceWireGrant(wire_out_track_, k,
                               offload_shards_[k], grant);
                if (off_latency_hist_ != nullptr) {
                    off_latency_hist_->record(grant.end -
                                              grant.queued_at);
                }
                startCompress();
            },
            backoffSeconds(offload_shards_[k].attempts,
                           spec_.backoff_base_seconds),
            source_);
        startCompress();
    });
}

void
DuplexPipeline::startExpand()
{
    if (expanding_ || landed_.empty())
        return;
    const size_t k = landed_.front();
    landed_.pop();
    expanding_ = true;
    const SimTime expand_time =
        static_cast<double>(prefetch_shards_[k].raw_bytes) /
        spec_.decompress_bandwidth;
    const SimTime t0 = network_.queue().now();
    network_.queue().scheduleAfter(expand_time, [this, k, t0] {
        // Shard re-inflated: its staging buffer frees, so the next
        // shard may enter the wire while the engine picks up the next
        // landed shard.
        expanding_ = false;
        --pre_in_flight_;
        ++pre_done_;
        last_expand_ = network_.queue().now();
        CDMA_TRACE_SPAN(trace_, expand_track_, "expand", t0,
                        network_.queue().now(),
                        (obs::TraceArgs{
                            {"shard", k},
                            {"raw_bytes", prefetch_shards_[k].raw_bytes},
                        }));
        startExpand();
        startWire();
    });
}

void
DuplexPipeline::traceWireGrant(uint32_t track, size_t shard,
                               const ShardTransfer &xfer,
                               const RouteGrant &grant)
{
    if (trace_ == nullptr)
        return;
    trace_->instant(track, "landed", grant.end,
                    obs::TraceArgs{
                        {"shard", shard},
                        {"bytes", xfer.wire_bytes + xfer.failed_wire_bytes},
                        {"latency_us", (grant.end - grant.queued_at) * 1e6},
                        {"opposing_wait_us", grant.opposing_wait * 1e6},
                        {"cross_source_wait_us",
                         grant.cross_source_wait * 1e6},
                    });
    if (xfer.attempts > 1) {
        trace_->instant(
            track, "retry", grant.queued_at,
            obs::TraceArgs{
                {"shard", shard},
                {"attempts", xfer.attempts},
                {"failed_wire_bytes", xfer.failed_wire_bytes},
                {"backoff_us",
                 backoffSeconds(xfer.attempts,
                                spec_.backoff_base_seconds) * 1e6},
            });
    }
}

void
DuplexPipeline::startWire()
{
    if (pre_next_ >= prefetch_shards_.size() ||
        pre_in_flight_ >= spec_.staging_buffers) {
        return;
    }
    const size_t k = pre_next_++;
    ++pre_in_flight_;
    network_.submit(
        prefetch_route_,
        prefetch_shards_[k].wire_bytes +
            prefetch_shards_[k].failed_wire_bytes,
        [this, k](const RouteGrant &grant) {
            pre_wire_seconds_ += grant.service_seconds;
            pre_contention_ += grant.opposing_wait;
            cross_source_wait_ += grant.cross_source_wait;
            traceWireGrant(wire_in_track_, k, prefetch_shards_[k], grant);
            if (pre_latency_hist_ != nullptr)
                pre_latency_hist_->record(grant.end - grant.queued_at);
            landed_.push(k);
            startExpand();
            startWire();
        },
        backoffSeconds(prefetch_shards_[k].attempts,
                       spec_.backoff_base_seconds),
        source_);
    startWire();
}

DuplexTiming
DuplexPipeline::collect() const
{
    CDMA_ASSERT(done(), "pipeline not drained — run the event queue");
    DuplexTiming timing;
    timing.offload.shard_count = offload_shards_.size();
    timing.prefetch.shard_count = prefetch_shards_.size();

    for (const ShardTransfer &shard : offload_shards_) {
        timing.offload.compress_seconds +=
            static_cast<double>(shard.raw_bytes) /
            spec_.compress_bandwidth;
        timing.offload.retry_stall_seconds +=
            static_cast<double>(shard.failed_wire_bytes) /
                network_.topology().link(offload_route_.hops.front().link)
                    .props.bytes_per_second +
            backoffSeconds(shard.attempts, spec_.backoff_base_seconds);
    }
    timing.offload.wire_seconds = off_wire_seconds_;
    timing.offload.overlapped_seconds = last_off_drain_;
    finalizeOverlapFraction(timing.offload);

    timing.prefetch.wire_seconds = pre_wire_seconds_;
    for (const ShardTransfer &shard : prefetch_shards_) {
        timing.prefetch.decompress_seconds +=
            static_cast<double>(shard.raw_bytes) /
            spec_.decompress_bandwidth;
        timing.prefetch.retry_stall_seconds +=
            static_cast<double>(shard.failed_wire_bytes) /
                network_.topology().link(offload_route_.hops.front().link)
                    .props.bytes_per_second +
            backoffSeconds(shard.attempts, spec_.backoff_base_seconds);
    }
    timing.prefetch.overlapped_seconds = last_expand_;
    finalizeOverlapFraction(timing.prefetch);

    timing.makespan_seconds = std::max(last_off_drain_, last_expand_);
    timing.offload_contention_seconds = off_contention_;
    timing.prefetch_contention_seconds = pre_contention_;
    return timing;
}

// ---------------------------------------------------------------------
// Single-direction scheduler facades (historically their own .cc files).
// ---------------------------------------------------------------------

OffloadScheduler::OffloadScheduler(const CdmaEngine &engine)
    : engine_(engine)
{
}

OffloadResult
OffloadScheduler::offload(std::span<const uint8_t> data) const
{
    return engine_.offload(data);
}

StatusOr<SpilledOffload>
OffloadScheduler::offloadInto(std::span<const uint8_t> data,
                              SpillArena &arena) const
{
    return engine_.offloadInto(data, arena);
}

OffloadTiming
OffloadScheduler::modelFromRatio(uint64_t raw_bytes, double ratio) const
{
    CDMA_ASSERT(ratio >= 1.0, "ratio %f below store-raw floor", ratio);
    const CdmaConfig &config = engine_.cdma().config();
    const double comp_bw = config.gpu.comp_bandwidth;
    const double wire_bw = config.gpu.pcie_effective_bandwidth;
    const unsigned buffers = config.transfer.staging_buffers;
    const uint64_t shard_raw =
        shardWindows() * config.compression.window_bytes;

    OffloadTiming timing;
    if (raw_bytes == 0)
        return timing;

    // Closed form over the shard shape the DES would replay: `full`
    // uniform shards of shard_raw bytes plus at most one partial tail.
    // The per-shard wire bytes reproduce the DES arithmetic exactly
    // (store-raw-floored truncation per shard).
    const uint64_t full = raw_bytes / shard_raw;
    const uint64_t tail_raw = raw_bytes % shard_raw;
    timing.shard_count = full + (tail_raw != 0 ? 1 : 0);

    const double c = static_cast<double>(shard_raw) / comp_bw;
    const double w = static_cast<double>(static_cast<uint64_t>(
                         static_cast<double>(shard_raw) / ratio)) /
        wire_bw;
    const double tail_c = static_cast<double>(tail_raw) / comp_bw;
    const double tail_w = static_cast<double>(static_cast<uint64_t>(
                              static_cast<double>(tail_raw) / ratio)) /
        wire_bw;

    const double n = static_cast<double>(full);
    timing.compress_seconds = n * c + tail_c;
    timing.wire_seconds = n * w + tail_w;

    if (buffers == 1) {
        // A single staging buffer serializes every shard end to end.
        timing.overlapped_seconds =
            timing.compress_seconds + timing.wire_seconds;
    } else if (full == 0) {
        // Tail-only transfer: one shard, nothing to overlap with.
        timing.overlapped_seconds = tail_c + tail_w;
    } else if (w >= c) {
        // Wire-bound: one compression fill, then the wire never starves
        // (the tail's compression hides under the previous shard's wire
        // time because tail_c <= c <= w).
        timing.overlapped_seconds = c + n * w + tail_w;
    } else {
        // Compression-bound (fetch-capped): the serial compression
        // engine paces the pipeline; the tail's wire leg waits for
        // whichever of its own compression or the previous shard's
        // drain finishes last.
        timing.overlapped_seconds =
            n * c + std::max(tail_c, w) + tail_w;
    }
    finalizeOverlapFraction(timing);
    return timing;
}

OffloadTiming
OffloadScheduler::pipelineTiming(std::span<const ShardTransfer> shards,
                                 double compress_bandwidth,
                                 double wire_bandwidth,
                                 unsigned staging_buffers)
{
    // The duplex DES with the prefetch direction idle: the shared link
    // degenerates to a single-direction FIFO, reproducing the original
    // offload-only event timeline exactly.
    return TransferEngine::pipelineTiming(
               shards, {}, compress_bandwidth, wire_bandwidth,
               /*decompress_bandwidth=*/compress_bandwidth,
               staging_buffers, DuplexMode::Half,
               LinkArbiter::RoundRobin)
        .offload;
}

PrefetchScheduler::PrefetchScheduler(const CdmaEngine &engine)
    : engine_(engine)
{
}

StatusOr<PrefetchResult>
PrefetchScheduler::prefetch(const CompressedBuffer &buffer) const
{
    return engine_.prefetch(buffer);
}

StatusOr<PrefetchResult>
PrefetchScheduler::prefetch(const SpillArena &arena,
                            SpillTicket ticket) const
{
    return engine_.prefetch(arena, ticket);
}

PrefetchTiming
PrefetchScheduler::modelFromRatio(uint64_t raw_bytes, double ratio) const
{
    CDMA_ASSERT(ratio >= 1.0, "ratio %f below store-raw floor", ratio);
    const CdmaConfig &config = engine_.cdma().config();
    const double wire_bw = config.gpu.pcie_effective_bandwidth;
    const double decomp_bw = config.gpu.comp_bandwidth;
    const unsigned buffers = config.transfer.staging_buffers;
    const uint64_t shard_raw =
        shardWindows() * config.compression.window_bytes;

    PrefetchTiming timing;
    if (raw_bytes == 0)
        return timing;

    // Closed form over the shard shape the DES would replay: `full`
    // uniform shards of shard_raw bytes plus at most one partial tail,
    // with the per-shard wire bytes reproducing the DES arithmetic
    // exactly (store-raw-floored truncation per shard). Stage one is
    // the wire, stage two the serial decompression engine — the
    // offload closed form with the roles swapped.
    const uint64_t full = raw_bytes / shard_raw;
    const uint64_t tail_raw = raw_bytes % shard_raw;
    timing.shard_count = full + (tail_raw != 0 ? 1 : 0);

    const double d = static_cast<double>(shard_raw) / decomp_bw;
    const double w = static_cast<double>(static_cast<uint64_t>(
                         static_cast<double>(shard_raw) / ratio)) /
        wire_bw;
    const double tail_d = static_cast<double>(tail_raw) / decomp_bw;
    const double tail_w = static_cast<double>(static_cast<uint64_t>(
                              static_cast<double>(tail_raw) / ratio)) /
        wire_bw;

    const double n = static_cast<double>(full);
    timing.wire_seconds = n * w + tail_w;
    timing.decompress_seconds = n * d + tail_d;

    if (buffers == 1) {
        // A single staging buffer serializes every shard end to end.
        timing.overlapped_seconds =
            timing.wire_seconds + timing.decompress_seconds;
    } else if (full == 0) {
        // Tail-only transfer: one shard, nothing to overlap with.
        timing.overlapped_seconds = tail_w + tail_d;
    } else if (d >= w) {
        // Decompression-bound (fetch-capped layers land here: high
        // ratios make the wire leg short): one wire fill, then the
        // serial decompression engine never starves (the tail's wire
        // time hides under the previous shard's expansion because
        // tail_w <= w <= d).
        timing.overlapped_seconds = w + n * d + tail_d;
    } else {
        // Wire-bound: the FIFO link paces the pipeline; the tail's
        // expansion waits for whichever of its own wire transfer or
        // the previous shard's expansion finishes last.
        timing.overlapped_seconds =
            n * w + std::max(tail_w, d) + tail_d;
    }
    finalizeOverlapFraction(timing);
    return timing;
}

PrefetchTiming
PrefetchScheduler::pipelineTiming(std::span<const ShardTransfer> shards,
                                  double wire_bandwidth,
                                  double decompress_bandwidth,
                                  unsigned staging_buffers)
{
    // The duplex DES with the offload direction idle: the shared link
    // degenerates to a single-direction FIFO, reproducing the original
    // prefetch-only event timeline exactly.
    return TransferEngine::pipelineTiming(
               {}, shards, /*compress_bandwidth=*/decompress_bandwidth,
               wire_bandwidth, decompress_bandwidth, staging_buffers,
               DuplexMode::Half, LinkArbiter::RoundRobin)
        .prefetch;
}

} // namespace cdma
