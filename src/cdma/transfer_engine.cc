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

/** Rate of @p offload_route's GPU-side edge, at which both directions
 *  price re-sent bytes; 0 for a route with no edge. */
double
gpuEdgeRate(const Topology &topology, const Route &offload_route)
{
    return offload_route.empty()
        ? 0.0
        : topology.link(offload_route.hops.front().link)
              .props.bytes_per_second;
}

/** Seconds @p shard's retries add to its wire leg: the failed
 *  crossings at @p gpu_edge_rate plus the backoff. A route with no
 *  edge (rate 0) prices the backoff alone. */
double
retryStallSeconds(const ShardTransfer &shard, double gpu_edge_rate,
                  double backoff_base)
{
    const double resent = gpu_edge_rate > 0.0
        ? static_cast<double>(shard.failed_wire_bytes) / gpu_edge_rate
        : 0.0;
    return resent + backoffSeconds(shard.attempts, backoff_base);
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
 * Downgrade @p shard to raw framing in place: its region of @p room is
 * rewritten with the shard's uncompressed source bytes (raw bytes never
 * exceed the codec's bound, so they fit the region the compressed form
 * was given, and no decode step can fail on the far side), its framing
 * entries become raw window sizes, and the CRC is re-framed over the
 * new payload — the robustness analogue of store-raw.
 */
void
degradeToRaw(RoomShard &shard, const SpillRoom &room,
             std::span<const uint8_t> data, uint64_t window_bytes,
             const KernelOps &kernels)
{
    uint8_t *payload = room.bytes.data() + shard.offset;
    std::memcpy(payload, data.data() + shard.first_window * window_bytes,
                shard.raw_bytes);
    uint64_t remaining = shard.raw_bytes;
    for (uint32_t &size :
         room.window_sizes.subspan(shard.first_window, shard.window_count)) {
        size = static_cast<uint32_t>(
            std::min<uint64_t>(window_bytes, remaining));
        remaining -= size;
    }
    shard.payload_bytes = shard.raw_bytes;
    shard.crc32c = kernels.crc32(0, payload, shard.payload_bytes);
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
    spec_.compress_bandwidth = config.gpu.comp_bandwidth;
    spec_.decompress_bandwidth = config.gpu.comp_bandwidth;
    spec_.staging_buffers = config.transfer.staging_buffers;
    spec_.backoff_base_seconds = config.transfer.retry.backoff_seconds;

    // The wire legs always ride the topology graph: the configured one,
    // or the degenerate two-node GPU—host link built from the GpuSpec.
    topology_ = config.topology.graph;
    NodeId gpu_node = config.topology.gpu_node;
    NodeId host_node = config.topology.host_node;
    if (topology_ == nullptr) {
        topology_ = Topology::pcieLink(config.gpu.pcie_effective_bandwidth,
                                       config.transfer.duplex_mode,
                                       config.transfer.link_arbiter);
        gpu_node = topology_->firstNode(NodeKind::Gpu);
        host_node = topology_->firstNode(NodeKind::HostDram);
    }
    route_ = topology_->route(gpu_node, host_node);
    contended_route_ = std::any_of(
        route_.hops.begin(), route_.hops.end(), [&](const RouteHop &hop) {
            return topology_->link(hop.link).props.mode == DuplexMode::Half;
        });
}

namespace {

/** Releases an offload's spill on every exit but success — a shard
 *  that burned its retry budget, or an exception rethrown from a lane —
 *  so a reserved room never leaks. */
template <typename Arena>
class SpillGuard
{
  public:
    SpillGuard(Arena &arena, SpillTicket ticket)
        : arena_(arena), ticket_(ticket)
    {
    }
    ~SpillGuard()
    {
        if (armed_)
            arena_.release(ticket_);
    }
    SpillGuard(const SpillGuard &) = delete;
    SpillGuard &operator=(const SpillGuard &) = delete;

    /** The spill succeeded: the caller owns its ticket. */
    void keep() { armed_ = false; }

  private:
    Arena &arena_;
    SpillTicket ticket_;
    bool armed_ = true;
};

/**
 * The streaming offload, generic over the spill store (plain SpillArena
 * or the two-tier TieredSpillArena — both expose the same beginSpill /
 * reserveRoom / commitShard / release surface). Uses only the engine's
 * public API so the template can live at file scope.
 */
template <typename Arena>
StatusOr<SpilledOffload>
offloadIntoArena(const TransferEngine &te, std::span<const uint8_t> data,
                 Arena &arena, std::optional<Codec> codec_override)
{
    const CdmaEngine &engine = te.cdma();
    const CdmaConfig &config = engine.config();
    const ParallelCompressor &compressor = engine.compressorFor(
        codec_override.value_or(engine.compressor().codecTag()));
    sim::FaultInjector *injector = config.transfer.fault_injector;
    const RetryPolicy &retry = config.transfer.retry;
    const KernelOps &kernels = compressor.serial().kernels();
    const uint64_t window_bytes = config.compression.window_bytes;
    const uint64_t windows = ceilDiv(data.size(), window_bytes);

    SpilledOffload result;
    result.ticket = arena.beginSpill(data.size(), window_bytes);
    SpillGuard guard(arena, result.ticket);
    result.shards.reserve(ceilDiv(windows, te.shardWindows()));
    // The arena is the compression destination: one room sized for
    // every window's worst case, which the lanes fill in place (each
    // shard at its bound-strided offset, its window sizes straight into
    // the spill's framing, its CRC-32C computed on the lane).
    const SpillRoom room = arena.reserveRoom(
        result.ticket,
        compressor.serial().payloadBound(data.size(), 0, windows), windows);

    // The drain is the staging step: it runs on this thread in shard
    // order while the lanes compress later shards, and it is where the
    // shard crosses the wire, so the fault process (if any) is sampled
    // here, crossing by crossing. A damaged crossing is caught by the
    // length/CRC framing checks and re-sent, degrading to raw framing
    // in place and finally giving up per the RetryPolicy; serial
    // sampling keeps the injector's draw sequence deterministic. A
    // shard that lands is committed at its real size.
    Status fault_error;
    compressor.compressShardsInto(
        data, te.shardWindows(), room.bytes, room.window_sizes,
        [&](const RoomShard &compressed) {
            RoomShard shard = compressed;
            const std::span<const uint32_t> framing =
                room.window_sizes.subspan(shard.first_window,
                                          shard.window_count);
            bool raw_framed = false;
            ShardTransfer xfer;
            xfer.raw_bytes = shard.raw_bytes;
            xfer.wire_bytes =
                storeRawFlooredBytes(framing, shard.raw_bytes, window_bytes);
            uint32_t attempts = 0;
            while (injector != nullptr) {
                ++attempts;
                const std::span<const uint8_t> payload =
                    room.bytes.subspan(shard.offset, shard.payload_bytes);
                const sim::FaultOutcome outcome =
                    injector->sample(payload.size());
                if (crossingLanded(outcome, payload, shard.crc32c, kernels,
                                   result.integrity)) {
                    break;
                }
                xfer.failed_wire_bytes += xfer.wire_bytes;
                if (attempts >= retry.max_attempts) {
                    fault_error = Status::retryExhausted(
                        "offload shard %llu dropped after %u crossings",
                        static_cast<unsigned long long>(shard.index),
                        attempts);
                    return false;
                }
                ++result.integrity.retries;
                if (!raw_framed && attempts >= retry.raw_fallback_after) {
                    degradeToRaw(shard, room, data, window_bytes, kernels);
                    raw_framed = true;
                    xfer.wire_bytes = storeRawFlooredBytes(
                        framing, shard.raw_bytes, window_bytes);
                    xfer.degraded = true;
                    ++result.integrity.degraded_shards;
                }
            }
            xfer.attempts = std::max<uint32_t>(1, attempts);
            result.integrity.attempts += xfer.attempts;
            result.integrity.failed_wire_bytes += xfer.failed_wire_bytes;
            result.shards.push_back(xfer);

            ShardCommit commit;
            commit.room = room.id;
            commit.offset = shard.offset;
            commit.payload_bytes = shard.payload_bytes;
            commit.window_begin = room.window_begin + shard.first_window;
            commit.window_count = shard.window_count;
            commit.first_window = shard.first_window;
            commit.raw_bytes = shard.raw_bytes;
            commit.crc32c = shard.crc32c;
            commit.raw_framed = raw_framed;
            commit.codec = compressor.codecTag();
            arena.commitShard(result.ticket, commit);
            return true;
        });

    // A shard burned its retry budget: the guard returns the partial
    // spill's room, so the error path leaks nothing.
    if (!fault_error.ok())
        return fault_error;
    guard.keep();
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

/** The per-shard buffers of one arena prefetch. */
struct PrefetchScratch {
    std::vector<SpillShardView> views;
    std::vector<Status> expanded;
};

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
    // payload copy). The views and the per-shard Status live in
    // per-thread buffers the calls reuse (nothing below calls back into
    // a prefetch).
    static thread_local PrefetchScratch scratch;
    const size_t shards = arena.shardCount(ticket);
    std::vector<SpillShardView> &views = scratch.views;
    views.clear();
    for (size_t s = 0; s < shards; ++s)
        views.push_back(arena.shard(ticket, s));
    const Status framing =
        checkSpillFraming(views, original_bytes, window_bytes);
    if (!framing.ok())
        return framing;

    // Sized before the output: a scratch buffer that grew after it would
    // sit above it on the heap and keep the freed output from being
    // trimmed (+11 MB peak RSS on 13 MB maps).
    std::vector<Status> &expanded = scratch.expanded;
    expanded.assign(shards, Status{});
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

DuplexTiming
TransferEngine::duplexTiming(
    std::span<const ShardTransfer> offload_shards,
    std::span<const ShardTransfer> prefetch_shards) const
{
    obs::MetricsRegistry *metrics = engine_.config().obs.metrics;
    if (offload_shards.empty() || prefetch_shards.empty() ||
        !contended_route_) {
        return uncontendedTiming(*topology_, route_, offload_shards,
                                 prefetch_shards, spec_, metrics);
    }
    // Both trains on a route with a half-duplex edge: they race for it,
    // and only the DES models the race.
    EventQueue queue;
    LinkNetwork network(queue, *topology_);
    DuplexPipeline pipeline(
        network, route_, {offload_shards.begin(), offload_shards.end()},
        {prefetch_shards.begin(), prefetch_shards.end()}, spec_);
    // Metrics only: every call here opens a fresh t=0 event queue, so a
    // trace recorder (one coherent timeline) cannot attach at this
    // level — but shard latency histograms are origin-agnostic.
    pipeline.setObservers(nullptr, metrics, "");
    pipeline.start();
    queue.run();
    return pipeline.collect();
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
    return duplexTiming(shardTrain(offload_raw, offload_ratio),
                        shardTrain(prefetch_raw, prefetch_ratio));
}

namespace {

/** One edge of a route as the recurrence walks it. */
struct HopState {
    double bytes_per_second = 0.0;
    SimTime latency_seconds = 0.0;
    SimTime free_at = 0.0; ///< the edge's FIFO has drained by then
};

/** A shard holding a staging buffer: when it lands, and which it is. */
struct HeldShard {
    SimTime landed = 0.0;
    size_t shard = 0;
};

/**
 * Move @p shard's wire leg, failed crossings included, along @p hops
 * from time @p enter: each edge serves it FIFO, store-and-forward, and
 * the @p backoff rides on the first edge — what LinkNetwork::submitHop
 * charges. A route with no edge costs the backoff alone, as
 * LinkNetwork::submit prices a move within one node. Adds the leg's
 * service time to @p service and returns when the shard lands.
 */
SimTime
walkRoute(std::span<HopState> hops, const ShardTransfer &shard,
          SimTime enter, SimTime backoff, SimTime &service)
{
    if (hops.empty()) {
        service += backoff;
        return enter + backoff;
    }
    const uint64_t bytes = shard.wire_bytes + shard.failed_wire_bytes;
    SimTime leg = 0.0;
    SimTime at = enter;
    for (HopState &hop : hops) {
        const SimTime start = std::max(at, hop.free_at);
        at = start + (static_cast<double>(bytes) / hop.bytes_per_second +
                      (backoff + hop.latency_seconds));
        hop.free_at = at;
        leg += at - start;
        backoff = 0.0;
    }
    service += leg;
    return at;
}

/** Offload leg of uncontendedTiming(): @p held has one entry per
 *  staging buffer. */
OffloadTiming
offloadLeg(std::span<const ShardTransfer> shards, std::span<HopState> hops,
           std::span<HeldShard> held, const PipelineSpec &spec,
           double gpu_edge_rate, obs::HistogramMetric *latency)
{
    OffloadTiming timing;
    timing.shard_count = shards.size();
    SimTime engine_free = 0.0;
    size_t holding = 0;
    for (const ShardTransfer &shard : shards) {
        // With every staging buffer taken, the first to land frees one.
        SimTime start = engine_free;
        size_t buffer = holding;
        if (holding < held.size()) {
            ++holding;
        } else {
            buffer = static_cast<size_t>(
                std::min_element(held.begin(), held.end(),
                                 [](const HeldShard &a, const HeldShard &b) {
                                     return a.landed < b.landed;
                                 }) -
                held.begin());
            start = std::max(start, held[buffer].landed);
        }
        const SimTime compress = static_cast<double>(shard.raw_bytes) /
            spec.compress_bandwidth;
        engine_free = start + compress;
        const SimTime landed = walkRoute(
            hops, shard, engine_free,
            backoffSeconds(shard.attempts, spec.backoff_base_seconds),
            timing.wire_seconds);
        held[buffer].landed = landed;
        timing.compress_seconds += compress;
        timing.retry_stall_seconds += retryStallSeconds(
            shard, gpu_edge_rate, spec.backoff_base_seconds);
        timing.overlapped_seconds =
            std::max(timing.overlapped_seconds, landed);
        if (latency != nullptr)
            latency->record(landed - engine_free);
    }
    finalizeOverlapFraction(timing);
    return timing;
}

/** Prefetch leg of uncontendedTiming(): @p hops walk the route from
 *  the host side, and @p held has one entry per staging buffer. */
PrefetchTiming
prefetchLeg(std::span<const ShardTransfer> shards, std::span<HopState> hops,
            std::span<HeldShard> held, const PipelineSpec &spec,
            double gpu_edge_rate, obs::HistogramMetric *latency)
{
    PrefetchTiming timing;
    timing.shard_count = shards.size();
    SimTime engine_free = 0.0;
    size_t next = 0;
    size_t holding = 0;
    for (size_t expanded = 0; expanded < shards.size(); ++expanded) {
        // Every free staging buffer takes the next shard onto the route:
        // all of them at t=0, then one each time an expansion ends.
        while (next < shards.size() && holding < held.size()) {
            const ShardTransfer &shard = shards[next];
            const SimTime landed = walkRoute(
                hops, shard, engine_free,
                backoffSeconds(shard.attempts, spec.backoff_base_seconds),
                timing.wire_seconds);
            if (latency != nullptr)
                latency->record(landed - engine_free);
            timing.decompress_seconds +=
                static_cast<double>(shard.raw_bytes) /
                spec.decompress_bandwidth;
            timing.retry_stall_seconds += retryStallSeconds(
                shard, gpu_edge_rate, spec.backoff_base_seconds);
            held[holding++] = {landed, next++};
        }
        // The serial engine expands shards in the order they land (an
        // earlier shard first on a tie, as its landing fires first).
        HeldShard *first = std::min_element(
            held.data(), held.data() + holding,
            [](const HeldShard &a, const HeldShard &b) {
                return a.landed < b.landed ||
                    (a.landed == b.landed && a.shard < b.shard);
            });
        engine_free = std::max(engine_free, first->landed) +
            static_cast<double>(shards[first->shard].raw_bytes) /
                spec.decompress_bandwidth;
        *first = held[--holding];
    }
    timing.overlapped_seconds = engine_free;
    finalizeOverlapFraction(timing);
    return timing;
}

} // namespace

DuplexTiming
uncontendedTiming(const Topology &topology, const Route &route,
                  std::span<const ShardTransfer> offload_shards,
                  std::span<const ShardTransfer> prefetch_shards,
                  const PipelineSpec &spec, obs::MetricsRegistry *metrics)
{
    CDMA_ASSERT(spec.compress_bandwidth > 0.0 &&
                    spec.decompress_bandwidth > 0.0,
                "pipeline model needs positive engine bandwidths");
    CDMA_ASSERT(spec.staging_buffers >= 1,
                "need at least one staging buffer");
    DuplexTiming timing;
    timing.offload.shard_count = offload_shards.size();
    timing.prefetch.shard_count = prefetch_shards.size();
    if (offload_shards.empty() && prefetch_shards.empty())
        return timing;

    obs::HistogramMetric *off_latency = nullptr;
    obs::HistogramMetric *pre_latency = nullptr;
    if (metrics != nullptr) {
        off_latency =
            &metrics->histogram("transfer.offload.shard_latency_seconds");
        pre_latency =
            &metrics->histogram("transfer.prefetch.shard_latency_seconds");
    }
    // Per-thread buffers the calls reuse: pricing calls back into
    // nothing that could price again.
    static thread_local std::vector<HopState> hops;
    static thread_local std::vector<HeldShard> held;
    hops.clear();
    for (const RouteHop &hop : route.hops) {
        const LinkProps &props = topology.link(hop.link).props;
        hops.push_back({props.bytes_per_second, props.latency_seconds});
    }
    held.assign(spec.staging_buffers, HeldShard{});
    const double gpu_edge_rate = gpuEdgeRate(topology, route);

    timing.offload = offloadLeg(offload_shards, hops, held, spec,
                                gpu_edge_rate, off_latency);
    // The prefetch leg walks the same edges from the host side, on their
    // other (full-duplex) direction: fresh FIFOs.
    std::reverse(hops.begin(), hops.end());
    for (HopState &hop : hops)
        hop.free_at = 0.0;
    timing.prefetch = prefetchLeg(prefetch_shards, hops, held, spec,
                                  gpu_edge_rate, pre_latency);
    timing.makespan_seconds = std::max(timing.offload.overlapped_seconds,
                                       timing.prefetch.overlapped_seconds);
    return timing;
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

    const double gpu_edge_rate =
        gpuEdgeRate(network_.topology(), offload_route_);
    for (const ShardTransfer &shard : offload_shards_) {
        timing.offload.compress_seconds +=
            static_cast<double>(shard.raw_bytes) /
            spec_.compress_bandwidth;
        timing.offload.retry_stall_seconds += retryStallSeconds(
            shard, gpu_edge_rate, spec_.backoff_base_seconds);
    }
    timing.offload.wire_seconds = off_wire_seconds_;
    timing.offload.overlapped_seconds = last_off_drain_;
    finalizeOverlapFraction(timing.offload);

    timing.prefetch.wire_seconds = pre_wire_seconds_;
    for (const ShardTransfer &shard : prefetch_shards_) {
        timing.prefetch.decompress_seconds +=
            static_cast<double>(shard.raw_bytes) /
            spec_.decompress_bandwidth;
        timing.prefetch.retry_stall_seconds += retryStallSeconds(
            shard, gpu_edge_rate, spec_.backoff_base_seconds);
    }
    timing.prefetch.overlapped_seconds = last_expand_;
    finalizeOverlapFraction(timing.prefetch);

    timing.makespan_seconds = std::max(last_off_drain_, last_expand_);
    timing.offload_contention_seconds = off_contention_;
    timing.prefetch_contention_seconds = pre_contention_;
    return timing;
}

} // namespace cdma
