#include "cdma/engine.hh"

#include <algorithm>

#include "cdma/transfer_engine.hh"
#include "common/logging.hh"
#include "compress/policy.hh"
#include "obs/metrics.hh"

namespace cdma {

namespace {

/**
 * Price @p train's round trip into @p plan: the offload leg and the
 * prefetch leg each alone, then both racing on the engine's route (the
 * map's offload against an equal-size prefetch). The train crosses
 * once per direction, so its integrity counts twice.
 */
void
priceRoundTrip(TransferPlan &plan, const TransferEngine &transfers,
               std::span<const ShardTransfer> train)
{
    plan.offload = transfers.duplexTiming(train, {}).offload;
    plan.prefetch = transfers.duplexTiming({}, train).prefetch;
    plan.duplex = transfers.duplexTiming(train, train);
    plan.seconds = plan.offload.overlapped_seconds;
    plan.integrity = TransferEngine::trainIntegrity(train);
    plan.integrity.accumulate(TransferEngine::trainIntegrity(train));
    plan.integrity.retry_stall_seconds =
        plan.offload.retry_stall_seconds +
        plan.prefetch.retry_stall_seconds;
}

} // namespace

std::string
timingModeName(TimingMode mode)
{
    switch (mode) {
      case TimingMode::CompressionFree: return "compression-free";
      case TimingMode::Overlapped:      return "overlapped";
    }
    panic("unreachable timing mode %d", static_cast<int>(mode));
}

std::string
codecModeName(CodecMode mode)
{
    switch (mode) {
      case CodecMode::Fixed:    return "fixed";
      case CodecMode::Adaptive: return "adaptive";
    }
    panic("unreachable codec mode %d", static_cast<int>(mode));
}

CdmaEngine::CdmaEngine(const CdmaConfig &config) : config_(config)
{
    CDMA_ASSERT(config.gpu.pcie_bandwidth > 0.0 &&
                    config.gpu.comp_bandwidth > 0.0,
                "invalid cDMA bandwidth configuration");
    const CompressionConfig &comp = config_.compression;
    CDMA_ASSERT(comp.mode == CodecMode::Fixed || comp.policy != nullptr,
                "CodecMode::Adaptive needs a CodecPolicyEngine "
                "(CompressionConfig::policy)");

    // One codec bank on one pool: a ParallelCompressor per codec, all
    // borrowing the engine's lanes. The prefetch side dispatches per
    // stored shard's codec tag and a caller may override the codec of
    // any offload, so every codec exists whatever the mode.
    if (comp.lanes != 1)
        pool_ = std::make_unique<ThreadPool>(comp.lanes);
    bank_.reserve(std::size(kAllCodecs));
    for (const Codec codec : kAllCodecs) {
        bank_.emplace_back(
            makeCodecCompressor(codec, comp.window_bytes, comp.kernels),
            pool_.get());
        bank_.back().setMetrics(config_.obs.metrics);
    }
}

const ParallelCompressor &
CdmaEngine::compressor() const
{
    return compressorFor(codecFor(config_.compression.algorithm));
}

const ParallelCompressor &
CdmaEngine::compressorFor(Codec codec) const
{
    return bank_[static_cast<size_t>(codec)];
}

const Compressor &
CdmaEngine::serialCodec(Codec codec) const
{
    return compressorFor(codec).serial();
}

void
recordIntegrity(obs::MetricsRegistry &metrics,
                const TransferIntegrity &integrity)
{
    metrics.counter("integrity.attempts").add(integrity.attempts);
    metrics.counter("integrity.retries").add(integrity.retries);
    metrics.counter("integrity.crc_failures").add(integrity.crc_failures);
    metrics.counter("integrity.link_faults").add(integrity.link_faults);
    metrics.counter("integrity.degraded_shards")
        .add(integrity.degraded_shards);
    metrics.counter("integrity.failed_wire_bytes")
        .add(integrity.failed_wire_bytes);
    metrics.histogram("integrity.retry_stall_seconds")
        .record(integrity.retry_stall_seconds);
}

double
CdmaEngine::capRatio() const
{
    return config_.gpu.comp_bandwidth / config_.gpu.pcie_bandwidth;
}

double
CdmaEngine::transferSeconds(uint64_t wire_bytes, double ratio) const
{
    double seconds = static_cast<double>(wire_bytes) /
        config_.gpu.pcie_effective_bandwidth;
    // Section VI: when ratio x PCIe_BW exceeds the provisioned COMP_BW,
    // compressed data cannot be produced at line rate; latency inflates
    // by (required / COMP_BW).
    const double required = ratio * config_.gpu.pcie_bandwidth;
    if (required > config_.gpu.comp_bandwidth)
        seconds *= required / config_.gpu.comp_bandwidth;
    return seconds;
}

TransferPlan
CdmaEngine::planTransfer(const std::string &label,
                         std::span<const uint8_t> data) const
{
    if (!config_.compression.enabled) {
        return planFromRatio(label, data.size(), 1.0);
    }
    // Adaptive mode: let the policy sample the actual bytes and pick
    // the codec; the plan is then built with that codec end to end and
    // the achieved ratio feeds back into the policy's model.
    CodecPolicyEngine *policy = config_.compression.policy;
    std::optional<PolicyDecision> decision;
    Codec codec = compressor().codecTag();
    if (config_.compression.mode == CodecMode::Adaptive &&
        policy != nullptr) {
        decision = policy->decide(label, data);
        codec = decision->codec;
    }
    TransferPlan plan;
    plan.label = label;
    plan.raw_bytes = data.size();
    plan.codec = codec;
    if (decision)
        plan.policy_predicted_seconds = decision->predicted_seconds;
    // The real per-shard compressed sizes. The store-raw floor applies
    // per window, so the shards' wire bytes sum to the stitched
    // buffer's effectiveBytes() whatever the shard size.
    const TransferEngine transfers(*this);
    std::vector<ShardTransfer> train;
    compressorFor(codec).compressShards(
        data, transfers.shardWindows(), [&](CompressedShard &&shard) {
            train.push_back(
                {shard.raw_bytes,
                 shard.effectiveBytes(config_.compression.window_bytes)});
            plan.wire_bytes += train.back().wire_bytes;
        });
    plan.ratio = plan.wire_bytes > 0
        ? static_cast<double>(plan.raw_bytes) /
            static_cast<double>(plan.wire_bytes)
        : 1.0;
    if (config_.transfer.timing_mode == TimingMode::Overlapped) {
        // Double-buffered pipeline over the shard train: compression
        // latency is explicit and the COMP_BW cap emerges when the
        // compression stage cannot feed the link. The prefetch leg
        // returns the same compressed shards, so both legs price one
        // train; a configured fault process is folded in as expected
        // retries.
        transfers.applyExpectedFaults(train);
        priceRoundTrip(plan, transfers, train);
    } else {
        plan.seconds = transferSeconds(plan.wire_bytes, plan.ratio);
    }
    plan.required_fetch_bandwidth =
        plan.ratio * config_.gpu.pcie_bandwidth;
    plan.fetch_capped =
        plan.required_fetch_bandwidth > config_.gpu.comp_bandwidth;
    // Close the policy loop with the ratio the codec actually achieved
    // on these bytes (the modeled ratio was an interpolation).
    if (decision)
        policy->observe(label, *decision, plan.raw_bytes, plan.ratio);
    return plan;
}

TransferPlan
CdmaEngine::planFromDensity(const std::string &label, uint64_t raw_bytes,
                            double density) const
{
    if (!config_.compression.enabled)
        return planFromRatio(label, raw_bytes, 1.0);
    CodecPolicyEngine *policy = config_.compression.policy;
    CDMA_ASSERT(config_.compression.mode == CodecMode::Adaptive &&
                    policy != nullptr,
                "planFromDensity needs CodecMode::Adaptive with a "
                "configured policy engine");
    const PolicyDecision decision =
        policy->decideFromDensity(label, raw_bytes, density);
    TransferPlan plan = planFromRatio(
        label, raw_bytes, std::max(1.0, decision.predicted_ratio));
    plan.codec = decision.codec;
    plan.policy_predicted_seconds = decision.predicted_seconds;
    return plan;
}

TransferPlan
CdmaEngine::planFromRatio(const std::string &label, uint64_t raw_bytes,
                          double ratio) const
{
    CDMA_ASSERT(ratio >= 1.0, "ratio %f below store-raw floor", ratio);
    TransferPlan plan;
    plan.label = label;
    plan.raw_bytes = raw_bytes;
    const double effective_ratio =
        config_.compression.enabled ? ratio : 1.0;
    plan.wire_bytes = static_cast<uint64_t>(
        static_cast<double>(raw_bytes) / effective_ratio);
    plan.ratio = effective_ratio;
    plan.required_fetch_bandwidth =
        plan.ratio * config_.gpu.pcie_bandwidth;
    plan.fetch_capped =
        plan.required_fetch_bandwidth > config_.gpu.comp_bandwidth;
    // With compression disabled there is no cDMA engine in the path, so
    // the overlap pipeline (and its compression-fetch leg) does not
    // apply: plain DMA occupancy regardless of timing mode.
    if (config_.transfer.timing_mode == TimingMode::Overlapped &&
        config_.compression.enabled) {
        // The expected shard train: uniform staging shards plus a
        // trailing partial, with a configured fault process folded in
        // as expected attempts and re-sent bytes.
        const TransferEngine transfers(*this);
        priceRoundTrip(plan, transfers,
                       transfers.shardTrain(raw_bytes, plan.ratio));
    } else {
        plan.seconds = transferSeconds(plan.wire_bytes, plan.ratio);
    }
    return plan;
}

} // namespace cdma
