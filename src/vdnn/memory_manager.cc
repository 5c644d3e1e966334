#include "vdnn/memory_manager.hh"

#include <algorithm>

#include "cdma/transfer_engine.hh"
#include "common/logging.hh"

namespace cdma {

std::string
offloadPolicyName(OffloadPolicy policy)
{
    switch (policy) {
      case OffloadPolicy::All:      return "offload-all";
      case OffloadPolicy::ConvOnly: return "offload-conv";
    }
    panic("unreachable policy %d", static_cast<int>(policy));
}

namespace {

bool
isConvLike(const LayerDesc &layer)
{
    return layer.kind == "conv" || layer.kind == "inception" ||
        layer.kind == "fire";
}

} // namespace

VdnnMemoryManager::VdnnMemoryManager(const NetworkDesc &network,
                                     int64_t batch, OffloadPolicy policy)
    : network_(network), batch_(batch), policy_(policy)
{
    CDMA_ASSERT(batch > 0, "batch must be positive");
    CDMA_ASSERT(!network_.layers.empty(), "network %s has no layers",
                network_.name.c_str());

    // Row i's input is row i-1's output; row 0's input is the image
    // batch itself.
    const uint64_t input_bytes = static_cast<uint64_t>(
        network_.input_channels * network_.input_height *
        network_.input_width * 4 * batch_);
    if (policy_ == OffloadPolicy::All || isConvLike(network_.layers[0]))
        offloads_.push_back({0, "input", input_bytes});
    for (size_t i = 1; i < network_.layers.size(); ++i) {
        if (policy_ == OffloadPolicy::ConvOnly &&
            !isConvLike(network_.layers[i])) {
            continue;
        }
        const LayerDesc &producer = network_.layers[i - 1];
        offloads_.push_back(
            {i, producer.name,
             static_cast<uint64_t>(producer.bytesPerImage()) *
                 static_cast<uint64_t>(batch_)});
    }
}

std::string
transferDirectionName(TransferDirection direction)
{
    switch (direction) {
      case TransferDirection::Offload:  return "offload";
      case TransferDirection::Prefetch: return "prefetch";
    }
    panic("unreachable direction %d", static_cast<int>(direction));
}

std::vector<TransferOp>
VdnnMemoryManager::prefetchSchedule() const
{
    std::vector<TransferOp> prefetches(offloads_.rbegin(),
                                       offloads_.rend());
    return prefetches;
}

std::vector<DirectedTransferOp>
VdnnMemoryManager::duplexSchedule() const
{
    std::vector<DirectedTransferOp> schedule;
    schedule.reserve(2 * offloads_.size());
    for (const TransferOp &op : offloads_)
        schedule.push_back({TransferDirection::Offload, op});
    for (const TransferOp &op : prefetchSchedule())
        schedule.push_back({TransferDirection::Prefetch, op});
    return schedule;
}

uint64_t
VdnnMemoryManager::totalOffloadBytes() const
{
    uint64_t total = 0;
    for (const auto &op : offloads_)
        total += op.bytes;
    return total;
}

std::vector<TransferPlan>
VdnnMemoryManager::plannedOffloads(const CdmaEngine &engine,
                                   const std::vector<double> &output_ratios,
                                   bool raw_dma) const
{
    CDMA_ASSERT(output_ratios.empty() ||
                    output_ratios.size() == network_.layers.size(),
                "need one output ratio per layer (%zu given, %zu layers)",
                output_ratios.size(), network_.layers.size());
    std::vector<TransferPlan> plans;
    plans.reserve(offloads_.size());
    for (const auto &op : offloads_) {
        if (raw_dma) {
            // The vDNN baseline's DMA copies raw bytes with no cDMA
            // engine in the path: plain PCIe occupancy, no compression
            // pipeline even when the engine models one.
            TransferPlan plan;
            plan.label = op.label;
            plan.raw_bytes = op.bytes;
            plan.wire_bytes = op.bytes;
            plan.ratio = 1.0;
            plan.required_fetch_bandwidth = engine.config().gpu.pcie_bandwidth;
            plan.seconds = engine.transferSeconds(op.bytes, 1.0);
            plans.push_back(std::move(plan));
            continue;
        }
        // The transfer paired with row i carries row i-1's output (= row
        // i's input); the raw input image batch (row 0) never compresses.
        double ratio = 1.0;
        if (!output_ratios.empty() && op.layer_index > 0)
            ratio = std::max(1.0, output_ratios[op.layer_index - 1]);
        plans.push_back(engine.planFromRatio(op.label, op.bytes, ratio));
    }
    return plans;
}

std::vector<TransferPlan>
VdnnMemoryManager::plannedAdaptiveOffloads(
    const CdmaEngine &engine,
    const std::vector<double> &output_densities) const
{
    CDMA_ASSERT(output_densities.size() == network_.layers.size(),
                "need one output density per layer (%zu given, %zu "
                "layers)",
                output_densities.size(), network_.layers.size());
    std::vector<TransferPlan> plans;
    plans.reserve(offloads_.size());
    for (const auto &op : offloads_) {
        // Same alignment as plannedOffloads: the transfer paired with
        // row i carries row i-1's output, and the raw input image batch
        // (row 0) never compresses, so the policy never sees it.
        if (op.layer_index == 0) {
            plans.push_back(engine.planFromRatio(op.label, op.bytes, 1.0));
            continue;
        }
        plans.push_back(engine.planFromDensity(
            op.label, op.bytes, output_densities[op.layer_index - 1]));
    }
    return plans;
}

std::vector<TransferPlan>
VdnnMemoryManager::plannedPrefetches(const CdmaEngine &engine,
                                     const std::vector<double> &output_ratios,
                                     bool raw_dma) const
{
    auto plans = plannedOffloads(engine, output_ratios, raw_dma);
    std::reverse(plans.begin(), plans.end());
    // The backward direction runs the mirrored pipeline (wire in, then
    // decompress); when the engine modeled it, the prefetch makespan —
    // not the offload one — is what the backward pass waits on.
    for (TransferPlan &plan : plans) {
        if (plan.prefetch.shard_count > 0)
            plan.seconds = plan.prefetch.overlapped_seconds;
    }
    return plans;
}

uint64_t
VdnnMemoryManager::weightBytes(const LayerDesc &layer)
{
    if (layer.kind == "pool")
        return 0;
    // For conv-like layers macs = spatial x weight_count, so the weight
    // count is macs / spatial; for fc, spatial is 1 and macs equals the
    // weight count directly.
    const auto spatial =
        static_cast<uint64_t>(layer.height * layer.width);
    return spatial > 0 ? layer.macs_per_image / spatial * 4 : 0;
}

MemoryFootprint
VdnnMemoryManager::footprint() const
{
    MemoryFootprint fp;
    for (const auto &layer : network_.layers) {
        // weights + an equal-size weight-gradient buffer
        fp.weights_bytes += 2 * weightBytes(layer);
        fp.activations_bytes +=
            static_cast<uint64_t>(layer.bytesPerImage()) *
            static_cast<uint64_t>(batch_);
    }
    // Backpropagation also materializes a gradient map per activation
    // map (dX/dY in Figure 1); together they are the >90% of training
    // memory the paper cites in Section III.
    fp.gradients_bytes = fp.activations_bytes;
    fp.baseline_total =
        fp.weights_bytes + fp.activations_bytes + fp.gradients_bytes;

    // vDNN working set: weights stay resident; per offloaded layer only
    // its input and output activation maps (and their gradients during
    // backward) are live at once. Activations whose maps are never
    // offloaded (ConvOnly policy) stay resident for the whole iteration.
    uint64_t peak_pair = 0;
    std::vector<bool> offloaded(network_.layers.size() + 1, false);
    for (const auto &op : offloads_) {
        offloaded[op.layer_index] = true; // row's input map is offloaded
        const uint64_t in_bytes = op.bytes;
        const uint64_t out_bytes = static_cast<uint64_t>(
            network_.layers[op.layer_index].bytesPerImage()) *
            static_cast<uint64_t>(batch_);
        peak_pair = std::max(peak_pair, in_bytes + out_bytes);
    }
    uint64_t resident = 0;
    for (size_t r = 0; r + 1 < network_.layers.size(); ++r) {
        // Row r's output is offloaded iff row r+1's input is scheduled.
        if (!offloaded[r + 1]) {
            resident += static_cast<uint64_t>(
                network_.layers[r].bytesPerImage()) *
                static_cast<uint64_t>(batch_);
        }
    }
    fp.vdnn_peak = fp.weights_bytes + 2 * peak_pair + resident;
    return fp;
}

MemoryFootprint
VdnnMemoryManager::footprint(const CdmaEngine &engine) const
{
    MemoryFootprint fp = footprint();
    // A disabled-compression engine is the plain vDNN baseline: no cDMA
    // hardware, no staging buffers to account for.
    if (!engine.config().compression.enabled)
        return fp;
    // The offload pipeline's staging shards live in GPU DRAM next to the
    // DMA unit (Section V-C); they are part of the virtualized working
    // set whenever a cDMA engine is attached.
    fp.staging_bytes = static_cast<uint64_t>(engine.config().transfer.staging_buffers) *
        TransferEngine(engine).shardWindows() *
        engine.config().compression.window_bytes;
    fp.vdnn_peak += fp.staging_bytes;
    return fp;
}

} // namespace cdma
