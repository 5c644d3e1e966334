#include "compress/parallel.hh"

#include <algorithm>
#include <utility>

#include "common/bits.hh"
#include "common/logging.hh"
#include "compress/kernels/kernels.hh"
#include "obs/metrics.hh"

namespace cdma {

uint64_t
CompressedShard::effectiveBytes(uint64_t window_bytes) const
{
    return storeRawFlooredBytes(window_sizes, raw_bytes, window_bytes);
}

ParallelCompressor::ParallelCompressor(Algorithm algorithm,
                                       uint64_t window_bytes,
                                       unsigned lanes,
                                       const KernelOps *kernels)
    : ParallelCompressor(makeCompressor(algorithm, window_bytes, kernels),
                         nullptr)
{
    if (lanes != 1) {
        own_pool_ = std::make_unique<ThreadPool>(lanes);
        pool_ = own_pool_.get();
    }
}

const char *
ParallelCompressor::backendName() const
{
    return codec_->kernels().name;
}

void
ParallelCompressor::setMetrics(obs::MetricsRegistry *metrics)
{
    if (metrics == nullptr) {
        compress_hist_ = nullptr;
        expand_hist_ = nullptr;
        return;
    }
    const std::string backend = backendName();
    compress_hist_ =
        &metrics->histogram("kernel.compress.wall_seconds." + backend);
    expand_hist_ =
        &metrics->histogram("kernel.expand.wall_seconds." + backend);
}

ParallelCompressor::ParallelCompressor(std::unique_ptr<Compressor> codec,
                                       ThreadPool *pool)
    : codec_(std::move(codec)), pool_(pool)
{
    CDMA_ASSERT(codec_ != nullptr, "ParallelCompressor needs a codec");
    codec_tag_ = codecFromName(codec_->name());
}

uint64_t
ParallelCompressor::laneShardWindows(uint64_t windows) const
{
    return std::max<uint64_t>(1, ceilDiv(windows, lanes()));
}

uint64_t
ParallelCompressor::payloadBound(uint64_t input_bytes, uint64_t first,
                                 uint64_t last) const
{
    const uint64_t window_bytes = codec_->windowBytes();
    uint64_t bound = 0;
    for (uint64_t w = first; w < last; ++w) {
        bound += codec_->compressedBound(
            std::min<uint64_t>(window_bytes, input_bytes - w * window_bytes));
    }
    return bound;
}

CompressedBuffer
ParallelCompressor::compress(std::span<const uint8_t> input) const
{
    const uint64_t window_bytes = codec_->windowBytes();
    const uint64_t windows = ceilDiv(input.size(), window_bytes);
    const uint64_t per_shard = laneShardWindows(windows);
    const uint64_t shards = ceilDiv(windows, per_shard);

    CompressedBuffer out;
    out.original_bytes = input.size();
    out.window_bytes = window_bytes;
    out.codec = codec_tag_;

    // Shard 0 compresses into room reserved for the whole buffer, so the
    // drain adopts it without a copy (at one lane it is the whole
    // buffer) and appends every later shard in place with a bulk copy.
    std::vector<CompressedShard> results(shards);
    if (shards > 0) {
        results[0].payload.reserve(payloadBound(input.size(), 0, windows));
        results[0].window_sizes.reserve(windows);
    }
    runOrderedShardFanOut(
        shards,
        [&](uint64_t s) {
            // Wall-clock kernel timing (real elapsed time, also on
            // worker lanes); a null histogram disarms the timer.
            const obs::ScopedTimer timer(compress_hist_);
            const uint64_t first = s * per_shard;
            compressShardInto(input, first,
                              std::min(windows, first + per_shard),
                              results[s]);
        },
        [&](uint64_t s) {
            CompressedShard shard = std::move(results[s]);
            if (s == 0) {
                out.payload = std::move(shard.payload);
                out.window_sizes = std::move(shard.window_sizes);
            } else {
                out.payload.insert(out.payload.end(), shard.payload.begin(),
                                   shard.payload.end());
                out.window_sizes.insert(out.window_sizes.end(),
                                        shard.window_sizes.begin(),
                                        shard.window_sizes.end());
            }
            return true;
        });
    return out;
}

void
ParallelCompressor::compressShardInto(std::span<const uint8_t> input,
                                      uint64_t first, uint64_t last,
                                      CompressedShard &shard) const
{
    const uint64_t window_bytes = codec_->windowBytes();
    shard.codec = codec_tag_;
    shard.first_window = first;
    shard.window_sizes.reserve(last - first);
    // Reserve the shard's worst case once; every window then streams
    // in with zero further allocation.
    shard.payload.reserve(payloadBound(input.size(), first, last));
    for (uint64_t w = first; w < last; ++w) {
        const uint64_t offset = w * window_bytes;
        const uint64_t len =
            std::min<uint64_t>(window_bytes, input.size() - offset);
        const size_t before = shard.payload.size();
        codec_->compressWindowInto(input.subspan(offset, len),
                                   shard.payload);
        shard.window_sizes.push_back(
            static_cast<uint32_t>(shard.payload.size() - before));
        shard.raw_bytes += len;
    }
}

void
ParallelCompressor::compressShards(std::span<const uint8_t> input,
                                   uint64_t windows_per_shard,
                                   const ShardConsumer &consumer) const
{
    CDMA_ASSERT(windows_per_shard > 0, "shards need at least one window");
    const uint64_t window_bytes = codec_->windowBytes();
    const uint64_t windows = ceilDiv(input.size(), window_bytes);
    const uint64_t shards = ceilDiv(windows, windows_per_shard);

    std::vector<CompressedShard> results(shards);
    runOrderedShardFanOut(
        shards,
        [&](uint64_t s) {
            const obs::ScopedTimer timer(compress_hist_);
            CompressedShard &shard = results[s];
            shard.index = s;
            const uint64_t first = s * windows_per_shard;
            compressShardInto(input, first,
                              std::min(windows, first + windows_per_shard),
                              shard);
            // Integrity frame: one CRC-32C over the whole shard payload,
            // here in the worker lane (shard granularity, off the
            // per-window hot loops), so the prefetch side can verify the
            // wire bytes before expanding.
            shard.crc32c = codec_->kernels().crc32(0, shard.payload.data(),
                                                   shard.payload.size());
        },
        [&](uint64_t s) {
            // Move the shard out of its slot first, so its payload is
            // freed when the consumer returns, not when the whole input
            // has drained.
            CompressedShard shard = std::move(results[s]);
            consumer(std::move(shard));
            return true;
        });
}

StatusOr<ByteVec>
ParallelCompressor::decompress(const CompressedBuffer &buffer) const
{
    const Status framing = checkBufferFraming(buffer);
    if (!framing.ok())
        return framing;

    // One contiguous window group per lane, each starting at the payload
    // offset of its first window, so every group expands independently
    // straight into its output slot.
    const uint64_t windows = buffer.window_sizes.size();
    const uint64_t per_shard = laneShardWindows(windows);
    const uint64_t shards = ceilDiv(windows, per_shard);
    std::vector<uint64_t> starts(shards);
    uint64_t offset = 0;
    for (uint64_t w = 0; w < windows; ++w) {
        if (w % per_shard == 0)
            starts[w / per_shard] = offset;
        offset += buffer.window_sizes[w];
    }

    // Default-init output: every window slot is fully written below. A
    // group stops at its first failing window, and the drain stops at
    // the first failing group in shard order, so the reported window is
    // the first failing one in window order.
    ByteVec out(buffer.original_bytes);
    std::vector<Status> statuses(shards);
    Status first_error;
    runOrderedShardFanOut(
        shards,
        [&](uint64_t s) {
            const obs::ScopedTimer timer(expand_hist_);
            const uint64_t first = s * per_shard;
            statuses[s] = codec_->decompressWindows(
                buffer, first, std::min(windows, first + per_shard),
                starts[s], out.data());
        },
        [&](uint64_t s) {
            if (statuses[s].ok())
                return true;
            first_error = statuses[s];
            return false;
        });
    if (!first_error.ok())
        return first_error;
    return out;
}

double
ParallelCompressor::measureRatio(std::span<const uint8_t> input) const
{
    return compress(input).effectiveRatio();
}

} // namespace cdma
