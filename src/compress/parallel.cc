#include "compress/parallel.hh"

#include <algorithm>
#include <cstring>
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

RoomShard
ParallelCompressor::compressShardTo(std::span<const uint8_t> input,
                                    uint64_t s, uint64_t windows_per_shard,
                                    uint8_t *dst,
                                    uint32_t *window_sizes) const
{
    // Wall-clock kernel timing (real elapsed time, also on worker
    // lanes); a null histogram disarms the timer.
    const obs::ScopedTimer timer(compress_hist_);
    const uint64_t window_bytes = codec_->windowBytes();
    const uint64_t windows = ceilDiv(input.size(), window_bytes);
    RoomShard shard;
    shard.index = s;
    shard.first_window = s * windows_per_shard;
    const uint64_t last =
        std::min(windows, shard.first_window + windows_per_shard);
    shard.window_count = last - shard.first_window;
    shard.raw_bytes = std::min<uint64_t>(input.size(), last * window_bytes) -
        shard.first_window * window_bytes;
    shard.payload_bytes = codec_->compressWindows(
        input, shard.first_window, last, dst, window_sizes);
    return shard;
}

CompressedBuffer
ParallelCompressor::compress(std::span<const uint8_t> input) const
{
    const uint64_t window_bytes = codec_->windowBytes();
    const uint64_t windows = ceilDiv(input.size(), window_bytes);
    const uint64_t per_shard = laneShardWindows(windows);
    const uint64_t shards = ceilDiv(windows, per_shard);
    const uint64_t stride = codec_->compressedBound(window_bytes);

    CompressedBuffer out;
    out.original_bytes = input.size();
    out.window_bytes = window_bytes;
    out.codec = codec_tag_;
    out.window_sizes.resize(windows);
    out.payload.resize(codec_->payloadBound(input.size(), 0, windows));
    uint8_t *const payload = out.payload.data();

    // Every shard compresses at its bound-strided start, and the drain
    // moves it down to where the shards before it ended. The move never
    // reaches past the shard's own worst case, so it never touches a
    // later shard a lane may still be writing.
    std::vector<uint64_t> sizes(shards);
    uint64_t end = 0;
    runOrderedShardFanOut(
        shards,
        [&](uint64_t s) {
            const uint64_t first = s * per_shard;
            sizes[s] = compressShardTo(input, s, per_shard,
                                       payload + first * stride,
                                       out.window_sizes.data() + first)
                           .payload_bytes;
        },
        [&](uint64_t s) {
            const uint64_t start = s * per_shard * stride;
            if (start != end)
                std::memmove(payload + end, payload + start, sizes[s]);
            end += sizes[s];
            return true;
        });
    out.payload.resize(end);
    return out;
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
            CompressedShard &shard = results[s];
            const uint64_t first = s * windows_per_shard;
            const uint64_t last = std::min(windows, first + windows_per_shard);
            // Sized to the shard's worst case once (ByteVec: no
            // zero-fill) and trimmed once.
            shard.payload.resize(
                codec_->payloadBound(input.size(), first, last));
            shard.window_sizes.resize(last - first);
            const RoomShard framed =
                compressShardTo(input, s, windows_per_shard,
                                shard.payload.data(),
                                shard.window_sizes.data());
            shard.payload.resize(framed.payload_bytes);
            shard.index = s;
            shard.first_window = first;
            shard.raw_bytes = framed.raw_bytes;
            shard.codec = codec_tag_;
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

uint64_t
ParallelCompressor::roomShardCount(uint64_t input_bytes,
                                   uint64_t windows_per_shard,
                                   std::span<const uint8_t> room,
                                   std::span<const uint32_t> window_sizes) const
{
    CDMA_ASSERT(windows_per_shard > 0, "shards need at least one window");
    const uint64_t windows = ceilDiv(input_bytes, codec_->windowBytes());
    CDMA_ASSERT(room.size() >=
                        codec_->payloadBound(input_bytes, 0, windows) &&
                    window_sizes.size() >= windows,
                "a %zu-byte room with %zu framing entries cannot hold %llu "
                "windows",
                room.size(), window_sizes.size(),
                static_cast<unsigned long long>(windows));
    return ceilDiv(windows, windows_per_shard);
}

RoomShard
ParallelCompressor::compressRoomShard(std::span<const uint8_t> input,
                                      uint64_t s, uint64_t windows_per_shard,
                                      std::span<uint8_t> room,
                                      std::span<uint32_t> window_sizes) const
{
    const uint64_t first = s * windows_per_shard;
    const uint64_t stride = codec_->compressedBound(codec_->windowBytes());
    RoomShard shard =
        compressShardTo(input, s, windows_per_shard,
                        room.data() + first * stride,
                        window_sizes.data() + first);
    shard.offset = first * stride;
    // The integrity frame, while the payload is still in cache.
    shard.crc32c = codec_->kernels().crc32(0, room.data() + shard.offset,
                                           shard.payload_bytes);
    return shard;
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
