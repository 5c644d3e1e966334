#include "compress/parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
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
                         lanes)
{
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
                                       unsigned lanes)
    : codec_(std::move(codec))
{
    CDMA_ASSERT(codec_ != nullptr, "ParallelCompressor needs a codec");
    codec_tag_ = codecFromName(codec_->name());
    if (lanes != 1)
        pool_ = std::make_unique<ThreadPool>(lanes);
}

CompressedBuffer
ParallelCompressor::compress(std::span<const uint8_t> input) const
{
    const uint64_t window_bytes = codec_->windowBytes();
    const uint64_t windows = ceilDiv(input.size(), window_bytes);
    // Fan-out only pays when there is enough work per lane; small buffers
    // (and the lanes == 1 configuration) take the serial path directly.
    if (!pool_ || windows < 2) {
        const obs::ScopedTimer timer(compress_hist_);
        return codec_->compress(input);
    }

    const uint64_t per_shard =
        ceilDiv(windows, std::min<uint64_t>(pool_->lanes(), windows));
    // Rounding per_shard up can make trailing shards redundant; recompute
    // the count so every shard owns at least one window.
    const uint64_t shards = ceilDiv(windows, per_shard);

    std::vector<CompressedShard> results(shards);

    pool_->parallelFor(shards, [&](uint64_t s) {
        const uint64_t first = s * per_shard;
        const uint64_t last = std::min(windows, first + per_shard);
        compressShardInto(input, first, last, results[s]);
    });

    // Stitch: sizes are known, so the shared buffers are sized exactly
    // once and shard payloads land with bulk copies.
    CompressedBuffer out;
    out.original_bytes = input.size();
    out.window_bytes = window_bytes;
    out.codec = codec_tag_;
    uint64_t payload_total = 0;
    for (const CompressedShard &shard : results)
        payload_total += shard.payload.size();
    out.payload.resize(payload_total);
    out.window_sizes.reserve(windows);
    uint64_t cursor = 0;
    for (const CompressedShard &shard : results) {
        std::memcpy(out.payload.data() + cursor, shard.payload.data(),
                    shard.payload.size());
        cursor += shard.payload.size();
        out.window_sizes.insert(out.window_sizes.end(),
                                shard.window_sizes.begin(),
                                shard.window_sizes.end());
    }
    return out;
}

void
ParallelCompressor::compressShardInto(std::span<const uint8_t> input,
                                      uint64_t first, uint64_t last,
                                      CompressedShard &shard) const
{
    // Wall-clock kernel timing (real elapsed time, also on worker
    // lanes); a null histogram disarms the timer.
    const obs::ScopedTimer timer(compress_hist_);
    const uint64_t window_bytes = codec_->windowBytes();
    shard.codec = codec_tag_;
    shard.first_window = first;
    shard.window_sizes.reserve(last - first);
    // Reserve the shard's worst case once; every window then streams
    // in with zero further allocation.
    uint64_t bound = 0;
    for (uint64_t w = first; w < last; ++w) {
        const uint64_t offset = w * window_bytes;
        bound += codec_->compressedBound(
            std::min<uint64_t>(window_bytes, input.size() - offset));
    }
    shard.payload.reserve(bound);
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
    // Integrity frame: one CRC-32C over the whole shard payload, here in
    // the worker lane (shard granularity, off the per-window hot loops),
    // so the prefetch side can verify the wire bytes before expanding.
    shard.crc32c = codec_->kernels().crc32(0, shard.payload.data(),
                                           shard.payload.size());
}

void
ParallelCompressor::fanOutOnLanes(
    uint64_t shards, const std::function<void(uint64_t)> &work,
    const std::function<bool(uint64_t)> &drain) const
{
    // Every lane claims shards from one counter and flags each as it
    // completes. The calling thread drains strictly in shard order;
    // while the next shard to drain is still being worked elsewhere, it
    // claims and works an unclaimed shard itself.
    std::atomic<uint64_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<bool> done(shards, false);
    uint64_t helpers_exited = 0;
    std::exception_ptr first_error;

    auto workShard = [&](uint64_t s) {
        try {
            work(s);
        } catch (...) {
            // First exception wins; abandon the remaining shards so
            // every lane exits promptly, and wake the drain (which
            // stops and rethrows after the join).
            std::lock_guard<std::mutex> lock(mutex);
            if (!first_error)
                first_error = std::current_exception();
            next.store(shards, std::memory_order_relaxed);
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            done[s] = true;
        }
        cv.notify_all();
    };

    const uint64_t helpers =
        std::min<uint64_t>(pool_->lanes() - 1, shards - 1);
    for (uint64_t h = 0; h < helpers; ++h) {
        pool_->submitDetached([&] {
            for (;;) {
                const uint64_t s =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (s >= shards)
                    break;
                workShard(s);
            }
            {
                // Notify while holding the mutex: once helpers_exited
                // reaches the target the caller may return and destroy
                // this frame's cv, so an unlocked notify could touch a
                // dead condition variable.
                std::lock_guard<std::mutex> lock(mutex);
                ++helpers_exited;
                cv.notify_all();
            }
        });
    }

    {
        // Helpers capture this frame's locals by reference, so every
        // exit path — including a throwing drain — abandons the
        // unclaimed shards and waits for all of them to leave their
        // pull loop before the frame unwinds.
        struct JoinGuard {
            std::atomic<uint64_t> &next;
            const uint64_t shards;
            std::mutex &mutex;
            std::condition_variable &cv;
            uint64_t &exited;
            const uint64_t target;
            ~JoinGuard()
            {
                next.store(shards, std::memory_order_relaxed);
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return exited == target; });
            }
        } join{next, shards, mutex, cv, helpers_exited, helpers};

        // True once shard s is done; false once any lane's work threw.
        auto ready = [&](uint64_t s) {
            for (;;) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (first_error)
                        return false;
                    if (done[s])
                        return true;
                }
                const uint64_t claimed =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (claimed < shards) {
                    workShard(claimed);
                    continue;
                }
                // Nothing left to claim: wait for the lane working s.
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock,
                        [&] { return done[s] || first_error != nullptr; });
                return first_error == nullptr;
            }
        };
        for (uint64_t s = 0; s < shards; ++s) {
            if (!ready(s) || !drain(s))
                break;
        }
    }
    // All helpers have left their pull loops (the guard joined them), so
    // the captured exception can be rethrown without racing the frame.
    if (first_error)
        std::rethrow_exception(first_error);
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

    auto bounds = [&](uint64_t s) {
        const uint64_t first = s * windows_per_shard;
        return std::pair{first,
                         std::min(windows, first + windows_per_shard)};
    };

    std::vector<CompressedShard> results(shards);
    runOrderedShardFanOut(
        shards,
        [&](uint64_t s) {
            results[s].index = s;
            const auto [first, last] = bounds(s);
            compressShardInto(input, first, last, results[s]);
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

namespace {

/**
 * A caller-supplied buffer that frames windows but no window size: the
 * window-count check would divide by zero, so it is rejected first.
 */
Status
zeroWindowStatus(uint64_t windows)
{
    return Status::corrupt(
        "compressed buffer frames %llu windows with a zero window size",
        static_cast<unsigned long long>(windows));
}

} // namespace

Status
ParallelCompressor::decompressShards(
    const CompressedBuffer &buffer, uint64_t windows_per_shard,
    uint8_t *out, const DecompressedShardConsumer &consumer) const
{
    CDMA_ASSERT(windows_per_shard > 0, "shards need at least one window");
    const uint64_t windows = buffer.window_sizes.size();
    if (windows == 0) {
        if (buffer.original_bytes != 0) {
            return Status::corrupt(
                "windowless buffer claims %llu original bytes",
                static_cast<unsigned long long>(buffer.original_bytes));
        }
        return Status();
    }
    // Framing consistency is a data property (the framing crossed the
    // wire with the payload), so inconsistencies report rather than
    // panic.
    const uint64_t window_bytes = buffer.window_bytes;
    if (window_bytes == 0)
        return zeroWindowStatus(windows);
    if (windows != ceilDiv(buffer.original_bytes, window_bytes)) {
        return Status::corrupt(
            "window count %llu inconsistent with original size %llu",
            static_cast<unsigned long long>(windows),
            static_cast<unsigned long long>(buffer.original_bytes));
    }

    // Per-window payload offsets (prefix sum), so every shard can be
    // reconstructed independently straight into its output slot.
    std::vector<uint64_t> offsets(windows + 1, 0);
    for (uint64_t w = 0; w < windows; ++w)
        offsets[w + 1] = offsets[w] + buffer.window_sizes[w];
    if (offsets[windows] != buffer.payload.size()) {
        return Status::truncated(
            "window sizes cover %llu bytes but the payload has %zu",
            static_cast<unsigned long long>(offsets[windows]),
            buffer.payload.size());
    }

    const uint64_t shards = ceilDiv(windows, windows_per_shard);
    auto bounds = [&](uint64_t s) {
        const uint64_t first = s * windows_per_shard;
        return std::pair{first,
                         std::min(windows, first + windows_per_shard)};
    };
    auto expandShard = [&](uint64_t s,
                           DecompressedShard &shard) -> Status {
        const obs::ScopedTimer timer(expand_hist_);
        const auto [first, last] = bounds(s);
        shard.index = s;
        shard.first_window = first;
        shard.raw_offset = first * window_bytes;
        for (uint64_t w = first; w < last; ++w) {
            const uint64_t out_offset = w * window_bytes;
            const uint64_t raw = std::min<uint64_t>(
                window_bytes, buffer.original_bytes - out_offset);
            const Status status = codec_->decompressWindowInto(
                std::span<const uint8_t>(
                    buffer.payload.data() + offsets[w],
                    buffer.window_sizes[w]),
                raw, out + out_offset);
            if (!status.ok()) {
                return status.withContext(
                    "shard %llu window %llu",
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(w));
            }
            shard.raw_bytes += raw;
            shard.wire_bytes +=
                std::min<uint64_t>(buffer.window_sizes[w], raw);
        }
        return Status();
    };

    // Each lane writes a disjoint output slot; the fan-out hands the
    // notifications to the consumer strictly in shard order while later
    // shards are still expanding. A shard's decode error travels with
    // its result: the drain stops at the first failed shard (in shard
    // order), later shards are abandoned or discarded, and the first
    // error is returned.
    std::vector<DecompressedShard> results(shards);
    std::vector<Status> statuses(shards);
    Status first_error;
    runOrderedShardFanOut(
        shards,
        [&](uint64_t s) { statuses[s] = expandShard(s, results[s]); },
        [&](uint64_t s) {
            if (!statuses[s].ok()) {
                first_error = statuses[s];
                return false;
            }
            consumer(results[s]);
            return true;
        });
    return first_error;
}

StatusOr<ByteVec>
ParallelCompressor::decompress(const CompressedBuffer &buffer) const
{
    const uint64_t windows = buffer.window_sizes.size();
    if (!pool_ || windows < 2) {
        const obs::ScopedTimer timer(expand_hist_);
        return codec_->decompress(buffer);
    }

    if (buffer.window_bytes == 0)
        return zeroWindowStatus(windows);
    if (windows != ceilDiv(buffer.original_bytes, buffer.window_bytes)) {
        return Status::corrupt(
            "window count %llu inconsistent with original size %llu",
            static_cast<unsigned long long>(windows),
            static_cast<unsigned long long>(buffer.original_bytes));
    }

    // Per-window payload offsets (prefix sum), so every window can be
    // decompressed independently straight into its output slot.
    std::vector<uint64_t> offsets(windows + 1, 0);
    for (uint64_t w = 0; w < windows; ++w)
        offsets[w + 1] = offsets[w] + buffer.window_sizes[w];
    if (offsets[windows] != buffer.payload.size()) {
        return Status::truncated(
            "window sizes cover %llu bytes but the payload has %zu",
            static_cast<unsigned long long>(offsets[windows]),
            buffer.payload.size());
    }

    // Default-init output: every window slot is fully written below.
    // Each lane records the first failing window it sees; the lowest
    // window index wins so the reported error is deterministic.
    ByteVec out(buffer.original_bytes);
    const uint64_t per_shard =
        ceilDiv(windows, std::min<uint64_t>(pool_->lanes(), windows));
    const uint64_t shards = ceilDiv(windows, per_shard);

    std::mutex error_mutex;
    Status first_error;
    uint64_t first_error_window = windows;
    pool_->parallelFor(shards, [&](uint64_t s) {
        const uint64_t first = s * per_shard;
        const uint64_t last = std::min(windows, first + per_shard);
        for (uint64_t w = first; w < last; ++w) {
            const uint64_t out_offset = w * buffer.window_bytes;
            const uint64_t raw = std::min<uint64_t>(
                buffer.window_bytes, buffer.original_bytes - out_offset);
            const Status status = codec_->decompressWindowInto(
                std::span<const uint8_t>(
                    buffer.payload.data() + offsets[w],
                    buffer.window_sizes[w]),
                raw, out.data() + out_offset);
            if (!status.ok()) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (w < first_error_window) {
                    first_error_window = w;
                    first_error = status.withContext(
                        "window %llu",
                        static_cast<unsigned long long>(w));
                }
                return;
            }
        }
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
