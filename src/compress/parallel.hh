/**
 * @file
 * Parallel window fan-out over any windowed Compressor — the software
 * analogue of the paper's replicated compression/decompression pipelines
 * (Section V-B provisions enough CPE/DPE replicas that the ZVC engine
 * matches the DMA link rate). Windows are independent by construction, so
 * a buffer's window list is partitioned into contiguous shards, each lane
 * compresses its shard into a privately reserved payload via the
 * streaming compressWindowInto() API, and the shards are stitched with
 * pre-sized bulk copies. The result is bit-identical to the serial
 * Compressor::compress() on every input.
 */

#ifndef CDMA_COMPRESS_PARALLEL_HH
#define CDMA_COMPRESS_PARALLEL_HH

#include <functional>
#include <memory>

#include "common/thread_pool.hh"
#include "compress/compressor.hh"

namespace cdma {

namespace obs {
class HistogramMetric;
class MetricsRegistry;
} // namespace obs

/**
 * One compressed shard of a sharded compression: a contiguous group of
 * windows with its payload and framing, in window order. Concatenating
 * the shards of one input reproduces Compressor::compress() exactly.
 */
struct CompressedShard {
    uint64_t index = 0;        ///< shard position in the stream
    uint64_t first_window = 0; ///< absolute index of the first window
    uint64_t raw_bytes = 0;    ///< uncompressed bytes this shard covers
    ByteVec payload;           ///< concatenated window payloads
    std::vector<uint32_t> window_sizes; ///< per-window compressed sizes
    /**
     * CRC-32C of the payload, computed on the compress side (in the
     * worker lanes, off the per-window hot path) and carried with the
     * shard across the spill arena so the prefetch side can verify the
     * bytes that actually crossed the wire before expanding them.
     */
    uint32_t crc32c = 0;
    /**
     * True when the shard was degraded to raw framing (payload is the
     * uncompressed source bytes, window_sizes are the raw sizes) after
     * repeated transfer faults — the fault-tolerance analogue of the
     * store-raw fallback.
     */
    bool raw_framed = false;
    /**
     * Codec that framed the payload. Stamped at compress time and
     * carried through the spill arena so the prefetch side dispatches
     * the matching decoder per shard — shards of one spill may differ
     * when the adaptive policy switches codecs between offloads.
     */
    Codec codec = Codec::Zvc;

    /**
     * Bytes this shard puts on the wire under the store-raw fallback
     * (every window transfers as min(compressed, raw) bytes).
     * @param window_bytes Compression window the shard was cut with.
     */
    uint64_t effectiveBytes(uint64_t window_bytes) const;
};

/** Multi-threaded wrapper around a serial windowed compressor. */
class ParallelCompressor
{
  public:
    /**
     * @param algorithm Codec replicated across the lanes.
     * @param window_bytes Compression window.
     * @param lanes Worker lanes (including the caller). 0 = one per
     *        hardware thread; 1 = serial (no pool, no synchronization).
     * @param kernels Kernel backend for the codec's hot ops; nullptr =
     *        runtime dispatch. The codec object is shared by every lane,
     *        so all lane workers inherit this single dispatch decision.
     */
    explicit ParallelCompressor(
        Algorithm algorithm,
        uint64_t window_bytes = Compressor::kDefaultWindowBytes,
        unsigned lanes = 0, const KernelOps *kernels = nullptr);

    /** Wrap an existing codec (must be stateless/thread-safe, as all
     *  in-tree codecs are). */
    ParallelCompressor(std::unique_ptr<Compressor> codec, unsigned lanes);

    /** Algorithm tag of the underlying codec. */
    std::string name() const { return codec_->name(); }

    /** Kernel backend name the lanes compress with ("scalar", "avx2"). */
    const char *backendName() const;

    /** Compression window in bytes. */
    uint64_t windowBytes() const { return codec_->windowBytes(); }

    /** Execution lanes. */
    unsigned lanes() const { return pool_ ? pool_->lanes() : 1; }

    /** The wrapped serial codec. */
    const Compressor &serial() const { return *codec_; }

    /** The codec tag stamped on every shard this compressor frames. */
    Codec codecTag() const { return codec_tag_; }

    /**
     * Record wall-clock kernel latency distributions into @p metrics
     * (non-owning; nullptr disables, the default). Every shard
     * compression / expansion is then timed into the
     * `kernel.compress.wall_seconds.<backend>` /
     * `kernel.expand.wall_seconds.<backend>` histograms — real elapsed
     * time of the real kernels, including on worker lanes.
     */
    void setMetrics(obs::MetricsRegistry *metrics);

    /**
     * Compress @p input with the window space fanned out across the
     * lanes. Output is byte-identical to serial().compress(input).
     */
    CompressedBuffer compress(std::span<const uint8_t> input) const;

    /**
     * Invert compress(), decompressing windows in parallel. A corrupted
     * or truncated buffer returns the first failing window's decode
     * error (by window order), annotated with the window index.
     */
    StatusOr<ByteVec> decompress(const CompressedBuffer &buffer) const;

    /** Effective (store-raw floored) ratio of @p input. */
    double measureRatio(std::span<const uint8_t> input) const;

    /** Receives each compressed shard exactly once, in shard order. */
    using ShardConsumer = std::function<void(CompressedShard &&)>;

    /**
     * One reconstructed shard of a sharded decompression: the window
     * group's position and byte counts. The raw bytes themselves land
     * directly in the caller's output region (offset raw_offset), so
     * the notification carries accounting, not data.
     */
    struct DecompressedShard {
        uint64_t index = 0;        ///< shard position in the stream
        uint64_t first_window = 0; ///< absolute index of the first window
        uint64_t raw_offset = 0;   ///< byte offset into the output region
        uint64_t raw_bytes = 0;    ///< reconstructed bytes of this shard
        /** Store-raw-floored bytes the shard cost on the wire. */
        uint64_t wire_bytes = 0;
    };

    /** Receives each decompressed shard exactly once, in shard order. */
    using DecompressedShardConsumer =
        std::function<void(const DecompressedShard &)>;

    /**
     * Shard-streaming compression for the offload pipeline: the window
     * space is cut into shards of @p windows_per_shard consecutive
     * windows (the last may be short), every lane — the calling thread
     * included — compresses shards concurrently through
     * runOrderedShardFanOut(), and @p consumer is invoked on the
     * calling thread for shard 0, 1, 2, ... as soon as each shard — and
     * every shard before it — has been compressed. The consumer
     * therefore drains shard k while the other lanes are still
     * compressing shards k+1, k+2, ...; with one lane, shards are
     * compressed and consumed alternately inline. Each shard's payload
     * is freed when its consumer call returns (unless the consumer
     * moved it out), so at most the shards in flight are held at once.
     * Completion order is deterministic regardless of lane count. An
     * empty input produces no shards.
     */
    void compressShards(std::span<const uint8_t> input,
                        uint64_t windows_per_shard,
                        const ShardConsumer &consumer) const;

    /**
     * Shard-streaming decompression for the prefetch pipeline — the
     * inverse of compressShards(): @p buffer's window space is cut into
     * shards of @p windows_per_shard consecutive windows (the last may
     * be short), every lane — the calling thread included —
     * reconstructs shards concurrently through runOrderedShardFanOut(),
     * straight into their slots of @p out (which must hold
     * buffer.original_bytes), and @p consumer is invoked on the calling
     * thread for shard 0, 1, 2, ... as soon as each shard — and every
     * shard before it — has been reconstructed. With one lane, shards
     * are reconstructed and consumed alternately inline. Completion
     * order is deterministic regardless of lane count; an empty buffer
     * produces no shards.
     *
     * A corrupt or truncated buffer returns the first failing shard's
     * decode error (by shard order), annotated with the shard index;
     * the consumer has then been invoked exactly for the shards before
     * the failing one, the shards not yet claimed are abandoned, and
     * @p out is unspecified from the failing shard's slot onward.
     */
    Status decompressShards(const CompressedBuffer &buffer,
                            uint64_t windows_per_shard, uint8_t *out,
                            const DecompressedShardConsumer &consumer) const;

    /**
     * The ordered shard fan-out behind compressShards(),
     * decompressShards() and the arena prefetch: every lane runs
     * @p work on shards it claims from one shared counter, and the
     * calling thread runs @p drain for shard 0, 1, 2, ... as soon as
     * each shard — and every shard before it — has completed. The
     * caller is a lane too: while the next shard to drain is still
     * being worked elsewhere, it claims and works an unclaimed shard,
     * then checks again. With one lane (or one shard) it runs
     * work(s), drain(s) for each shard in turn, inline.
     *
     * @p work may run on any lane, concurrently with other shards'
     * work and with @p drain, so it must only touch its own shard's
     * state. @p drain returns false to stop: unclaimed shards are
     * abandoned and no later shard is drained. Every exit path
     * (including a throwing @p drain) joins the helpers before the
     * frame unwinds; a throwing @p work, on a worker or on the caller,
     * abandons the remaining shards and the first such exception is
     * rethrown here after the join.
     */
    template <typename Work, typename Drain>
    void runOrderedShardFanOut(uint64_t shards, Work &&work,
                               Drain &&drain) const
    {
        if (pool_ && pool_->hasWorkers() && shards >= 2) {
            fanOutOnLanes(shards, work, drain);
            return;
        }
        // One lane: work and drain shards alternately on this thread,
        // with no type erasure and no synchronization.
        for (uint64_t s = 0; s < shards; ++s) {
            work(s);
            if (!drain(s))
                return;
        }
    }

  private:
    /** runOrderedShardFanOut() across the pool workers and the caller
     *  (requires workers and shards >= 2). */
    void fanOutOnLanes(uint64_t shards,
                       const std::function<void(uint64_t)> &work,
                       const std::function<bool(uint64_t)> &drain) const;

    /** Compress windows [first, last) of @p input into @p shard. */
    void compressShardInto(std::span<const uint8_t> input, uint64_t first,
                           uint64_t last, CompressedShard &shard) const;

    std::unique_ptr<Compressor> codec_;
    Codec codec_tag_ = Codec::Zvc; ///< cached codecFromName(codec_->name())
    std::unique_ptr<ThreadPool> pool_; ///< null when lanes == 1
    /** Kernel-latency histograms; null when metrics are disabled. */
    obs::HistogramMetric *compress_hist_ = nullptr;
    obs::HistogramMetric *expand_hist_ = nullptr;
};

} // namespace cdma

#endif // CDMA_COMPRESS_PARALLEL_HH
