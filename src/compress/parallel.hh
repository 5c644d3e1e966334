/**
 * @file
 * Parallel window fan-out over any windowed Compressor — the software
 * analogue of the paper's replicated compression/decompression pipelines
 * (Section V-B provisions enough CPE/DPE replicas that the ZVC engine
 * matches the DMA link rate). Windows are independent by construction, so
 * a buffer's window list is partitioned into contiguous shards and every
 * real byte goes through one ordered fan-out (ThreadPool::orderedFanOut):
 * the lanes compress or expand shards via the window pair
 * compressWindowTo() / decompressWindowInto(), and the calling thread
 * drains them in shard order. The result is bit-identical to the
 * serial Compressor::compress() on every input.
 *
 * Compressing lanes write straight into their destination. Shard s of
 * a stream starts at byte first_window × compressedBound(window) of
 * one room sized for every window's worst case, so no shard's worst
 * case reaches the next shard's start and the lanes need no
 * coordination: compressShardsInto() hands the room to the spill arena
 * as is, and compress() closes the gaps between shards in its drain.
 * compressShards() gives each shard a payload vector of its own.
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

/**
 * One shard of ParallelCompressor::compressShardsInto(): its windows
 * compressed in place in the caller's room and their sizes written into
 * the caller's framing. The payload is room[offset, offset +
 * payload_bytes); framing entries [first_window, first_window +
 * window_count) are the shard's.
 */
struct RoomShard {
    uint64_t index = 0;         ///< shard position in the stream
    uint64_t first_window = 0;  ///< absolute index of the first window
    uint64_t window_count = 0;  ///< windows the shard frames
    uint64_t raw_bytes = 0;     ///< uncompressed bytes the shard covers
    uint64_t offset = 0;        ///< payload start in the room
    uint64_t payload_bytes = 0; ///< compressed bytes at offset
    /** CRC-32C of the payload, computed on the lane that compressed it
     *  while the bytes were still in cache. */
    uint32_t crc32c = 0;
};

/** Multi-threaded wrapper around a serial windowed compressor. */
class ParallelCompressor
{
  public:
    /**
     * A compressor with a pool of its own.
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

    /**
     * Wrap an existing codec (must be stateless/thread-safe, as all
     * in-tree codecs are) on lanes borrowed from @p pool (non-owning;
     * the caller keeps it alive for this compressor's lifetime;
     * nullptr = one lane). The engine's codec bank shares one pool
     * this way.
     */
    ParallelCompressor(std::unique_ptr<Compressor> codec, ThreadPool *pool);

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
     * Compress @p input with the window space cut into one contiguous
     * shard per lane; the lanes compress the shards through
     * runOrderedShardFanOut() straight into the output's bound-strided
     * layout, and the drain moves each shard down to where the one
     * before it ended. Output is byte-identical to
     * serial().compress(input).
     */
    CompressedBuffer compress(std::span<const uint8_t> input) const;

    /**
     * Invert compress(): the checkBufferFraming() check, then one
     * contiguous window group per lane expanded through
     * runOrderedShardFanOut(). A corrupted buffer returns the framing
     * error, or the first failing window's decode error (by window
     * order) annotated with the window index — the same Status as
     * serial().decompress(buffer) at every lane count.
     */
    StatusOr<ByteVec> decompress(const CompressedBuffer &buffer) const;

    /** Effective (store-raw floored) ratio of @p input. */
    double measureRatio(std::span<const uint8_t> input) const;

    /** Receives each compressed shard exactly once, in shard order. */
    using ShardConsumer = std::function<void(CompressedShard &&)>;

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
     * The zero-copy shard stream: compressShards() with every shard
     * compressed straight into @p room, the caller's memory, so no
     * shard owns a payload. @p room holds
     * serial().payloadBound(input.size(), 0, windows) bytes and
     * @p window_sizes one entry per window (windows =
     * ceil(input / windowBytes())); neither needs initializing. Shard
     * s starts at byte first_window × compressedBound(windowBytes()),
     * and each lane computes its shard's CRC-32C there. The bytes
     * between one shard's payload end and the next shard's start are
     * unspecified. @p drain, a bool(const RoomShard &) callable, runs
     * on the calling thread for shard 0, 1, 2, ... as in
     * compressShards(); returning false stops the stream, and
     * unclaimed shards are never compressed. Framing and bytes are
     * identical to compressShards() on the same input.
     *
     * The drain is a template parameter, so a one-lane stream makes no
     * type-erased call, and the framing of the shards in flight lives
     * in a per-thread buffer the calls reuse: a stream allocates
     * nothing once that buffer has grown.
     */
    template <typename Drain>
    void compressShardsInto(std::span<const uint8_t> input,
                            uint64_t windows_per_shard,
                            std::span<uint8_t> room,
                            std::span<uint32_t> window_sizes,
                            Drain &&drain) const
    {
        const uint64_t shards = roomShardCount(
            input.size(), windows_per_shard, room, window_sizes);
        // Taken for the span of the call, so a drain that streams again
        // on this thread gets a buffer of its own.
        static thread_local std::vector<RoomShard> scratch;
        std::vector<RoomShard> framed = std::move(scratch);
        framed.resize(shards);
        runOrderedShardFanOut(
            shards,
            [&](uint64_t s) {
                framed[s] = compressRoomShard(input, s, windows_per_shard,
                                              room, window_sizes);
            },
            [&](uint64_t s) {
                const RoomShard &shard = framed[s];
                return drain(shard);
            });
        scratch = std::move(framed);
    }

    /**
     * The ordered shard fan-out behind compress(), decompress(), both
     * shard streams and the arena prefetch: ThreadPool::orderedFanOut()
     * over this compressor's lanes (see there for the ordering, stop and
     * exception contract). With one lane (or one shard) it runs
     * work(s), drain(s) for each shard in turn, inline.
     */
    template <typename Work, typename Drain>
    void runOrderedShardFanOut(uint64_t shards, Work &&work,
                               Drain &&drain) const
    {
        if (pool_ && pool_->hasWorkers() && shards >= 2) {
            pool_->orderedFanOut(
                shards, [&](uint64_t s, unsigned) { work(s); }, drain);
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
    /** Windows per shard when @p windows are cut one shard per lane. */
    uint64_t laneShardWindows(uint64_t windows) const;

    /**
     * Shards of a compressShardsInto() stream, after checking that
     * @p room and @p window_sizes can hold every window.
     */
    uint64_t roomShardCount(uint64_t input_bytes,
                            uint64_t windows_per_shard,
                            std::span<const uint8_t> room,
                            std::span<const uint32_t> window_sizes) const;

    /**
     * Shard @p s of a compressShardsInto() stream, compressed at its
     * bound-strided offset of @p room with its CRC-32C.
     */
    RoomShard compressRoomShard(std::span<const uint8_t> input, uint64_t s,
                                uint64_t windows_per_shard,
                                std::span<uint8_t> room,
                                std::span<uint32_t> window_sizes) const;

    /**
     * The shard core of every stream: compress shard @p s (windows
     * [s × windows_per_shard, ...) of @p input) into @p dst and
     * @p window_sizes, which hold its payloadBound(), timed into the
     * kernel histogram. Returns its framing, without a CRC.
     */
    RoomShard compressShardTo(std::span<const uint8_t> input, uint64_t s,
                              uint64_t windows_per_shard, uint8_t *dst,
                              uint32_t *window_sizes) const;

    std::unique_ptr<Compressor> codec_;
    Codec codec_tag_ = Codec::Zvc; ///< cached codecFromName(codec_->name())
    /** The pool the (Algorithm, ...) constructor builds; null when the
     *  lanes are borrowed or lanes == 1. */
    std::unique_ptr<ThreadPool> own_pool_;
    /** The lanes' pool (own_pool_ or a borrowed one); null at one lane. */
    ThreadPool *pool_ = nullptr;
    /** Kernel-latency histograms; null when metrics are disabled. */
    obs::HistogramMetric *compress_hist_ = nullptr;
    obs::HistogramMetric *expand_hist_ = nullptr;
};

} // namespace cdma

#endif // CDMA_COMPRESS_PARALLEL_HH
