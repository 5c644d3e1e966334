/**
 * @file
 * Abstract lossless compressor interface used by the cDMA engine. All three
 * algorithms the paper evaluates (run-length encoding, zero-value
 * compression, and a DEFLATE-style "zlib" upper bound) implement this
 * interface. Compression is windowed: the input is split into fixed-size
 * windows (4 KB by default, Section VII-A) and each window is compressed
 * independently, mirroring the hardware which operates on bounded buffers.
 *
 * A codec implements one window pair: compressWindowTo() writes a
 * window's payload straight into the caller's memory, which holds the
 * window's compressedBound(), and decompressWindowInto() reconstructs
 * into a caller-provided region. Writers therefore compress into their
 * destination: a whole buffer, a ParallelCompressor shard, or a room
 * of the spill arena, with no staging vector in between. The
 * ByteVec-append form (compressWindowInto()) and the window loop
 * (compressWindows()) are base-class helpers over that one virtual.
 */

#ifndef CDMA_COMPRESS_COMPRESSOR_HH
#define CDMA_COMPRESS_COMPRESSOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"

namespace cdma {

struct KernelOps;
enum class Algorithm;

/**
 * Wire codec selector: the three lossless algorithms plus Raw, the
 * "don't compress" choice the adaptive policy can make for dense layers
 * whose compression loses to the wire. Raw is distinct from the
 * store-raw *fallback* (raw_framed), which is a per-shard degradation
 * taken after transfer faults; Codec::Raw is a deliberate up-front
 * policy decision. Every compressed artifact (buffer, shard, spilled
 * shard view) carries its codec so the prefetch side decodes whatever
 * the offload side chose, shard by shard.
 */
enum class Codec {
    Raw,  ///< identity framing (payload == source bytes)
    Rle,  ///< run-length encoding ("RL")
    Zvc,  ///< zero-value compression ("ZV")
    Zlib, ///< DEFLATE-style upper bound ("ZL")
};

/** All codecs the policy may choose from, cheapest-decode first. */
inline constexpr Codec kAllCodecs[] = {Codec::Raw, Codec::Rle, Codec::Zvc,
                                       Codec::Zlib};

/** Display tag for a codec ("raw", "RL", "ZV", "ZL"). */
std::string codecName(Codec codec);

/** The codec a compression algorithm frames as. */
Codec codecFor(Algorithm algorithm);

/** Inverse of codecFor(); asserts on Codec::Raw (not an Algorithm). */
Algorithm algorithmFor(Codec codec);

/** Inverse of codecName() / Compressor::name(); asserts on unknown tags. */
Codec codecFromName(const std::string &name);

/**
 * Store-raw-floored wire bytes of a compressed window sequence: every
 * window transfers as min(compressed, raw) bytes, as a real engine with
 * a "stored" window mode would do. Shared by CompressedBuffer and the
 * transfer engine's per-shard accounting so the fallback rule lives in
 * one place.
 */
uint64_t storeRawFlooredBytes(std::span<const uint32_t> window_sizes,
                              uint64_t raw_bytes, uint64_t window_bytes);

/**
 * Result of compressing a buffer: the concatenated per-window payloads plus
 * the framing metadata a real DMA engine would track out-of-band (window
 * boundaries and the original size). The paper's compression ratios count
 * payload bytes only, which ratio() reproduces.
 */
struct CompressedBuffer {
    /** Concatenated compressed window payloads. */
    ByteVec payload;
    /** Compressed size of each window, in payload order. */
    std::vector<uint32_t> window_sizes;
    /** Uncompressed input size in bytes. */
    uint64_t original_bytes = 0;
    /** Window size used during compression. */
    uint64_t window_bytes = 0;
    /** Codec that framed the payload (what decompress must invert). */
    Codec codec = Codec::Zvc;

    /** Compressed payload size in bytes. */
    uint64_t compressedBytes() const { return payload.size(); }

    /**
     * Compression ratio (original / compressed). A ratio below 1.0 means
     * the algorithm expanded the data; the DMA engine would then fall back
     * to sending the raw window, so callers typically clamp at 1.0 via
     * effectiveRatio().
     */
    double ratio() const;

    /**
     * Ratio after the store-raw fallback: every window is transferred as
     * min(compressed, raw) bytes, as a real engine with a "stored" window
     * mode would do.
     */
    double effectiveRatio() const;

    /** Transferred bytes under the store-raw fallback. */
    uint64_t effectiveBytes() const;
};

/**
 * The framing check every whole-buffer decode runs before it writes a
 * byte: the window size is non-zero, the window count is
 * ceil(original_bytes / window_bytes), and the window sizes sum to the
 * payload size. The framing crosses the wire with the payload, so an
 * inconsistency is a data error (Status::corrupt), not an invariant.
 */
Status checkBufferFraming(const CompressedBuffer &buffer);

/**
 * Interface for a windowed lossless compressor.
 *
 * Subclasses implement the window pair compressWindowTo() /
 * decompressWindowInto() and their compressedBound(); the base class
 * handles splitting, framing and sizing.
 */
class Compressor
{
  public:
    /** Default compression window (4 KB, the paper's configuration). */
    static constexpr uint64_t kDefaultWindowBytes = 4096;

    /**
     * @param window_bytes Compression window.
     * @param kernels Kernel backend for the primitive hot ops; nullptr
     *        picks the process-wide runtime dispatch (activeKernels()).
     *        All backends produce byte-identical output; an explicit
     *        backend exists for differential tests and benchmarks.
     */
    explicit Compressor(uint64_t window_bytes = kDefaultWindowBytes,
                        const KernelOps *kernels = nullptr);
    virtual ~Compressor() = default;

    /** Short algorithm tag as used in the paper's figures (RL/ZV/ZL). */
    virtual std::string name() const = 0;

    /** Compression window in bytes. */
    uint64_t windowBytes() const { return window_bytes_; }

    /** The kernel backend this codec's hot loops call through. */
    const KernelOps &kernels() const { return *kernels_; }

    /** Compress @p input window-by-window. */
    CompressedBuffer compress(std::span<const uint8_t> input) const;

    /**
     * Invert compress(); returns exactly the original bytes, the
     * checkBufferFraming() error when the framing is inconsistent, or
     * the first window's decode error (annotated with the window index)
     * when the buffer's payload has been corrupted in flight.
     */
    StatusOr<ByteVec> decompress(const CompressedBuffer &buffer) const;

    /**
     * Expand windows [first, last) of @p buffer, which passed
     * checkBufferFraming(), into their slots of @p out (sized
     * buffer.original_bytes). @p payload_offset is where window
     * @p first's payload starts. Returns the first failing window's
     * decode error, annotated with its index. Thread-safe on disjoint
     * window ranges: the one window loop behind decompress() and every
     * lane of ParallelCompressor::decompress().
     */
    Status decompressWindows(const CompressedBuffer &buffer, uint64_t first,
                             uint64_t last, uint64_t payload_offset,
                             uint8_t *out) const;

    /**
     * Convenience: compression ratio of @p input with the store-raw
     * fallback applied (the number the paper reports).
     */
    double measureRatio(std::span<const uint8_t> input) const;

    /**
     * Streaming core: compress one window (at most windowBytes() long)
     * into @p dst and return the payload bytes written. @p dst holds
     * compressedBound(window.size()) bytes, and the codec may use all
     * of them as scratch: bytes past the returned size are unspecified.
     * Thread-safe on distinct @p dst regions.
     */
    virtual uint64_t compressWindowTo(std::span<const uint8_t> window,
                                      uint8_t *dst) const = 0;

    /**
     * compressWindowTo() appending to @p out: bytes already in @p out
     * are preserved. The ByteVec grows to the bound without a
     * zero-fill and is trimmed to the payload.
     */
    void compressWindowInto(std::span<const uint8_t> window,
                            ByteVec &out) const;

    /**
     * Compress windows [first, last) of @p input back to back into
     * @p dst, which holds payloadBound(input.size(), first, last)
     * bytes, and write each window's payload size to
     * @p window_sizes[w - first]. Returns the payload bytes written.
     * Thread-safe on disjoint destinations: the one window loop behind
     * compress() and every ParallelCompressor shard.
     */
    uint64_t compressWindows(std::span<const uint8_t> input, uint64_t first,
                             uint64_t last, uint8_t *dst,
                             uint32_t *window_sizes) const;

    /**
     * Worst-case payload of windows [first, last) of an
     * @p input_bytes input: the sum of their compressedBound().
     */
    uint64_t payloadBound(uint64_t input_bytes, uint64_t first,
                          uint64_t last) const;

    /**
     * Streaming core: decompress one window payload into the
     * caller-provided region at @p out, writing exactly @p original_bytes
     * bytes (including any zeros) on success. Thread-safe on distinct
     * regions. A malformed payload returns a non-ok Status naming the
     * codec and the failing byte offset — never panics, and never reads
     * outside @p payload — with @p out left in an unspecified state.
     */
    virtual Status decompressWindowInto(std::span<const uint8_t> payload,
                                        uint64_t original_bytes,
                                        uint8_t *out) const = 0;

    /**
     * Upper bound on the compressed size of a window of @p raw_len
     * bytes: the room a writer gives compressWindowTo(). Must be >= the
     * size compressWindowTo() writes (and the scratch it touches), and
     * >= @p raw_len, so a shard degraded to raw framing is rewritten in
     * place in the room its compressed form was given.
     */
    virtual uint64_t compressedBound(uint64_t raw_len) const;

  private:
    uint64_t window_bytes_;
    const KernelOps *kernels_;
};

/** Algorithm selector matching the paper's figure labels. */
enum class Algorithm {
    Rle,  ///< run-length encoding ("RL")
    Zvc,  ///< zero-value compression ("ZV")
    Zlib, ///< DEFLATE-style upper bound ("ZL")
};

/** All algorithms in the order the paper's figures list them. */
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::Rle, Algorithm::Zvc, Algorithm::Zlib};

/** Figure label for an algorithm ("RL", "ZV", "ZL"). */
std::string algorithmName(Algorithm algorithm);

/**
 * Construct a compressor for @p algorithm with the given window.
 * @p kernels selects the kernel backend (nullptr = runtime dispatch).
 */
std::unique_ptr<Compressor>
makeCompressor(Algorithm algorithm,
               uint64_t window_bytes = Compressor::kDefaultWindowBytes,
               const KernelOps *kernels = nullptr);

/**
 * The identity codec (Codec::Raw): every window's payload is the window
 * bytes verbatim, so "compression" is a bounded memcpy and decode can
 * never fail on well-framed input. This is what the adaptive policy
 * selects when the cost model says compressing loses to the wire — the
 * framing (window sizes, CRC, shard boundaries) stays identical to the
 * real codecs so the whole transfer path is codec-agnostic.
 */
class RawCompressor : public Compressor
{
  public:
    explicit RawCompressor(uint64_t window_bytes = kDefaultWindowBytes,
                           const KernelOps *kernels = nullptr)
        : Compressor(window_bytes, kernels)
    {
    }

    std::string name() const override { return "raw"; }

    uint64_t compressWindowTo(std::span<const uint8_t> window,
                              uint8_t *dst) const override;

    Status decompressWindowInto(std::span<const uint8_t> payload,
                                uint64_t original_bytes,
                                uint8_t *out) const override;

    /** Raw never expands: the payload is exactly the window. */
    uint64_t compressedBound(uint64_t raw_len) const override
    {
        return raw_len;
    }
};

/**
 * Construct the serial codec for @p codec — makeCompressor() extended
 * over Codec::Raw. The policy engine and the engine's codec bank use
 * this so Raw is constructible through the same factory seam.
 */
std::unique_ptr<Compressor>
makeCodecCompressor(Codec codec,
                    uint64_t window_bytes = Compressor::kDefaultWindowBytes,
                    const KernelOps *kernels = nullptr);

} // namespace cdma

#endif // CDMA_COMPRESS_COMPRESSOR_HH
