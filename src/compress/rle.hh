/**
 * @file
 * Run-length encoding over 4-byte activation words (Section V-A). The
 * stream is a sequence of tokens: a zero-run token replaces up to 128
 * consecutive zero words with a single byte, and a literal-run token emits
 * a one-byte header followed by up to 128 raw words. RLE therefore only
 * wins when zero words are *consecutive in the physical layout*, which is
 * why its ratio collapses under NHWC/CHWN where channel planes interleave
 * (Figure 11).
 */

#ifndef CDMA_COMPRESS_RLE_HH
#define CDMA_COMPRESS_RLE_HH

#include "compress/compressor.hh"

namespace cdma {

/** Run-length compressor ("RL" in the paper's figures). */
class RleCompressor : public Compressor
{
  public:
    /** Maximum words encodable by a single token. */
    static constexpr int kMaxRun = 128;
    /** Bytes per activation word (fp32). */
    static constexpr int kWordBytes = 4;

    explicit RleCompressor(
        uint64_t window_bytes = Compressor::kDefaultWindowBytes,
        const KernelOps *kernels = nullptr);

    std::string name() const override { return "RL"; }

    /**
     * Streaming codec: both run kinds are scanned by the kernel backend
     * (32-byte OR probes through zero pages; 64-bit — 256-bit on AVX2 —
     * strides over literal spans), literal data is emitted with the
     * backend's bulk copy, and decompression reconstructs with
     * memset/memcpy runs.
     */
    uint64_t compressWindowTo(std::span<const uint8_t> window,
                              uint8_t *out) const override;

    Status decompressWindowInto(std::span<const uint8_t> payload,
                                uint64_t original_bytes,
                                uint8_t *out) const override;

    uint64_t compressedBound(uint64_t raw_len) const override;
};

} // namespace cdma

#endif // CDMA_COMPRESS_RLE_HH
