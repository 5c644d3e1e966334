/**
 * @file
 * Zero-value compression (ZVC), the paper's main algorithm (Section V-A,
 * Figure 8). For every 32 consecutive 4-byte activation words, a 32-bit
 * mask records which words are non-zero ('1') and the non-zero words are
 * appended after the mask. 32 zero words collapse to a 4-byte mask (32x);
 * 32 dense words cost 4 + 128 bytes (3.1% metadata overhead). The ratio
 * depends only on the zero fraction, never on the spatial arrangement, so
 * ZVC is insensitive to the activation layout — the property Figure 11
 * demonstrates.
 */

#ifndef CDMA_COMPRESS_ZVC_HH
#define CDMA_COMPRESS_ZVC_HH

#include "compress/compressor.hh"

namespace cdma {

/** Zero-value compressor ("ZV" in the paper's figures). */
class ZvcCompressor : public Compressor
{
  public:
    /** Bytes per activation word (fp32). */
    static constexpr int kWordBytes = 4;

    explicit ZvcCompressor(
        uint64_t window_bytes = Compressor::kDefaultWindowBytes,
        const KernelOps *kernels = nullptr);

    std::string name() const override { return "ZV"; }

    /**
     * Exact compressed size (bytes) of a buffer with @p total_words words
     * of which @p nonzero_words are non-zero, without running the codec.
     * Used by the analytic sparsity models.
     */
    static uint64_t predictedBytes(uint64_t total_words,
                                   uint64_t nonzero_words);

    /**
     * Single-pass streaming codec: each window is one kernel call in
     * each direction. zvcCompactWords masks and left-packs every 32-word
     * group of the window (branchless compaction on the scalar backend,
     * vpcmpeqd + shuffle-table vpermd on AVX2, vptestmd + vpcompressd on
     * AVX-512 — software analogues of the hardware's prefix-sum shift
     * network); zvcExpandWords bounds-checks each group's mask and words
     * against the payload before it scatters them. When the expand
     * kernel rejects a payload, the codec walks the masks itself to
     * report which group does not fit. The raw sub-word tail and the
     * trailing-byte check stay in the codec.
     */
    uint64_t compressWindowTo(std::span<const uint8_t> window,
                              uint8_t *dst) const override;

    Status decompressWindowInto(std::span<const uint8_t> payload,
                                uint64_t original_bytes,
                                uint8_t *out) const override;

    uint64_t compressedBound(uint64_t raw_len) const override;
};

} // namespace cdma

#endif // CDMA_COMPRESS_ZVC_HH
