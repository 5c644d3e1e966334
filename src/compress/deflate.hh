/**
 * @file
 * DEFLATE-style compressor standing in for zlib ("ZL" in the paper's
 * figures, Section V-A). Implements the full algorithm family from
 * scratch — LZ77 with hash-chain matching plus per-window dynamic
 * canonical Huffman coding over the RFC 1951 literal/length and distance
 * alphabets — but serializes the code-length tables with a simple
 * run-length scheme instead of the RFC 1951 bit-exact container (we never
 * need interoperability with gzip, only representative compression
 * ratios). The paper uses zlib purely as an upper bound on what a complex
 * hardware compressor could achieve; this codec plays the same role.
 */

#ifndef CDMA_COMPRESS_DEFLATE_HH
#define CDMA_COMPRESS_DEFLATE_HH

#include "compress/compressor.hh"
#include "compress/lz77.hh"

namespace cdma {

/** DEFLATE-style (LZ77 + dynamic Huffman) compressor ("ZL"). */
class DeflateCompressor : public Compressor
{
  public:
    /** Literal/length alphabet size (RFC 1951). */
    static constexpr int kLitLenSymbols = 286;
    /** Distance alphabet size (RFC 1951). */
    static constexpr int kDistSymbols = 30;
    /** End-of-block symbol. */
    static constexpr int kEndOfBlock = 256;
    /** Longest Huffman code we emit. */
    static constexpr int kMaxCodeLength = 15;

    explicit DeflateCompressor(
        uint64_t window_bytes = Compressor::kDefaultWindowBytes,
        const Lz77Config &lz_config = {},
        const KernelOps *kernels = nullptr);

    std::string name() const override { return "ZL"; }

    /**
     * Streaming codec: the LZ77 tokenizer runs through the kernel
     * backend's match-extension scan into a per-thread reusable scratch
     * (no token-vector allocation per window), the encoder's BitWriter
     * grows a per-thread scratch vector that is copied to the caller's
     * room once per window, and the decoder
     * writes literals/matches into the caller's region, copying
     * non-overlapping matches with memcpy.
     */
    uint64_t compressWindowTo(std::span<const uint8_t> window,
                              uint8_t *dst) const override;

    Status decompressWindowInto(std::span<const uint8_t> payload,
                                uint64_t original_bytes,
                                uint8_t *out) const override;

    uint64_t compressedBound(uint64_t raw_len) const override;

  private:
    Lz77Config lz_config_;
};

} // namespace cdma

#endif // CDMA_COMPRESS_DEFLATE_HH
