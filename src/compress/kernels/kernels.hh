/**
 * @file
 * Pluggable SIMD kernel layer for the codec stack. The paper's CPE/DPE
 * datapaths get their throughput from wide fixed-function mask-and-compact
 * hardware (Section V-B, Figure 10); every software codec in this repo
 * reduces to the same few primitive hot operations — zero-mask formation
 * over 32-bit activation words, left-pack compaction of the non-zero
 * words, zero/literal run scanning, and bulk byte-sink copies. KernelOps
 * factors those primitives into one function-pointer table with a
 * portable scalar backend, an AVX2 backend (vpcmpeqd + vpmovmskb mask
 * formation, shuffle-table left-packing, wide run scans) and an AVX-512
 * backend (vpcompressd left-pack / vpexpandd scatter — the mask-driven
 * compaction is a single native instruction there — with 64-byte-stride
 * scans), so vectorizing the primitive once lifts ZVC, RLE and the
 * DEFLATE tokenizer together.
 *
 * The table covers both directions: the compaction ops feed the offload
 * leg, and the expand ops (zvcExpandGroup's mask-driven scatter — the
 * inverse shuffle-table lookup — plus the zero-fill used by RLE run
 * reconstruction) feed the prefetch leg, so the decompressor can keep
 * pace with the link the way Section V-B provisions the DPE replicas.
 *
 * Dispatch is decided once at startup: CPUID picks the widest supported
 * backend, and the CDMA_KERNEL_BACKEND environment variable ("scalar",
 * "avx2" or "avx512") overrides it — chiefly to force a narrower path
 * on wide hosts for differential testing and the CI forced-backend job
 * legs; an unsupported or unknown name is fatal and the message lists
 * the backends this host actually supports. Codecs
 * capture the table at construction, so every lane of a
 * ParallelCompressor shares the codec's single dispatch decision.
 *
 * Every backend must produce *byte-identical* codec output: the table
 * changes how the masks and runs are computed, never what is emitted.
 * tests/compress/kernels_test.cc pins this property per op and per codec.
 */

#ifndef CDMA_COMPRESS_KERNELS_KERNELS_HH
#define CDMA_COMPRESS_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cdma {

/**
 * The primitive hot operations of the codec stack, as a flat function
 * table. All word offsets/counts are in 4-byte (fp32 activation) words.
 */
struct KernelOps {
    /** Backend identifier ("scalar", "avx2", "avx512"). */
    const char *name;

    /**
     * ZVC group op: form the non-zero mask over @p words (1..32)
     * consecutive 32-bit words at @p src and left-pack the non-zero words
     * to @p dst in order (the software mirror of the hardware prefix-sum
     * shift network). Returns the mask; exactly
     * 4 * popcount(mask) payload bytes are live at @p dst.
     *
     * @p dst must have room for 4 * @p words bytes: backends may store
     * full groups unconditionally and let the write pointer lag (the
     * branchless/left-pack trick), so bytes beyond the live payload are
     * scratch.
     */
    uint32_t (*zvcCompactGroup)(const uint8_t *src, uint32_t words,
                                uint8_t *dst);

    /**
     * ZVC expand op — the inverse of zvcCompactGroup: scatter the
     * left-packed non-zero words at @p src back to their mask positions,
     * writing exactly @p words (1..32) 32-bit words at @p dst (zeros
     * where the mask bit is clear). Bits of @p mask at or above
     * @p words must be clear. Returns the payload bytes consumed,
     * always 4 * popcount(mask).
     *
     * @p src is only readable for 4 * popcount(mask) bytes — backends
     * must not over-read past the live payload (the compressed stream
     * ends where the last window's payload ends), while @p dst always
     * has the full 4 * @p words bytes of room.
     */
    uint32_t (*zvcExpandGroup)(const uint8_t *src, uint32_t mask,
                               uint32_t words, uint8_t *dst);

    /**
     * Length of the run of all-zero 32-bit words starting at @p words,
     * capped at @p limit words (limit >= 1).
     */
    uint64_t (*zeroRunWords)(const uint8_t *words, uint64_t limit);

    /**
     * Length of the run of non-zero 32-bit words starting at @p words,
     * capped at @p limit words (limit >= 1).
     */
    uint64_t (*literalRunWords)(const uint8_t *words, uint64_t limit);

    /**
     * Length of the common byte prefix of @p a and @p b, capped at
     * @p max bytes. Both pointers must be readable for @p max bytes
     * (the LZ77 match extension guarantees this by construction).
     */
    size_t (*matchLength)(const uint8_t *a, const uint8_t *b, size_t max);

    /**
     * Bulk byte-sink copy of @p n bytes from @p src to @p dst (used for
     * literal-run and raw-tail emission into the payload sink). Regions
     * must not overlap.
     */
    void (*copyBytes)(uint8_t *dst, const uint8_t *src, size_t n);

    /**
     * Zero-fill of @p n bytes at @p dst — the reconstruction side of a
     * zero run (RLE zero tokens, ZVC all-zero groups): the decompressor
     * spends most of its stores here at the paper's 50-90% sparsity.
     */
    void (*zeroFillBytes)(uint8_t *dst, size_t n);

    /**
     * CRC32C (Castagnoli) over @p n bytes at @p data, continuing from
     * @p seed (pass 0 to start; the pre/post inversion is internal, so
     * chaining crc32(crc32(0, a), b) equals crc32(0, a+b)). This is the
     * end-to-end integrity check framing every spilled shard: computed
     * at compress time, verified on prefetch before expansion. The
     * scalar backend is a slice-by-8 table walk; the AVX2 backend (whose
     * op the AVX-512 table shares) rides the SSE4.2 crc32 instruction
     * (every AVX2 part has it) in three interleaved chains over
     * 3 x 8 KB and 3 x 256 B blocks, joined by constexpr "append N zero
     * bytes" tables, with one chain for inputs under 768 B and the
     * tail. All produce the identical standard CRC32C value.
     */
    uint32_t (*crc32)(uint32_t seed, const uint8_t *data, size_t n);
};

/** The portable scalar backend (always available). */
const KernelOps &scalarKernels();

/** The AVX2 backend, or nullptr when this CPU does not support AVX2. */
const KernelOps *avx2Kernels();

/**
 * The AVX-512 backend (vpcompressd/vpexpandd), or nullptr when this CPU
 * lacks AVX512F/BW/VL.
 */
const KernelOps *avx512Kernels();

/**
 * The backend every codec uses by default, selected once at startup:
 * CDMA_KERNEL_BACKEND if set (fatal() on an unknown or unsupported
 * name), otherwise the widest CPUID-supported backend.
 */
const KernelOps &activeKernels();

/**
 * Backend by name ("scalar", "avx2", "avx512"); nullptr if
 * unknown/unsupported.
 */
const KernelOps *kernelsByName(std::string_view name);

/**
 * Every backend this CPU supports, scalar first, widest last (for
 * sweeps/tests; activeKernels() picks back() when unforced).
 */
std::vector<const KernelOps *> supportedKernels();

/**
 * Comma-separated names of every backend this CPU supports (e.g.
 * "scalar, avx2, avx512") — the valid CDMA_KERNEL_BACKEND values, used
 * by the override rejection message.
 */
std::string supportedKernelNames();

/**
 * Resolve a CDMA_KERNEL_BACKEND override value without dying: returns
 * the backend, or nullptr with @p error (when non-null) set to the
 * message activeKernels() would fatal() with — naming the rejected
 * value and listing the backends this host supports. This is the
 * selection logic behind the env override, factored out so tests can
 * cover acceptance and rejection in-process.
 */
const KernelOps *resolveKernelBackendOverride(std::string_view name,
                                              std::string *error = nullptr);

} // namespace cdma

#endif // CDMA_COMPRESS_KERNELS_KERNELS_HH
