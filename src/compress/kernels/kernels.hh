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
 * leg, and the expand ops (zvcExpandWords' mask-driven scatter — the
 * inverse shuffle-table lookup — plus the zero-fill used by RLE run
 * reconstruction) feed the prefetch leg, so the decompressor can keep
 * pace with the link the way Section V-B provisions the DPE replicas.
 * The ZVC ops take a whole window of words: the hardware streams
 * 32-word groups through its mask and prefix-sum network with no
 * per-group control step, so each backend runs its group routine inside
 * one loop and the codec makes one table call per window in each
 * direction.
 *
 * Dispatch is decided once at startup: CPUID picks the widest supported
 * backend, and the CDMA_KERNEL_BACKEND environment variable ("scalar",
 * "avx2" or "avx512") overrides it — chiefly to force a narrower path
 * on wide hosts for differential testing and the CI forced-backend job
 * legs; an unsupported or unknown name is fatal and the message lists
 * the backends this host actually supports. Codecs
 * capture the table at construction, so every lane of a
 * ParallelCompressor shares the codec's single dispatch decision. The
 * AVX-512 table also picks its CRC-32C once, from CPUID, when it is
 * first built (see KernelOps::crc32); there is no option for it.
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

/** Words covered by one ZVC mask: a group is a 4-byte mask + its words. */
inline constexpr uint32_t kZvcGroupWords = 32;

/**
 * What KernelOps::zvcExpandWords returns when the payload cannot hold
 * what its masks promise. The codec then walks the masks itself to
 * report where (zvc.cc).
 */
inline constexpr size_t kZvcMalformed = SIZE_MAX;

/**
 * The primitive hot operations of the codec stack, as a flat function
 * table. All word offsets/counts are in 4-byte (fp32 activation) words.
 */
struct KernelOps {
    /** Backend identifier ("scalar", "avx2", "avx512"). */
    const char *name;

    /**
     * ZVC compaction over a whole span: for each consecutive group of
     * kZvcGroupWords words at @p src (the last group may be short),
     * form the non-zero mask and write it to @p dst as 4 bytes, followed
     * by the group's non-zero words in order (the software mirror of
     * the hardware prefix-sum shift network). Returns the payload bytes
     * written: 4 per group plus 4 per non-zero word.
     *
     * @p dst must have room for 4 * ceil(@p words / 32) + 4 * @p words
     * bytes (ZvcCompressor::compressedBound): backends may store whole
     * sub-blocks unconditionally and let the write pointer lag (the
     * branchless left-pack trick), so bytes beyond the returned length
     * are scratch.
     */
    size_t (*zvcCompactWords)(const uint8_t *src, uint64_t words,
                              uint8_t *dst);

    /**
     * ZVC expansion over a whole span, the inverse of zvcCompactWords:
     * read the mask-plus-words groups from the @p len payload bytes at
     * @p src and scatter each group's words back to their mask
     * positions, writing @p words 32-bit words at @p dst (zeros where
     * the mask bit is clear). Mask bits beyond a short final group are
     * dropped. Returns the payload bytes consumed, or kZvcMalformed
     * when a group's mask or words do not fit in @p len.
     *
     * Every group is bounds-checked against @p len before its mask or
     * words are read, so no backend reads past @p len (the compressed
     * stream ends where the last window's payload ends). On success
     * exactly 4 * @p words bytes are written; on kZvcMalformed a prefix
     * of them may be.
     */
    size_t (*zvcExpandWords)(const uint8_t *src, size_t len,
                             uint64_t words, uint8_t *dst);

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
     * at compress time, verified on prefetch before expansion. All
     * backends produce the identical standard CRC32C value:
     *
     * - scalar: a slice-by-8 table walk.
     * - avx2: the SSE4.2 crc32 instruction in three interleaved chains
     *   joined by constexpr "append N zero bytes" tables.
     * - avx512: where CPUID reports VPCLMULQDQ, 512-bit carry-less-
     *   multiply folds over four accumulators, which hand inputs too
     *   short to fold, and their tails, to the three chains; without
     *   it, the avx2 table's CRC.
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
