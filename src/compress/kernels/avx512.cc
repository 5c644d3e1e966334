/**
 * @file
 * AVX-512 kernel backend. The ZVC primitives stop simulating the
 * hardware shift network and *use* it: `vpcompressd` performs the
 * mask-driven left-pack of a 16-word half group in one instruction (no
 * shuffle table — the 2 KB AVX2 lookup disappears), and `vpexpandd` is
 * its exact inverse for the prefetch-side scatter. Both run in register
 * form inside one loop over the whole span, two halves per 32-word
 * group, with loads and stores masked to the popcount so every access
 * stays inside the live payload bytes. Mask formation is
 * `vptestmd`/`vpcmpeqd` into mask registers (no movemask round trip
 * through the integer file), run scans and match extension stride 64
 * bytes per probe with a mask-register test (`kortest`) as the early
 * exit, and the byte-sink ops use unaligned 512-bit loads/stores with a
 * scalar tail. Where CPUID reports VPCLMULQDQ, the CRC-32C folds 512
 * bits per carry-less multiply.
 *
 * Compiled with per-function target attributes so the translation unit
 * builds on any x86-64 toolchain regardless of -march; whether the code
 * ever runs is a CPUID decision made in dispatch.cc (AVX512F for the
 * dword ops, AVX512BW for the byte-granular compares).
 *
 * Output contract: byte-identical to the scalar backend for every op.
 */

#include "compress/kernels/kernels.hh"

#include "compress/kernels/crc32c.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>

namespace cdma {

namespace {

#define CDMA_AVX512 __attribute__((target("avx512f,avx512bw,avx512vl")))

/** The low @p n lanes of a 16-lane mask (n <= 16). */
inline __mmask16
lowLanes(uint32_t n)
{
    return static_cast<__mmask16>((1u << n) - 1u);
}

inline uint32_t
loadWord(const uint8_t *p)
{
    uint32_t value;
    std::memcpy(&value, p, sizeof(value));
    return value;
}

/**
 * Mask-and-left-pack of one group held in two 16-word halves (@p lo,
 * @p hi; dead lanes of a short group are zero): vptestmd forms each
 * half's mask, the 4-byte group mask goes to @p dst, and each half is
 * packed by register vpcompressd and stored masked to its popcount, so
 * exactly the live bytes are written (2-7% faster than the memory form
 * of vpcompressd in a whole-window loop on Zen 5). Returns the group's
 * payload bytes.
 */
CDMA_AVX512 inline size_t
compactGroup(__m512i lo, __m512i hi, uint8_t *dst)
{
    const __mmask16 nz_lo = _mm512_test_epi32_mask(lo, lo);
    const __mmask16 nz_hi = _mm512_test_epi32_mask(hi, hi);
    const uint32_t mask = static_cast<uint32_t>(nz_lo) |
        (static_cast<uint32_t>(nz_hi) << 16);
    std::memcpy(dst, &mask, sizeof(mask));
    const auto n_lo = static_cast<uint32_t>(
        std::popcount(static_cast<uint32_t>(nz_lo)));
    const auto n_hi = static_cast<uint32_t>(
        std::popcount(static_cast<uint32_t>(nz_hi)));
    _mm512_mask_storeu_epi32(dst + 4, lowLanes(n_lo),
                             _mm512_maskz_compress_epi32(nz_lo, lo));
    _mm512_mask_storeu_epi32(dst + 4 + 4 * n_lo, lowLanes(n_hi),
                             _mm512_maskz_compress_epi32(nz_hi, hi));
    return 4 + 4 * static_cast<size_t>(n_lo + n_hi);
}

CDMA_AVX512 size_t
zvcCompactWordsAvx512(const uint8_t *src, uint64_t words, uint8_t *dst)
{
    uint8_t *const start = dst;
    uint64_t w = 0;
    for (; w + kZvcGroupWords <= words; w += kZvcGroupWords) {
        const uint8_t *group = src + w * 4;
        dst += compactGroup(_mm512_loadu_si512(group),
                            _mm512_loadu_si512(group + 64), dst);
    }
    // Short final group (1..31 words): masked loads keep the reads
    // inside the span and zero the dead lanes, which then test as zero.
    if (w < words) {
        const auto rest = static_cast<uint32_t>(words - w);
        const uint8_t *group = src + w * 4;
        dst += compactGroup(
            _mm512_maskz_loadu_epi32(lowLanes(std::min(rest, 16u)), group),
            _mm512_maskz_loadu_epi32(
                lowLanes(rest > 16 ? rest - 16 : 0), group + 64),
            dst);
    }
    return static_cast<size_t>(dst - start);
}

/**
 * One 16-word half of a group scatter: a load masked to the half's
 * popcount touches exactly its live payload bytes (disabled lanes are
 * never accessed), and register vpexpandd routes them to their mask
 * positions with zeros elsewhere.
 */
CDMA_AVX512 inline __m512i
expandHalf(const uint8_t *src, __mmask16 mask)
{
    const auto live = static_cast<uint32_t>(
        std::popcount(static_cast<uint32_t>(mask)));
    return _mm512_maskz_expand_epi32(
        mask, _mm512_maskz_loadu_epi32(lowLanes(live), src));
}

/**
 * Scatter of one group of @p words (1..32) words from its packed words
 * at @p src. Full groups with every word live (the whole page at 100%
 * density, most of it anywhere dense) are a plain 128-byte copy:
 * vpexpandd's cross-lane routing costs half the d100 rate there.
 */
CDMA_AVX512 inline void
expandGroup(const uint8_t *src, uint32_t mask, uint32_t words,
            uint8_t *dst)
{
    const auto lo_mask = static_cast<__mmask16>(mask);
    const auto hi_mask = static_cast<__mmask16>(mask >> 16);
    const size_t hi_offset = 4 * static_cast<size_t>(
        std::popcount(static_cast<uint32_t>(lo_mask)));
    if (words == kZvcGroupWords) {
        if (mask == ~0u) {
            _mm512_storeu_si512(dst, _mm512_loadu_si512(src));
            _mm512_storeu_si512(dst + 64, _mm512_loadu_si512(src + 64));
            return;
        }
        _mm512_storeu_si512(dst, expandHalf(src, lo_mask));
        _mm512_storeu_si512(dst + 64, expandHalf(src + hi_offset, hi_mask));
        return;
    }
    // Short final group: the stores are masked to its words.
    _mm512_mask_storeu_epi32(dst, lowLanes(std::min(words, 16u)),
                             expandHalf(src, lo_mask));
    _mm512_mask_storeu_epi32(dst + 64,
                             lowLanes(words > 16 ? words - 16 : 0),
                             expandHalf(src + hi_offset, hi_mask));
}

/**
 * Bounds-check the group of @p words words whose mask sits at
 * @p src + @p cursor against @p len, scatter it to @p dst and move
 * @p cursor past it. Returns false, having written nothing, when the
 * mask or the words it promises do not fit. The cursor steps past the
 * mask before the live check so that its loop-carried update stays
 * two single-cycle adds; a fused three-operand lea cost 10% of the
 * expand rate on Zen 5.
 */
CDMA_AVX512 inline bool
expandNextGroup(const uint8_t *src, size_t len, size_t &cursor,
                uint32_t words, uint8_t *dst)
{
    if (len - cursor < 4)
        return false;
    uint32_t mask = loadWord(src + cursor);
    cursor += 4;
    if (words < kZvcGroupWords)
        mask &= (1u << words) - 1u;
    const size_t live = 4 * static_cast<size_t>(std::popcount(mask));
    if (len - cursor < live)
        return false;
    expandGroup(src + cursor, mask, words, dst);
    cursor += live;
    return true;
}

CDMA_AVX512 size_t
zvcExpandWordsAvx512(const uint8_t *src, size_t len, uint64_t words,
                     uint8_t *dst)
{
    // Full groups pass a constant width, so their inlined copy drops
    // the group-length tests; the short final group takes its own call.
    // One loop over both, as in the scalar and avx2 backends, read 5%
    // lower alexnet-trained-small roundtrip_gbps on a Zen 5 host.
    size_t cursor = 0;
    uint64_t w = 0;
    for (; w + kZvcGroupWords <= words; w += kZvcGroupWords) {
        if (!expandNextGroup(src, len, cursor, kZvcGroupWords, dst + w * 4))
            return kZvcMalformed;
    }
    if (w < words &&
        !expandNextGroup(src, len, cursor, static_cast<uint32_t>(words - w),
                         dst + w * 4))
        return kZvcMalformed;
    return cursor;
}

CDMA_AVX512 uint64_t
zeroRunWordsAvx512(const uint8_t *words, uint64_t limit)
{
    uint64_t run = 0;
    while (run + 16 <= limit) {
        const __m512i v = _mm512_loadu_si512(words + run * 4);
        // vptestmd + kortest: the mask-register test is the early exit,
        // and the same mask pinpoints the first non-zero word.
        const __mmask16 nz = _mm512_test_epi32_mask(v, v);
        if (nz != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(nz)));
        }
        run += 16;
    }
    if (run < limit) {
        const __mmask16 live = static_cast<__mmask16>(
            (1u << (limit - run)) - 1u);
        const __m512i v =
            _mm512_maskz_loadu_epi32(live, words + run * 4);
        const __mmask16 nz = _mm512_test_epi32_mask(v, v);
        if (nz != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(nz)));
        }
    }
    return limit;
}

CDMA_AVX512 uint64_t
literalRunWordsAvx512(const uint8_t *words, uint64_t limit)
{
    const __m512i zero = _mm512_setzero_si512();
    uint64_t run = 0;
    while (run + 16 <= limit) {
        const __m512i v = _mm512_loadu_si512(words + run * 4);
        const __mmask16 zm = _mm512_cmpeq_epi32_mask(v, zero);
        if (zm != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(zm)));
        }
        run += 16;
    }
    if (run < limit) {
        const __mmask16 live = static_cast<__mmask16>(
            (1u << (limit - run)) - 1u);
        const __m512i v =
            _mm512_maskz_loadu_epi32(live, words + run * 4);
        // Compare only the live lanes: the zeroed disabled lanes would
        // otherwise read as (phantom) zero words past the limit.
        const __mmask16 zm =
            _mm512_mask_cmpeq_epi32_mask(live, v, zero);
        if (zm != 0) {
            return run + static_cast<uint64_t>(
                std::countr_zero(static_cast<uint32_t>(zm)));
        }
    }
    return limit;
}

CDMA_AVX512 size_t
matchLengthAvx512(const uint8_t *a, const uint8_t *b, size_t max)
{
    size_t len = 0;
    while (len + 64 <= max) {
        const __m512i x = _mm512_loadu_si512(a + len);
        const __m512i y = _mm512_loadu_si512(b + len);
        // vpcmpb into a 64-bit mask register; kortest is the all-equal
        // early exit and countr_zero the first-diverging byte.
        const __mmask64 neq = _mm512_cmpneq_epi8_mask(x, y);
        if (neq != 0) {
            return len + static_cast<size_t>(
                std::countr_zero(static_cast<uint64_t>(neq)));
        }
        len += 64;
    }
    if (len < max) {
        const __mmask64 live =
            (~static_cast<uint64_t>(0)) >> (64 - (max - len));
        const __m512i x = _mm512_maskz_loadu_epi8(live, a + len);
        const __m512i y = _mm512_maskz_loadu_epi8(live, b + len);
        const __mmask64 neq = _mm512_mask_cmpneq_epi8_mask(live, x, y);
        if (neq != 0) {
            return len + static_cast<size_t>(
                std::countr_zero(static_cast<uint64_t>(neq)));
        }
    }
    return max;
}

/**
 * Above this size the libc memcpy/memset (rep-movs/ERMS fast strings on
 * modern x86) beats an explicit vector loop; below it the vector loop
 * skips the libc dispatch and ERMS startup cost. Same threshold the
 * AVX2 backend settled on — the crossover is a property of the string
 * hardware, not the vector width.
 */
constexpr size_t kBulkLibcBytes = 2048;

CDMA_AVX512 void
copyBytesAvx512(uint8_t *dst, const uint8_t *src, size_t n)
{
    // One unaligned 512-bit load/store pair per 64 bytes for the
    // literal-run / raw-tail sizes the codecs emit; small tails stay
    // with memcpy (inlined moves) and page-class runs go back to libc's
    // fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memcpy(dst, src, n);
        return;
    }
    size_t i = 0;
    while (i + 64 <= n) {
        _mm512_storeu_si512(dst + i, _mm512_loadu_si512(src + i));
        i += 64;
    }
    if (i < n)
        std::memcpy(dst + i, src + i, n - i);
}

CDMA_AVX512 void
zeroFillBytesAvx512(uint8_t *dst, size_t n)
{
    // 64-byte zero stores for the run-reconstruction sizes the codecs
    // emit; small fills stay with memset and page-class zero runs go
    // back to libc's fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memset(dst, 0, n);
        return;
    }
    const __m512i zero = _mm512_setzero_si512();
    size_t i = 0;
    while (i + 64 <= n) {
        _mm512_storeu_si512(dst + i, zero);
        i += 64;
    }
    if (i < n)
        std::memset(dst + i, 0, n - i);
}

#define CDMA_AVX512_CLMUL                                              \
    __attribute__((                                                    \
        target("avx512f,avx512bw,avx512vl,vpclmulqdq,pclmul,sse4.2")))

/** Four zmm accumulators: the main loop folds 256 bytes per step. */
constexpr size_t kFoldStride = 256;

constexpr Crc32cFold kFold256 = crc32cFold(kFoldStride);
constexpr Crc32cFold kFold64 = crc32cFold(64);
constexpr Crc32cFold kFold48 = crc32cFold(48);
constexpr Crc32cFold kFold32 = crc32cFold(32);
constexpr Crc32cFold kFold16 = crc32cFold(16);

CDMA_AVX512_CLMUL inline __m512i
foldConstants512(Crc32cFold fold)
{
    const auto lo = static_cast<long long>(fold.lo);
    const auto hi = static_cast<long long>(fold.hi);
    return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

/**
 * 128-bit lane @p index of @p lanes. (The zero-masked extract: GCC 12
 * flags the unmasked form's undefined pass-through operand with
 * -Wmaybe-uninitialized.)
 */
template <int index>
CDMA_AVX512_CLMUL inline __m128i
lane128(__m512i lanes)
{
    return _mm512_maskz_extracti32x4_epi32(0xF, lanes, index);
}

/** All four 128-bit lanes of @p lanes moved forward, XORed into @p next. */
CDMA_AVX512_CLMUL inline __m512i
fold512(__m512i lanes, __m512i k, __m512i next)
{
    return _mm512_ternarylogic_epi64(
        _mm512_clmulepi64_epi128(lanes, k, 0x00),
        _mm512_clmulepi64_epi128(lanes, k, 0x11), next, 0x96);
}

/** One 128-bit lane moved forward by the distance of @p fold. */
CDMA_AVX512_CLMUL inline __m128i
fold128(__m128i lane, Crc32cFold fold)
{
    const __m128i k = _mm_set_epi64x(static_cast<long long>(fold.hi),
                                     static_cast<long long>(fold.lo));
    return _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                         _mm_clmulepi64_si128(lane, k, 0x11));
}

/**
 * CRC-32C by 512-bit carry-less-multiply folds (the math is in
 * crc32c.hh): the register joins the first 4 bytes, four accumulators
 * fold 256 bytes per step, join by 64-byte folds, and one accumulator
 * folds on 64 bytes at a time. Its four lanes join by folds of 48, 32
 * and 16 bytes, two crc32q reduce the last lane to a register, and the
 * crc32 walk takes the final 0..63 bytes. Inputs shorter than one
 * stride take the crc32 walk whole.
 */
CDMA_AVX512_CLMUL uint32_t
crc32Fold512(uint32_t seed, const uint8_t *data, size_t n)
{
    if (n < kFoldStride)
        return crc32cStreams(seed, data, n);
    __m512i x0 = _mm512_xor_si512(
        _mm512_loadu_si512(data),
        _mm512_maskz_set1_epi32(1, static_cast<int>(~seed)));
    __m512i x1 = _mm512_loadu_si512(data + 64);
    __m512i x2 = _mm512_loadu_si512(data + 128);
    __m512i x3 = _mm512_loadu_si512(data + 192);
    size_t i = kFoldStride;
    const __m512i k256 = foldConstants512(kFold256);
    for (; n - i >= kFoldStride; i += kFoldStride) {
        x0 = fold512(x0, k256, _mm512_loadu_si512(data + i));
        x1 = fold512(x1, k256, _mm512_loadu_si512(data + i + 64));
        x2 = fold512(x2, k256, _mm512_loadu_si512(data + i + 128));
        x3 = fold512(x3, k256, _mm512_loadu_si512(data + i + 192));
    }
    const __m512i k64 = foldConstants512(kFold64);
    x1 = fold512(x0, k64, x1);
    x2 = fold512(x1, k64, x2);
    x3 = fold512(x2, k64, x3);
    for (; n - i >= 64; i += 64)
        x3 = fold512(x3, k64, _mm512_loadu_si512(data + i));
    const __m128i lane = _mm_ternarylogic_epi64(
        fold128(lane128<0>(x3), kFold48), fold128(lane128<1>(x3), kFold32),
        _mm_xor_si128(fold128(lane128<2>(x3), kFold16), lane128<3>(x3)),
        0x96);
    uint64_t crc =
        _mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(lane)));
    crc = _mm_crc32_u64(crc,
                        static_cast<uint64_t>(_mm_extract_epi64(lane, 1)));
    return crc32cStreams(~static_cast<uint32_t>(crc), data + i, n - i);
}

#undef CDMA_AVX512_CLMUL
#undef CDMA_AVX512

} // namespace

const KernelOps *
avx512Kernels()
{
    // F covers the dword compress/expand/test ops, BW the byte-granular
    // match compare, VL the EVEX forms the compiler may pick for
    // intermediates. Every such part also has AVX2+SSE4.2; without
    // VPCLMULQDQ (Skylake-X, Cascade Lake) the CRC32C is the AVX2
    // table's three crc32 streams, which on those hosts may not keep
    // pace with the compaction above (docs/robustness.md).
    static const bool supported = __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") && avx2Kernels() != nullptr;
    if (!supported)
        return nullptr;
    static const KernelOps ops = {
        "avx512",
        zvcCompactWordsAvx512,
        zvcExpandWordsAvx512,
        zeroRunWordsAvx512,
        literalRunWordsAvx512,
        matchLengthAvx512,
        copyBytesAvx512,
        zeroFillBytesAvx512,
        __builtin_cpu_supports("vpclmulqdq") &&
                __builtin_cpu_supports("pclmul")
            ? crc32Fold512
            : crc32cStreams,
    };
    return &ops;
}

} // namespace cdma

#else // !x86

namespace cdma {

const KernelOps *
avx512Kernels()
{
    return nullptr;
}

} // namespace cdma

#endif
