/**
 * @file
 * AVX2 kernel backend: vpcmpeqd mask formation with movemask extraction,
 * shuffle-table left-packing through vpermd (the 8-lane analogue of the
 * hardware shift network — one table lookup replaces the prefix sum),
 * the inverse expand table for the prefetch-side mask scatter (vpermd
 * again, with vpmaskmovd keeping partial payload loads inside the live
 * bytes), and 256-bit strides for the run scans and match extension.
 * Each ZVC op runs its group routine in one loop over the whole span.
 * Compiled
 * with per-function target attributes so the translation unit builds on
 * any x86-64 toolchain regardless of -march; whether the code ever runs
 * is a CPUID decision made in dispatch.cc.
 *
 * Output contract: byte-identical to the scalar backend for every op.
 */

#include "compress/kernels/kernels.hh"

#include "compress/kernels/crc32c.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace cdma {

namespace {

#define CDMA_AVX2 __attribute__((target("avx2")))

/**
 * Left-pack shuffle table: row m holds, for an 8-bit non-zero mask m,
 * the dword indices of the set bits in ascending order (unused entries
 * point at lane 0 and are never read — the write pointer only advances
 * by popcount). Stored as bytes and widened with vpmovzxbd at use, so
 * the whole table is 2 KB and stays resident in L1.
 */
constexpr std::array<std::array<uint8_t, 8>, 256>
makeLeftPackTable()
{
    std::array<std::array<uint8_t, 8>, 256> table{};
    for (int mask = 0; mask < 256; ++mask) {
        int out = 0;
        for (int lane = 0; lane < 8; ++lane) {
            if (mask & (1 << lane))
                table[static_cast<size_t>(mask)]
                     [static_cast<size_t>(out++)] =
                    static_cast<uint8_t>(lane);
        }
    }
    return table;
}

constexpr auto kLeftPack = makeLeftPackTable();

/**
 * Inverse (expand) shuffle table: row m holds, for an 8-bit non-zero
 * mask m, the *packed-payload* index each output lane reads from — the
 * exclusive prefix popcount of m at that lane (unset lanes point at
 * payload word 0 and are zeroed after the permute). Same 2 KB byte
 * layout as kLeftPack, widened with vpmovzxbd at use.
 */
constexpr std::array<std::array<uint8_t, 8>, 256>
makeExpandTable()
{
    std::array<std::array<uint8_t, 8>, 256> table{};
    for (int mask = 0; mask < 256; ++mask) {
        int packed = 0;
        for (int lane = 0; lane < 8; ++lane) {
            table[static_cast<size_t>(mask)][static_cast<size_t>(lane)] =
                static_cast<uint8_t>(packed);
            if (mask & (1 << lane))
                ++packed;
        }
    }
    return table;
}

constexpr auto kExpand = makeExpandTable();

inline uint32_t
loadWord(const uint8_t *p)
{
    uint32_t value;
    std::memcpy(&value, p, sizeof(value));
    return value;
}

/**
 * Mask-and-left-pack of one ZVC group (1..32 words) to @p dst; returns
 * the mask.
 */
CDMA_AVX2 inline uint32_t
compactGroup(const uint8_t *src, uint32_t words, uint8_t *dst)
{
    const __m256i zero = _mm256_setzero_si256();
    uint32_t mask = 0;
    uint32_t w = 0;
    while (w + 8 <= words) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + w * 4));
        // vpcmpeqd against zero, movemask -> 8-bit zero mask; invert for
        // the non-zero lanes.
        const __m256i eq = _mm256_cmpeq_epi32(v, zero);
        const uint32_t nz = ~static_cast<uint32_t>(_mm256_movemask_ps(
                                _mm256_castsi256_ps(eq))) &
            0xFFu;
        // All-zero sub-blocks (the common case in sparse activation
        // pages) emit nothing: skip the permute/store and move on at
        // load bandwidth, exactly like the scalar backend's OR-skip.
        if (nz == 0) {
            w += 8;
            continue;
        }
        // Shuffle-table left-pack: gather the non-zero lanes to the
        // front with one vpermd, store all 8 lanes unconditionally, and
        // advance the write pointer by the live bytes only.
        const __m128i packed_idx = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(kLeftPack[nz].data()));
        const __m256i idx = _mm256_cvtepu8_epi32(packed_idx);
        const __m256i packed = _mm256_permutevar8x32_epi32(v, idx);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), packed);
        dst += 4u * static_cast<uint32_t>(std::popcount(nz));
        mask |= nz << w;
        w += 8;
    }
    // Sub-block tail (groups shorter than 8 words): branchless scalar,
    // same emission order, so the output stays byte-identical.
    for (; w < words; ++w) {
        const uint32_t value = loadWord(src + w * 4);
        std::memcpy(dst, &value, 4);
        const uint32_t nzw = value != 0;
        dst += nzw * 4;
        mask |= nzw << w;
    }
    return mask;
}

CDMA_AVX2 size_t
zvcCompactWordsAvx2(const uint8_t *src, uint64_t words, uint8_t *dst)
{
    uint8_t *const start = dst;
    for (uint64_t w = 0; w < words; w += kZvcGroupWords) {
        const auto group = static_cast<uint32_t>(
            std::min<uint64_t>(kZvcGroupWords, words - w));
        const uint32_t mask = compactGroup(src + w * 4, group, dst + 4);
        std::memcpy(dst, &mask, sizeof(mask));
        dst += 4 + 4 * static_cast<size_t>(std::popcount(mask));
    }
    return static_cast<size_t>(dst - start);
}

/**
 * Scatter of one ZVC group (1..32 words) from its packed words at
 * @p src, which hold exactly 4 * popcount(@p mask) readable bytes.
 */
CDMA_AVX2 inline void
expandGroup(const uint8_t *src, uint32_t mask, uint32_t words,
            uint8_t *dst)
{
    const __m256i lane_bit =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i lane_index =
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    size_t consumed = 0;
    uint32_t w = 0;
    while (w + 8 <= words) {
        const uint32_t m = (mask >> w) & 0xFFu;
        // All-zero sub-blocks store the zero vector and touch no
        // payload — the common case in sparse activation pages runs at
        // store bandwidth.
        if (m == 0) {
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + w * 4),
                                _mm256_setzero_si256());
            w += 8;
            continue;
        }
        // Full sub-blocks (the common case in dense pages) are a plain
        // wide copy: no permute, no keep-mask.
        if (m == 0xFFu) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(dst + w * 4),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(src + consumed)));
            consumed += 32;
            w += 8;
            continue;
        }
        const uint32_t count = static_cast<uint32_t>(std::popcount(m));
        // The payload is only readable up to the live bytes, so partial
        // sub-blocks load through vpmaskmovd (disabled lanes are never
        // accessed).
        const __m256i live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(count)), lane_index);
        const __m256i packed = _mm256_maskload_epi32(
            reinterpret_cast<const int *>(src + consumed), live);
        // Inverse shuffle-table lookup: one vpermd routes payload word
        // prefix-popcount(m, lane) to every lane, then the mask's zero
        // lanes are blanked — the software mirror of the DPE's scatter
        // network.
        const __m128i packed_idx = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(kExpand[m].data()));
        const __m256i idx = _mm256_cvtepu8_epi32(packed_idx);
        const __m256i scattered = _mm256_permutevar8x32_epi32(packed, idx);
        const __m256i keep = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(m)),
                             lane_bit),
            lane_bit);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + w * 4),
                            _mm256_and_si256(scattered, keep));
        consumed += count * 4;
        w += 8;
    }
    // Sub-block tail (groups shorter than 8 words): scalar scatter.
    for (; w < words; ++w) {
        uint32_t value = 0;
        if (mask & (1u << w)) {
            std::memcpy(&value, src + consumed, 4);
            consumed += 4;
        }
        std::memcpy(dst + w * 4, &value, 4);
    }
}

CDMA_AVX2 size_t
zvcExpandWordsAvx2(const uint8_t *src, size_t len, uint64_t words,
                   uint8_t *dst)
{
    size_t cursor = 0;
    for (uint64_t w = 0; w < words; w += kZvcGroupWords) {
        const auto group = static_cast<uint32_t>(
            std::min<uint64_t>(kZvcGroupWords, words - w));
        if (len - cursor < 4)
            return kZvcMalformed;
        uint32_t mask = loadWord(src + cursor);
        cursor += 4;
        if (group < kZvcGroupWords)
            mask &= (1u << group) - 1u;
        const size_t live = 4 * static_cast<size_t>(std::popcount(mask));
        if (len - cursor < live)
            return kZvcMalformed;
        expandGroup(src + cursor, mask, group, dst + w * 4);
        cursor += live;
    }
    return cursor;
}

CDMA_AVX2 uint64_t
zeroRunWordsAvx2(const uint8_t *words, uint64_t limit)
{
    uint64_t run = 0;
    while (run + 8 <= limit) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + run * 4));
        if (!_mm256_testz_si256(v, v))
            break;
        run += 8;
    }
    while (run < limit && loadWord(words + run * 4) == 0)
        ++run;
    return run;
}

CDMA_AVX2 uint64_t
literalRunWordsAvx2(const uint8_t *words, uint64_t limit)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t run = 0;
    while (run + 8 <= limit) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + run * 4));
        const uint32_t zm = static_cast<uint32_t>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero))));
        if (zm != 0)
            return run + static_cast<uint64_t>(std::countr_zero(zm));
        run += 8;
    }
    while (run < limit && loadWord(words + run * 4) != 0)
        ++run;
    return run;
}

CDMA_AVX2 size_t
matchLengthAvx2(const uint8_t *a, const uint8_t *b, size_t max)
{
    size_t len = 0;
    while (len + 32 <= max) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + len));
        const __m256i y = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + len));
        const uint32_t eq = static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)));
        if (eq != 0xFFFFFFFFu) {
            return len + static_cast<size_t>(std::countr_zero(~eq));
        }
        len += 32;
    }
    while (len + 8 <= max) {
        uint64_t x, y;
        std::memcpy(&x, a + len, sizeof(x));
        std::memcpy(&y, b + len, sizeof(y));
        const uint64_t diff = x ^ y;
        if (diff != 0) {
            return len +
                static_cast<size_t>(std::countr_zero(diff)) / 8;
        }
        len += 8;
    }
    while (len < max && a[len] == b[len])
        ++len;
    return len;
}

/**
 * Above this size the libc memcpy/memset (rep-movs/ERMS fast strings on
 * modern x86) beats a 64-byte vector loop; below it the vector loop
 * skips the libc dispatch and ERMS startup cost. Matters mostly for
 * run *reconstruction*, where whole zero pages and page-long literal
 * runs are the common case at the paper's sparsity levels.
 */
constexpr size_t kBulkLibcBytes = 2048;

CDMA_AVX2 void
copyBytesAvx2(uint8_t *dst, const uint8_t *src, size_t n)
{
    // 64-byte unrolled copy for the literal-run / raw-tail sizes the
    // codecs emit; small copies stay with memcpy (inlined moves) and
    // page-class runs go back to libc's fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memcpy(dst, src, n);
        return;
    }
    size_t i = 0;
    while (i + 64 <= n) {
        const __m256i lo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i + 32),
                            hi);
        i += 64;
    }
    if (i < n)
        std::memcpy(dst + i, src + i, n - i);
}

CDMA_AVX2 void
zeroFillBytesAvx2(uint8_t *dst, size_t n)
{
    // 64-byte zero stores for the run-reconstruction sizes the codecs
    // emit; small fills stay with memset (inlined moves) and
    // page-class zero runs go back to libc's fast-string path.
    if (n >= kBulkLibcBytes) {
        std::memset(dst, 0, n);
        return;
    }
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    while (i + 64 <= n) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), zero);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i + 32),
                            zero);
        i += 64;
    }
    if (i < n)
        std::memset(dst + i, 0, n - i);
}

/**
 * Per-stream lengths of the three-stream CRC blocks: a long block is
 * 3 x 8 KB, a short block 3 x 256 B. Long blocks amortize the two
 * combines per block; short blocks keep a remainder under 24 KB on
 * three streams too.
 */
constexpr size_t kCrcLongStream = 8192;
constexpr size_t kCrcShortStream = 256;

constexpr auto kCrcLongShift = makeCrc32cShiftTable(kCrcLongStream);
constexpr auto kCrcShortShift = makeCrc32cShiftTable(kCrcShortStream);

inline uint64_t
loadQword(const uint8_t *p)
{
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
}

/**
 * Checksum whole blocks of three @p stream-byte streams starting at
 * @p data[i], advancing @p i past them. The crc32 instruction has
 * 3-cycle latency but issues once per cycle, so one dependent chain
 * leaves two thirds of the unit idle; three independent chains fill
 * it. The second and third streams start from a zero register, and
 * the chains join by linearity: crc(A B) = shift_|B|(crc(A)) ^ crc0(B).
 */
__attribute__((target("sse4.2"))) inline uint64_t
crc32HwStreams(uint64_t crc, const uint8_t *data, size_t n, size_t &i,
               size_t stream, const Crc32cShiftTable &shift)
{
    while (n - i >= 3 * stream) {
        const uint8_t *p = data + i;
        uint64_t crc1 = 0;
        uint64_t crc2 = 0;
        for (size_t j = 0; j < stream; j += 8) {
            crc = _mm_crc32_u64(crc, loadQword(p + j));
            crc1 = _mm_crc32_u64(crc1, loadQword(p + stream + j));
            crc2 = _mm_crc32_u64(crc2, loadQword(p + 2 * stream + j));
        }
        crc = crc32cShift(shift, static_cast<uint32_t>(crc)) ^ crc1;
        crc = crc32cShift(shift, static_cast<uint32_t>(crc)) ^ crc2;
        i += 3 * stream;
    }
    return crc;
}

#undef CDMA_AVX2

} // namespace

/**
 * Hardware CRC32C on the SSE4.2 crc32 instruction, three streams wide
 * (Intel, "Fast CRC Computation for iSCSI Polynomial Using CRC32
 * Instruction"): 3 x 8 KB blocks, then 3 x 256 B blocks, then one
 * chain for the tail and for inputs under 768 B. Every AVX2 part
 * implements SSE4.2, so this rides the same CPUID gate as the rest of
 * the backend; the per-function target keeps the TU building
 * regardless of -march.
 */
__attribute__((target("sse4.2"))) uint32_t
crc32cStreams(uint32_t seed, const uint8_t *data, size_t n)
{
    uint64_t crc = ~seed;
    size_t i = 0;
    crc = crc32HwStreams(crc, data, n, i, kCrcLongStream, kCrcLongShift);
    crc = crc32HwStreams(crc, data, n, i, kCrcShortStream, kCrcShortShift);
    for (; i + 8 <= n; i += 8)
        crc = _mm_crc32_u64(crc, loadQword(data + i));
    for (; i < n; ++i)
        crc = _mm_crc32_u8(static_cast<uint32_t>(crc), data[i]);
    return ~static_cast<uint32_t>(crc);
}

const KernelOps *
avx2Kernels()
{
    static const KernelOps ops = {
        "avx2",
        zvcCompactWordsAvx2,
        zvcExpandWordsAvx2,
        zeroRunWordsAvx2,
        literalRunWordsAvx2,
        matchLengthAvx2,
        copyBytesAvx2,
        zeroFillBytesAvx2,
        crc32cStreams,
    };
    // Every AVX2 part ships SSE4.2, but the hardware CRC makes the
    // dependency explicit rather than assumed.
    static const bool supported = __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("sse4.2");
    return supported ? &ops : nullptr;
}

} // namespace cdma

#else // !x86

namespace cdma {

const KernelOps *
avx2Kernels()
{
    return nullptr;
}

} // namespace cdma

#endif
