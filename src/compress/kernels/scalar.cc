/**
 * @file
 * Portable scalar kernel backend. These are the reference
 * implementations every other backend must match byte for byte; they are
 * also the fastest portable forms we know (branchless compaction,
 * 64-bit strides), so forcing CDMA_KERNEL_BACKEND=scalar costs wide
 * loads, not algorithmic quality.
 */

#include "compress/kernels/kernels.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace cdma {

namespace {

inline uint32_t
loadWord(const uint8_t *p)
{
    uint32_t value;
    std::memcpy(&value, p, sizeof(value));
    return value;
}

/**
 * Branchless mask-and-compact of one group: every word is stored
 * unconditionally and the write pointer advances only for non-zero
 * words (the software analogue of the hardware's prefix-sum shift
 * network, Figure 10a), with a 32-byte OR fast-skip for all-zero 8-word
 * sub-blocks — the common case in sparse activation pages.
 */
inline uint32_t
compactGroup(const uint8_t *src, uint32_t words, uint8_t *dst)
{
    uint32_t mask = 0;
    uint32_t w = 0;
    while (w + 8 <= words) {
        const uint8_t *p = src + w * 4;
        uint64_t chunk[4];
        std::memcpy(chunk, p, sizeof(chunk));
        if ((chunk[0] | chunk[1] | chunk[2] | chunk[3]) != 0) {
            for (int j = 0; j < 8; ++j) {
                const uint32_t value = loadWord(p + j * 4);
                std::memcpy(dst, &value, 4);
                const uint32_t nz = value != 0;
                dst += nz * 4;
                mask |= nz << (w + static_cast<uint32_t>(j));
            }
        }
        w += 8;
    }
    for (; w < words; ++w) {
        const uint32_t value = loadWord(src + w * 4);
        std::memcpy(dst, &value, 4);
        const uint32_t nz = value != 0;
        dst += nz * 4;
        mask |= nz << w;
    }
    return mask;
}

size_t
zvcCompactWordsScalar(const uint8_t *src, uint64_t words, uint8_t *dst)
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
 * Mask-driven scatter of one group, the inverse of the compaction
 * above: zero the whole group once, then place the packed payload words
 * with batched memcpy runs (countr_zero to skip zero spans, countr_one
 * to size each contiguous non-zero run) — per-run bulk copies instead
 * of per-word branches, the fastest portable form we know.
 */
inline void
expandGroup(const uint8_t *src, uint32_t mask, uint32_t words,
            uint8_t *dst)
{
    std::memset(dst, 0, static_cast<size_t>(words) * 4);
    uint32_t bits = mask;
    uint32_t index = 0;
    while (bits) {
        const int skip = std::countr_zero(bits);
        bits >>= skip;
        index += static_cast<uint32_t>(skip);
        const int run = std::countr_one(bits);
        std::memcpy(dst + index * 4, src, static_cast<size_t>(run) * 4);
        src += static_cast<size_t>(run) * 4;
        index += static_cast<uint32_t>(run);
        bits = run < 32 ? bits >> run : 0;
    }
}

size_t
zvcExpandWordsScalar(const uint8_t *src, size_t len, uint64_t words,
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

/** 32-byte OR probes through zero pages, word-at-a-time at the edge. */
uint64_t
zeroRunWordsScalar(const uint8_t *words, uint64_t limit)
{
    uint64_t run = 0;
    while (run + 8 <= limit) {
        uint64_t chunk[4];
        std::memcpy(chunk, words + run * 4, sizeof(chunk));
        if ((chunk[0] | chunk[1] | chunk[2] | chunk[3]) != 0)
            break;
        run += 8;
    }
    while (run < limit && loadWord(words + run * 4) == 0)
        ++run;
    return run;
}

/** Two words per probe over literal spans (endian-neutral loads). */
uint64_t
literalRunWordsScalar(const uint8_t *words, uint64_t limit)
{
    uint64_t run = 0;
    while (run + 2 <= limit) {
        const uint32_t lo = loadWord(words + run * 4);
        const uint32_t hi = loadWord(words + run * 4 + 4);
        if (lo == 0)
            return run;
        if (hi == 0)
            return run + 1;
        run += 2;
    }
    if (run < limit && loadWord(words + run * 4) != 0)
        ++run;
    return run;
}

/**
 * 64-bit XOR stride; the first differing byte index falls out of a
 * trailing-zero count on little-endian hosts (byte 0 is the low lane)
 * and a leading-zero count on big-endian ones.
 */
size_t
matchLengthScalar(const uint8_t *a, const uint8_t *b, size_t max)
{
    size_t len = 0;
    while (len + 8 <= max) {
        uint64_t x, y;
        std::memcpy(&x, a + len, sizeof(x));
        std::memcpy(&y, b + len, sizeof(y));
        const uint64_t diff = x ^ y;
        if (diff != 0) {
            if constexpr (std::endian::native == std::endian::little) {
                return len +
                    static_cast<size_t>(std::countr_zero(diff)) / 8;
            } else {
                return len +
                    static_cast<size_t>(std::countl_zero(diff)) / 8;
            }
        }
        len += 8;
    }
    while (len < max && a[len] == b[len])
        ++len;
    return len;
}

void
copyBytesScalar(uint8_t *dst, const uint8_t *src, size_t n)
{
    if (n != 0)
        std::memcpy(dst, src, n);
}

void
zeroFillBytesScalar(uint8_t *dst, size_t n)
{
    if (n != 0)
        std::memset(dst, 0, n);
}

/**
 * Slice-by-8 CRC32C tables: table[0] is the classic reflected
 * byte-at-a-time table for polynomial 0x1EDC6F41 (reflected 0x82F63B78);
 * table[k][b] extends a byte processed k positions earlier, so eight
 * table lookups retire eight input bytes per 64-bit load.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrc32cTables()
{
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t b = 0; b < 256; ++b) {
        uint32_t crc = b;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
        tables[0][b] = crc;
    }
    for (size_t k = 1; k < 8; ++k) {
        for (uint32_t b = 0; b < 256; ++b) {
            tables[k][b] =
                (tables[k - 1][b] >> 8) ^ tables[0][tables[k - 1][b] & 0xFFu];
        }
    }
    return tables;
}

constexpr auto kCrc32c = makeCrc32cTables();

uint32_t
crc32Scalar(uint32_t seed, const uint8_t *data, size_t n)
{
    uint32_t crc = ~seed;
    size_t i = 0;
    while (i + 8 <= n) {
        uint64_t word;
        std::memcpy(&word, data + i, sizeof(word));
        word ^= crc;
        crc = kCrc32c[7][word & 0xFFu] ^
            kCrc32c[6][(word >> 8) & 0xFFu] ^
            kCrc32c[5][(word >> 16) & 0xFFu] ^
            kCrc32c[4][(word >> 24) & 0xFFu] ^
            kCrc32c[3][(word >> 32) & 0xFFu] ^
            kCrc32c[2][(word >> 40) & 0xFFu] ^
            kCrc32c[1][(word >> 48) & 0xFFu] ^
            kCrc32c[0][(word >> 56) & 0xFFu];
        i += 8;
    }
    for (; i < n; ++i)
        crc = (crc >> 8) ^ kCrc32c[0][(crc ^ data[i]) & 0xFFu];
    return ~crc;
}

} // namespace

const KernelOps &
scalarKernels()
{
    static constexpr KernelOps ops = {
        "scalar",
        zvcCompactWordsScalar,
        zvcExpandWordsScalar,
        zeroRunWordsScalar,
        literalRunWordsScalar,
        matchLengthScalar,
        copyBytesScalar,
        zeroFillBytesScalar,
        crc32Scalar,
    };
    return ops;
}

} // namespace cdma
