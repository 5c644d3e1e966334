/**
 * @file
 * CRC-32C polynomial arithmetic shared by the hardware CRC kernels
 * (private to src/compress/kernels). Every constant here is a power of
 * x modulo the CRC-32C polynomial P, evaluated at compile time by
 * square-and-multiply over crc32cMulMod:
 *
 * - the "append N zero bytes" shift tables that join independent crc32
 *   instruction chains, and
 * - the carry-less-multiply fold constants that move a 128-bit lane of
 *   message bytes D bytes forward.
 *
 * Fold math, in the reflected order of the CRC register (a 128-bit lane
 * loaded little-endian holds message bit j as the x^(127 - j)
 * coefficient): the lane is lo64 * x^64 + hi64, and a carry-less
 * multiply of two reflected operands yields their product times x. So
 * with a 32-bit constant in the low half of the multiplier,
 *
 *   lane * x^(8D) == clmul(lo64, x^(8D+31) mod P)
 *                  ^ clmul(hi64, x^(8D-33) mod P)   (mod P),
 *
 * a 127-bit value that XORs straight into the lane D bytes later. The
 * CRC register joins the message by XOR into its first 4 bytes, and
 * two crc32q instructions over the last folded lane (low qword, then
 * high qword) reduce it to the register value.
 */

#ifndef CDMA_COMPRESS_KERNELS_CRC32C_HH
#define CDMA_COMPRESS_KERNELS_CRC32C_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace cdma {

/** CRC-32C polynomial 0x1EDC6F41, bit-reflected. */
inline constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

/**
 * Product of two polynomials modulo the CRC-32C polynomial, in the
 * reflected bit order of the CRC register (bit 31 is the x^0
 * coefficient).
 */
constexpr uint32_t
crc32cMulMod(uint32_t a, uint32_t b)
{
    uint32_t product = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            product ^= b;
        b = (b & 1u) ? (b >> 1) ^ kCrc32cPoly : b >> 1;
    }
    return product;
}

/** x^n mod P in the register's reflected order, by square-and-multiply. */
constexpr uint32_t
crc32cXPow(uint64_t n)
{
    uint32_t power = 1u << 31;  // x^0
    uint32_t square = 1u << 30; // x^1
    for (; n != 0; n >>= 1) {
        if (n & 1u)
            power = crc32cMulMod(square, power);
        square = crc32cMulMod(square, square);
    }
    return power;
}

/**
 * "Append N zero bytes" as a table: feeding zeros to the CRC register
 * multiplies it by x^(8 * N) mod P, a linear map, so it splits into one
 * 256-entry table per register byte:
 * shift(r) = t[0][r & 0xFF] ^ t[1][(r >> 8) & 0xFF] ^ ... ^ t[3][r >> 24].
 */
using Crc32cShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr Crc32cShiftTable
makeCrc32cShiftTable(size_t zero_bytes)
{
    const uint32_t op = crc32cXPow(8 * static_cast<uint64_t>(zero_bytes));
    Crc32cShiftTable table{};
    for (uint32_t k = 0; k < 4; ++k) {
        for (uint32_t b = 0; b < 256; ++b)
            table[k][b] = crc32cMulMod(op, b << (8 * k));
    }
    return table;
}

inline uint32_t
crc32cShift(const Crc32cShiftTable &table, uint32_t crc)
{
    return table[0][crc & 0xFFu] ^ table[1][(crc >> 8) & 0xFFu] ^
        table[2][(crc >> 16) & 0xFFu] ^ table[3][crc >> 24];
}

/**
 * Multipliers that fold a 128-bit lane @p distance bytes forward (see
 * the file comment): @c lo multiplies the lane's low qword, @c hi its
 * high qword. Declare the result constexpr so it is computed by the
 * compiler; evaluated per call it would cost microseconds.
 */
struct Crc32cFold {
    uint64_t lo;
    uint64_t hi;
};

constexpr Crc32cFold
crc32cFold(size_t distance)
{
    return {crc32cXPow(8 * static_cast<uint64_t>(distance) + 31),
            crc32cXPow(8 * static_cast<uint64_t>(distance) - 33)};
}

/**
 * CRC-32C on the SSE4.2 crc32 instruction in three interleaved chains
 * (avx2.cc): the avx2 table's CRC, the avx512 table's on CPUs without
 * VPCLMULQDQ, and the short-input and tail path of the 512-bit fold.
 * Same contract as KernelOps::crc32; callers must have checked SSE4.2
 * support.
 */
uint32_t crc32cStreams(uint32_t seed, const uint8_t *data, size_t n);

} // namespace cdma

#endif // CDMA_COMPRESS_KERNELS_CRC32C_HH
