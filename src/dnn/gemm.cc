#include "dnn/gemm.hh"

#include <algorithm>

#include "compress/kernels/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace cdma {

namespace {

/** Where row i's sums start, unless they start from the destination. */
float
rowStart(const Gemm &g, int64_t i)
{
    return g.start == GemmStart::RowBias ? g.row_bias[i] : 0.0f;
}

} // namespace

void
gemmScalar(const Gemm &g)
{
    // Running sums for up to kChunk columns of one row.
    constexpr int64_t kChunk = 64;
    float sum[kChunk];
    for (int64_t i = 0; i < g.rows; ++i) {
        const float *a_row = g.a + i * g.a_row_stride;
        float *c_row = g.c + i * g.ldc;
        for (int64_t j0 = 0; j0 < g.cols; j0 += kChunk) {
            const int64_t n = std::min(kChunk, g.cols - j0);
            for (int64_t j = 0; j < n; ++j) {
                sum[j] = g.start == GemmStart::Dest ? c_row[j0 + j]
                                                    : rowStart(g, i);
            }
            for (int64_t k = 0; k < g.depth; ++k) {
                const float a = a_row[k * g.a_depth_stride];
                if (g.skip_zero_a && a == 0.0f)
                    continue;
                const float *b_row = g.b + k * g.ldb + j0;
                for (int64_t j = 0; j < n; ++j)
                    sum[j] += a * b_row[j];
            }
            for (int64_t j = 0; j < n; ++j)
                c_row[j0 + j] = g.add_to_dest ? c_row[j0 + j] + sum[j]
                                              : sum[j];
        }
    }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

// AVX2 only. The top-level CMakeLists.txt compiles every source with
// -ffp-contract=off, so neither the tiles' vmulps/vaddps pairs nor the
// scalar loops' multiply-adds are fused, whatever -march a build adds.
#define CDMA_AVX2 __attribute__((target("avx2")))

constexpr int64_t kTileRows = 4;
constexpr int64_t kTileCols = 16;

/** Lane masks of the first n (< 16) columns of a tile. */
struct TileMask {
    __m256i lo;
    __m256i hi;
};

CDMA_AVX2 inline TileMask
tileMask(int64_t n)
{
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i count = _mm256_set1_epi32(static_cast<int>(n));
    return {_mm256_cmpgt_epi32(count, lanes),
            _mm256_cmpgt_epi32(
                count, _mm256_add_epi32(lanes, _mm256_set1_epi32(8)))};
}

template <bool Tail>
CDMA_AVX2 inline __m256
load8(const float *p, __m256i mask)
{
    if constexpr (Tail)
        return _mm256_maskload_ps(p, mask);
    else
        return _mm256_loadu_ps(p);
}

template <bool Tail>
CDMA_AVX2 inline void
store8(float *p, __m256i mask, __m256 v)
{
    if constexpr (Tail)
        _mm256_maskstore_ps(p, mask, v);
    else
        _mm256_storeu_ps(p, v);
}

/** Start the running sums of row i, columns [j0, j0 + 16). */
template <bool Tail>
CDMA_AVX2 inline void
startSums(const Gemm &g, int64_t i, int64_t j0, TileMask m, __m256 &lo,
          __m256 &hi)
{
    if (g.start == GemmStart::Dest) {
        const float *c = g.c + i * g.ldc + j0;
        lo = load8<Tail>(c, m.lo);
        hi = load8<Tail>(c + 8, m.hi);
    } else {
        lo = hi = _mm256_set1_ps(rowStart(g, i));
    }
}

/** One term: sum = sum + a * b, the product rounded first. */
CDMA_AVX2 inline void
addTerm(__m256 a, __m256 b_lo, __m256 b_hi, __m256 &lo, __m256 &hi)
{
    lo = _mm256_add_ps(lo, _mm256_mul_ps(a, b_lo));
    hi = _mm256_add_ps(hi, _mm256_mul_ps(a, b_hi));
}

/** Store (or add) the finished sums of row i, columns [j0, j0 + 16). */
template <bool Tail>
CDMA_AVX2 inline void
storeSums(const Gemm &g, int64_t i, int64_t j0, TileMask m, __m256 lo,
          __m256 hi)
{
    float *c = g.c + i * g.ldc + j0;
    if (g.add_to_dest) {
        lo = _mm256_add_ps(load8<Tail>(c, m.lo), lo);
        hi = _mm256_add_ps(load8<Tail>(c + 8, m.hi), hi);
    }
    store8<Tail>(c, m.lo, lo);
    store8<Tail>(c + 8, m.hi, hi);
}

/**
 * R rows x 16 columns of the result at (i0, j0): sixteen running sums
 * per row in two ymm registers, every term added in depth order.
 */
template <int R, bool Tail>
CDMA_AVX2 void
tile(const Gemm &g, int64_t i0, int64_t j0, TileMask m)
{
    __m256 lo[R];
    __m256 hi[R];
    for (int r = 0; r < R; ++r)
        startSums<Tail>(g, i0 + r, j0, m, lo[r], hi[r]);
    const float *a = g.a + i0 * g.a_row_stride;
    const float *b = g.b + j0;
    for (int64_t k = 0; k < g.depth; ++k) {
        const __m256 b_lo = load8<Tail>(b, m.lo);
        const __m256 b_hi = load8<Tail>(b + 8, m.hi);
        for (int r = 0; r < R; ++r) {
            addTerm(_mm256_set1_ps(a[r * g.a_row_stride]), b_lo, b_hi,
                    lo[r], hi[r]);
        }
        a += g.a_depth_stride;
        b += g.ldb;
    }
    for (int r = 0; r < R; ++r)
        storeSums<Tail>(g, i0 + r, j0, m, lo[r], hi[r]);
}

/** True when some a(i, k) of rows [i0, i0 + R) is zero. */
template <int R>
bool
blockHasZero(const Gemm &g, int64_t i0)
{
    for (int r = 0; r < R; ++r) {
        const float *a = g.a + (i0 + r) * g.a_row_stride;
        for (int64_t k = 0; k < g.depth; ++k) {
            if (a[k * g.a_depth_stride] == 0.0f)
                return true;
        }
    }
    return false;
}

/**
 * Rows [i0, i0 + R) across every column. With nothing to skip (the
 * usual case for weights) the rows share dense tiles; a block whose A
 * rows hold a zero that a skip must honour runs on the scalar loops.
 */
template <int R>
CDMA_AVX2 void
rowBlock(const Gemm &g, int64_t i0)
{
    if (g.skip_zero_a && blockHasZero<R>(g, i0)) {
        Gemm block = g;
        block.rows = R;
        block.a += i0 * g.a_row_stride;
        block.c += i0 * g.ldc;
        if (g.start == GemmStart::RowBias)
            block.row_bias += i0;
        gemmScalar(block);
        return;
    }
    int64_t j0 = 0;
    for (; j0 + kTileCols <= g.cols; j0 += kTileCols)
        tile<R, false>(g, i0, j0, TileMask{});
    if (j0 < g.cols)
        tile<R, true>(g, i0, j0, tileMask(g.cols - j0));
}

CDMA_AVX2 void
gemmAvx2Tiles(const Gemm &g)
{
    int64_t i0 = 0;
    for (; i0 + kTileRows <= g.rows; i0 += kTileRows)
        rowBlock<kTileRows>(g, i0);
    switch (g.rows - i0) {
    case 3:
        rowBlock<3>(g, i0);
        break;
    case 2:
        rowBlock<2>(g, i0);
        break;
    case 1:
        rowBlock<1>(g, i0);
        break;
    default:
        break;
    }
}

} // namespace

GemmKernel
gemmAvx2()
{
    return avx2Kernels() != nullptr ? gemmAvx2Tiles : nullptr;
}

#else

GemmKernel
gemmAvx2()
{
    return nullptr;
}

#endif

void
gemm(const Gemm &g)
{
    static const GemmKernel kernel = [] {
        const GemmKernel avx2 = gemmAvx2();
        return &activeKernels() == &scalarKernels() || avx2 == nullptr
            ? gemmScalar
            : avx2;
    }();
    kernel(g);
}

} // namespace cdma
