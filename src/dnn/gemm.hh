/**
 * @file
 * The one dense GEMM of the training framework. Conv2D runs its forward
 * pass, input gradient and weight gradient through it, and
 * FullyConnected its forward pass and both gradients, so the trainer's
 * multiply-accumulate work lives in one file.
 *
 * Every output is one ordered sum, and each backend computes exactly
 * that sum: the start value, then each term in ascending depth order,
 * the product rounded to float before the add (never a fused
 * multiply-add, which rounds once and would move every trained weight;
 * the build passes -ffp-contract=off so no -march can fuse them).
 * A backend changes how many outputs it computes at once, never the
 * terms or their order, so all backends return bit-identical results
 * and training is the same on every host.
 *
 * Backends:
 * - scalar: the reference loop nest, one output row at a time;
 * - avx2: register tiles of 4 rows x 16 columns (eight ymm running
 *   sums), each depth step a broadcast of A times two vectors of B,
 *   with separate vmulps and vaddps. Column tails use masked loads and
 *   stores. A block of rows whose A holds a zero that a skip applies to
 *   (a gradient after ReLU or dropout) runs on the scalar loops.
 *
 * gemm() follows the codec kernels' dispatch (activeKernels()): the
 * scalar backend there selects the scalar loops, any wider one the
 * avx2 tiles. There is no option of its own.
 */

#ifndef CDMA_DNN_GEMM_HH
#define CDMA_DNN_GEMM_HH

#include <cstdint>

namespace cdma {

/** Where each running sum of a Gemm starts. */
enum class GemmStart {
    Zero,    ///< +0.0f
    RowBias, ///< row_bias[i] for every column of row i
    Dest,    ///< c(i, j) as the call finds it
};

/**
 * One GEMM call. For every row i < rows and column j < cols:
 *
 *     sum = start value
 *     for k = 0 .. depth - 1:
 *         if (skip_zero_a && a(i, k) == 0) continue
 *         sum = sum + a(i, k) * b(k, j)
 *     c(i, j) = add_to_dest ? c(i, j) + sum : sum
 *
 * where a(i, k) = a[i * a_row_stride + k * a_depth_stride] (so A can be
 * read row-major or transposed), b(k, j) = b[k * ldb + j] and
 * c(i, j) = c[i * ldc + j]. Skipping a zero term is not the same as
 * adding it: it keeps a -0.0 start and keeps 0 * inf from turning the
 * sum into NaN.
 */
struct Gemm {
    int64_t rows = 0;
    int64_t cols = 0;
    int64_t depth = 0;
    const float *a = nullptr;
    int64_t a_row_stride = 0;
    int64_t a_depth_stride = 0;
    const float *b = nullptr;
    int64_t ldb = 0;
    float *c = nullptr;
    int64_t ldc = 0;
    GemmStart start = GemmStart::Zero;
    const float *row_bias = nullptr; ///< read when start is RowBias
    bool skip_zero_a = false;
    bool add_to_dest = false;
};

/** A GEMM backend. */
using GemmKernel = void (*)(const Gemm &g);

/** Run @p g on the backend activeKernels() selects. */
void gemm(const Gemm &g);

/** The reference loop nest: the scalar backend and the tests' oracle. */
void gemmScalar(const Gemm &g);

/** The AVX2 tile backend, or nullptr when this CPU lacks AVX2. */
GemmKernel gemmAvx2();

} // namespace cdma

#endif // CDMA_DNN_GEMM_HH
