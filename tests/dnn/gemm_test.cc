/**
 * @file
 * The GEMM kernels against the scalar loops, bit for bit. Every kernel
 * must return the very floats of the plain loops: the same start value,
 * the same terms in the same order, the same zero-weight skips. The
 * reference loops below are the ones the conv and FC layers ran before
 * they shared dnn/gemm.hh, element by element through Tensor4D::at. The
 * layer tests run through gemm(), so under a forced CDMA_KERNEL_BACKEND
 * they pin that backend's path. Passes large enough to fan their samples
 * out on the trainer's lanes (forEachSample(), dnn/layer.hh) must return
 * the same floats at every batch.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "dnn/conv.hh"
#include "dnn/fc.hh"
#include "dnn/gemm.hh"

namespace cdma {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/**
 * Same float bits, except that any NaN matches any NaN: when both
 * operands of an add are NaN, x86 returns the first one's payload, and
 * for a commutative operator the compiler picks which comes first.
 */
bool
sameBits(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

void
expectSameBits(const std::vector<float> &got,
               const std::vector<float> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(sameBits(got[i], want[i]))
            << what << " element " << i << ": " << got[i] << " (0x"
            << std::hex << std::bit_cast<uint32_t>(got[i]) << ") vs "
            << want[i] << " (0x" << std::bit_cast<uint32_t>(want[i])
            << ")";
    }
}

std::vector<float>
values(const Tensor4D &t)
{
    return {t.data().begin(), t.data().end()};
}

/**
 * Normal values with the special ones mixed in at the given rates: exact
 * zeros (both signs) and, when @p specials, +-inf and NaN.
 */
void
fillValues(std::vector<float> &v, Rng &rng, double zero_rate,
           bool specials)
{
    for (float &x : v) {
        const double u = rng.uniform();
        if (u < zero_rate)
            x = rng.bernoulli(0.5) ? 0.0f : -0.0f;
        else if (specials && u < zero_rate + 0.01)
            x = kInf;
        else if (specials && u < zero_rate + 0.02)
            x = -kInf;
        else if (specials && u < zero_rate + 0.03)
            x = kNaN;
        else
            x = static_cast<float>(rng.normal(0.0, 1.0));
    }
}

// ---- the reference loops --------------------------------------------

void
refIm2col(const Tensor4D &input, int64_t sample, const ConvSpec &spec,
          const Shape4D &out, std::vector<float> &columns)
{
    const Shape4D &in = input.shape();
    const int64_t k = spec.kernel;
    const int64_t patch = in.c * k * k;
    columns.assign(static_cast<size_t>(patch * out.h * out.w), 0.0f);
    for (int64_t c = 0; c < in.c; ++c) {
        for (int64_t kh = 0; kh < k; ++kh) {
            for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t row = (c * k + kh) * k + kw;
                for (int64_t oh = 0; oh < out.h; ++oh) {
                    const int64_t ih = oh * spec.stride - spec.pad + kh;
                    if (ih < 0 || ih >= in.h)
                        continue;
                    for (int64_t ow = 0; ow < out.w; ++ow) {
                        const int64_t iw = ow * spec.stride - spec.pad + kw;
                        if (iw < 0 || iw >= in.w)
                            continue;
                        columns[static_cast<size_t>(
                            row * out.h * out.w + oh * out.w + ow)] =
                            input.at(sample, c, ih, iw);
                    }
                }
            }
        }
    }
}

void
refCol2im(const std::vector<float> &columns, int64_t sample,
          const ConvSpec &spec, const Shape4D &out, Tensor4D &input_grad)
{
    const Shape4D &in = input_grad.shape();
    const int64_t k = spec.kernel;
    for (int64_t c = 0; c < in.c; ++c) {
        for (int64_t kh = 0; kh < k; ++kh) {
            for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t row = (c * k + kh) * k + kw;
                for (int64_t oh = 0; oh < out.h; ++oh) {
                    const int64_t ih = oh * spec.stride - spec.pad + kh;
                    if (ih < 0 || ih >= in.h)
                        continue;
                    for (int64_t ow = 0; ow < out.w; ++ow) {
                        const int64_t iw = ow * spec.stride - spec.pad + kw;
                        if (iw < 0 || iw >= in.w)
                            continue;
                        input_grad.at(sample, c, ih, iw) +=
                            columns[static_cast<size_t>(
                                row * out.h * out.w + oh * out.w + ow)];
                    }
                }
            }
        }
    }
}

Tensor4D
refConvForward(const Tensor4D &input, const std::vector<float> &w,
               const std::vector<float> &bias, const ConvSpec &spec,
               const Shape4D &out_shape)
{
    Tensor4D output(out_shape);
    const int64_t patch = input.shape().c * spec.kernel * spec.kernel;
    const int64_t spatial = out_shape.h * out_shape.w;
    std::vector<float> columns;
    for (int64_t n = 0; n < input.shape().n; ++n) {
        refIm2col(input, n, spec, out_shape, columns);
        for (int64_t oc = 0; oc < spec.out_channels; ++oc) {
            const float *w_row = w.data() + oc * patch;
            float *out_row = &output.at(n, oc, 0, 0);
            for (int64_t s = 0; s < spatial; ++s)
                out_row[s] = bias[static_cast<size_t>(oc)];
            for (int64_t p = 0; p < patch; ++p) {
                if (w_row[p] == 0.0f)
                    continue;
                const float *col_row = columns.data() + p * spatial;
                for (int64_t s = 0; s < spatial; ++s)
                    out_row[s] += w_row[p] * col_row[s];
            }
        }
    }
    return output;
}

/** Returns the input gradient; adds into @p dw and @p db. */
Tensor4D
refConvBackward(const Tensor4D &input, const std::vector<float> &w,
                const Tensor4D &dy, const ConvSpec &spec,
                std::vector<float> &dw, std::vector<float> &db)
{
    const Shape4D &out_shape = dy.shape();
    Tensor4D input_grad(input.shape());
    const int64_t patch = input.shape().c * spec.kernel * spec.kernel;
    const int64_t spatial = out_shape.h * out_shape.w;
    std::vector<float> columns;
    std::vector<float> col_grad(static_cast<size_t>(patch * spatial));
    for (int64_t n = 0; n < input.shape().n; ++n) {
        refIm2col(input, n, spec, out_shape, columns);
        for (int64_t oc = 0; oc < spec.out_channels; ++oc) {
            const float *dy_row = dy.data().data() +
                linearIndex(out_shape, dy.layout(), n, oc, 0, 0);
            float dbias = 0.0f;
            for (int64_t s = 0; s < spatial; ++s)
                dbias += dy_row[s];
            db[static_cast<size_t>(oc)] += dbias;
            for (int64_t p = 0; p < patch; ++p) {
                const float *col_row = columns.data() + p * spatial;
                float acc = 0.0f;
                for (int64_t s = 0; s < spatial; ++s)
                    acc += dy_row[s] * col_row[s];
                dw[static_cast<size_t>(oc * patch + p)] += acc;
            }
        }
        std::fill(col_grad.begin(), col_grad.end(), 0.0f);
        for (int64_t oc = 0; oc < spec.out_channels; ++oc) {
            const float *dy_row = dy.data().data() +
                linearIndex(out_shape, dy.layout(), n, oc, 0, 0);
            for (int64_t p = 0; p < patch; ++p) {
                const float wv = w[static_cast<size_t>(oc * patch + p)];
                if (wv == 0.0f)
                    continue;
                float *cg_row = col_grad.data() + p * spatial;
                for (int64_t s = 0; s < spatial; ++s)
                    cg_row[s] += wv * dy_row[s];
            }
        }
        refCol2im(col_grad, n, spec, out_shape, input_grad);
    }
    return input_grad;
}

Tensor4D
refFcForward(const Tensor4D &input, const std::vector<float> &w,
             const std::vector<float> &bias, int64_t in_f, int64_t out_f)
{
    Tensor4D output({input.shape().n, out_f, 1, 1});
    for (int64_t n = 0; n < input.shape().n; ++n) {
        const float *x = input.data().data() + n * in_f;
        float *y = output.data().data() + n * out_f;
        for (int64_t o = 0; o < out_f; ++o) {
            float acc = bias[static_cast<size_t>(o)];
            for (int64_t i = 0; i < in_f; ++i)
                acc += w[static_cast<size_t>(o * in_f + i)] * x[i];
            y[o] = acc;
        }
    }
    return output;
}

Tensor4D
refFcBackward(const Tensor4D &input, const std::vector<float> &w,
              const Tensor4D &dy, int64_t in_f, int64_t out_f,
              std::vector<float> &dw, std::vector<float> &db)
{
    Tensor4D input_grad(input.shape());
    for (int64_t n = 0; n < input.shape().n; ++n) {
        const float *x = input.data().data() + n * in_f;
        const float *g_row = dy.data().data() + n * out_f;
        float *dx = input_grad.data().data() + n * in_f;
        for (int64_t o = 0; o < out_f; ++o) {
            const float g = g_row[o];
            if (g == 0.0f)
                continue;
            for (int64_t i = 0; i < in_f; ++i) {
                dw[static_cast<size_t>(o * in_f + i)] += g * x[i];
                dx[i] += g * w[static_cast<size_t>(o * in_f + i)];
            }
            db[static_cast<size_t>(o)] += g;
        }
    }
    return input_grad;
}

// ---- the kernels ----------------------------------------------------

/** Every backend this CPU runs, the dispatched one first. */
std::vector<std::pair<std::string, GemmKernel>>
kernels()
{
    std::vector<std::pair<std::string, GemmKernel>> all = {
        {"dispatch", gemm}};
    if (const GemmKernel avx2 = gemmAvx2())
        all.emplace_back("avx2", avx2);
    return all;
}

TEST(DnnGemm, EveryKernelMatchesTheScalarLoops)
{
    // Tile and tail shapes: rows around the 4-row tile, columns around
    // the 16-column tile, depth from none to past the tile; A read
    // row-major and transposed; every start, skip and store mode.
    Rng rng(91);
    const GemmStart starts[] = {GemmStart::Zero, GemmStart::RowBias,
                                GemmStart::Dest};
    int cases = 0;
    for (const int64_t rows : {1, 3, 4, 5, 9}) {
        for (const int64_t cols : {1, 7, 8, 15, 16, 17, 33}) {
            for (const int64_t depth : {0, 1, 6, 21}) {
                for (const bool transposed : {false, true}) {
                    for (const GemmStart start : starts) {
                        for (const bool skip : {false, true}) {
                            const bool add = start != GemmStart::Dest &&
                                rng.bernoulli(0.5);
                            std::vector<float> a(
                                static_cast<size_t>(rows * depth));
                            std::vector<float> b(
                                static_cast<size_t>(depth * (cols + 3)));
                            std::vector<float> bias(
                                static_cast<size_t>(rows));
                            std::vector<float> c0(
                                static_cast<size_t>(rows * (cols + 2)));
                            fillValues(a, rng, 0.2, true);
                            fillValues(b, rng, 0.1, true);
                            fillValues(bias, rng, 0.3, false);
                            fillValues(c0, rng, 0.2, true);
                            Gemm g{.rows = rows,
                                   .cols = cols,
                                   .depth = depth,
                                   .a = a.data(),
                                   .a_row_stride = transposed ? 1 : depth,
                                   .a_depth_stride = transposed ? rows : 1,
                                   .b = b.data(),
                                   .ldb = cols + 3,
                                   .c = nullptr,
                                   .ldc = cols + 2,
                                   .start = start,
                                   .row_bias = bias.data(),
                                   .skip_zero_a = skip,
                                   .add_to_dest = add};
                            std::vector<float> want = c0;
                            g.c = want.data();
                            gemmScalar(g);
                            for (const auto &[name, kernel] : kernels()) {
                                std::vector<float> got = c0;
                                g.c = got.data();
                                kernel(g);
                                expectSameBits(
                                    got, want,
                                    name + " " + std::to_string(rows) +
                                        "x" + std::to_string(cols) + "x" +
                                        std::to_string(depth));
                            }
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 5 * 7 * 4 * 2 * 3 * 2);
}

TEST(DnnGemm, ScalarLoopsFollowTheDocumentedSum)
{
    // The oracle's oracle: outputs worked out from the formula in
    // gemm.hh, with the skips that keep 0 * inf out of a sum and keep a
    // -0.0 start. A is {{0, 2}, {-0, 0.5}}, B is {{inf, -1}, {3, -0}}.
    const std::vector<float> a = {0.0f, 2.0f, -0.0f, 0.5f};
    const std::vector<float> b = {kInf, -1.0f, 3.0f, -0.0f};
    const float bias[] = {-0.0f, -0.0f};
    std::vector<float> c(4);
    Gemm g{.rows = 2,
           .cols = 2,
           .depth = 2,
           .a = a.data(),
           .a_row_stride = 2,
           .a_depth_stride = 1,
           .b = b.data(),
           .ldb = 2,
           .c = c.data(),
           .ldc = 2,
           .start = GemmStart::RowBias,
           .row_bias = bias,
           .skip_zero_a = true};
    gemmScalar(g);
    EXPECT_EQ(c[0], 6.0f);              // -0 + 2 * 3
    EXPECT_TRUE(std::signbit(c[1]));    // -0 + 2 * -0
    EXPECT_EQ(c[2], 1.5f);              // -0 + 0.5 * 3
    EXPECT_TRUE(std::signbit(c[3]));    // -0 + 0.5 * -0
    EXPECT_EQ(c[3], 0.0f);

    // Without the skips, 0 * inf poisons c(0, 0) and the +0 of
    // -0 * -1 clears the sign of c(1, 1).
    g.skip_zero_a = false;
    gemmScalar(g);
    EXPECT_TRUE(std::isnan(c[0]));
    EXPECT_FALSE(std::signbit(c[3]));
}

/**
 * One Conv2D layer (weights drawn from @p init_seed) against
 * refConvForward and refConvBackward on an @p in_shape input, bit for
 * bit; the values and the gradients it adds onto come from @p rng.
 */
void
checkConv(const Shape4D &in_shape, const ConvSpec &spec, uint64_t init_seed,
          Rng &rng, const std::string &what)
{
    Rng init(init_seed);
    Conv2D conv("conv", in_shape.c, spec, init);
    const Shape4D out_shape = conv.outputShape(in_shape);
    ParamBlob &weights = *conv.params()[0];
    ParamBlob &bias = *conv.params()[1];
    fillValues(weights.value, rng, 0.15, false);
    fillValues(bias.value, rng, 0.5, false);
    fillValues(weights.grad, rng, 0.1, false);
    fillValues(bias.grad, rng, 0.1, false);

    Tensor4D input(in_shape);
    std::vector<float> x(static_cast<size_t>(in_shape.elements()));
    fillValues(x, rng, 0.3, true);
    std::copy(x.begin(), x.end(), input.data().begin());
    Tensor4D dy(out_shape);
    std::vector<float> g(static_cast<size_t>(out_shape.elements()));
    fillValues(g, rng, 0.3, true);
    std::copy(g.begin(), g.end(), dy.data().begin());

    const Tensor4D y = conv.forward(input);
    expectSameBits(values(y),
                   values(refConvForward(input, weights.value, bias.value,
                                         spec, out_shape)),
                   what + " forward");

    std::vector<float> want_dw = weights.grad;
    std::vector<float> want_db = bias.grad;
    const Tensor4D want_dx =
        refConvBackward(input, weights.value, dy, spec, want_dw, want_db);
    const Tensor4D dx = conv.backward(input, y, dy);
    expectSameBits(values(dx), values(want_dx), what + " input grad");
    expectSameBits(weights.grad, want_dw, what + " weight grad");
    expectSameBits(bias.grad, want_db, what + " bias grad");
}

TEST(DnnGemm, ConvMatchesTheReferenceLoops)
{
    // Kernels 1, 3, 5, 11 at strides 1, 2, 4 and pads 0-2, on an odd
    // 13 x 19 map with 5 output channels: neither the rows nor the
    // columns of any GEMM fill whole tiles.
    Rng rng(17);
    for (const int64_t k : {1, 3, 5, 11}) {
        for (const int64_t stride : {1, 2, 4}) {
            for (const int64_t pad : {0, 1, 2}) {
                checkConv({2, 3, 13, 19}, {5, k, stride, pad},
                          static_cast<uint64_t>(k * 100 + stride * 10 + pad),
                          rng,
                          "k" + std::to_string(k) + " s" +
                              std::to_string(stride) + " p" +
                              std::to_string(pad));
            }
        }
    }

    // Passes above the fan-out cut-off run their samples on the
    // trainer's lanes and add each sample's dW and db in sample order.
    // Batches 1 (inline), 2, lanes + 1 (one sample past a full round of
    // lanes) and 16 (every result slot reused), on a 3x3 conv and on a
    // strided, padded 5x5 one with partial windows on every border.
    const int64_t lanes = std::min<int64_t>(ThreadPool::hardwareLanes(),
                                            ThreadPool::kMaxInFlight / 2);
    for (const int64_t n : {int64_t{1}, int64_t{2}, lanes + 1, int64_t{16}}) {
        for (const auto &[in_shape, spec] :
             {std::pair{Shape4D{n, 8, 16, 16}, ConvSpec{16, 3, 1, 1}},
              std::pair{Shape4D{n, 3, 33, 31}, ConvSpec{13, 5, 2, 2}}}) {
            const std::string what =
                (testing::Message() << 'k' << spec.kernel << " batch " << n)
                    .GetString();
            const uint64_t ops =
                Conv2D::forwardMacs(in_shape, spec) / kGemmMacsPerOp;
            EXPECT_EQ(sampleLanes(n, ops),
                      static_cast<unsigned>(std::min(lanes, n)))
                << what << " stays below the fan-out cut-off";
            checkConv(in_shape, spec, static_cast<uint64_t>(spec.kernel),
                      rng, what);
        }
    }
}

TEST(DnnGemm, FcMatchesTheReferenceLoops)
{
    Rng rng(29);
    for (const int64_t batch : {1, 3, 16, 19}) {
        for (const auto &[in_f, out_f] :
             {std::pair<int64_t, int64_t>{37, 13}, {16, 4}, {5, 33}}) {
            Rng init(static_cast<uint64_t>(batch * in_f));
            FullyConnected fc("fc", in_f, out_f, init);
            ParamBlob &weights = *fc.params()[0];
            ParamBlob &bias = *fc.params()[1];
            fillValues(weights.value, rng, 0.1, false);
            fillValues(bias.value, rng, 0.5, false);
            fillValues(weights.grad, rng, 0.1, false);
            fillValues(bias.grad, rng, 0.3, false);

            const Shape4D in_shape{batch, in_f, 1, 1};
            Tensor4D input(in_shape);
            std::vector<float> x(static_cast<size_t>(in_shape.elements()));
            fillValues(x, rng, 0.3, true);
            std::copy(x.begin(), x.end(), input.data().begin());
            Tensor4D dy({batch, out_f, 1, 1});
            std::vector<float> g(static_cast<size_t>(batch * out_f));
            // Mostly zero, as after a ReLU and dropout.
            fillValues(g, rng, 0.6, true);
            std::copy(g.begin(), g.end(), dy.data().begin());

            const std::string what = std::to_string(batch) + "x" +
                std::to_string(in_f) + "->" + std::to_string(out_f);
            const Tensor4D y = fc.forward(input);
            expectSameBits(values(y),
                           values(refFcForward(input, weights.value,
                                               bias.value, in_f, out_f)),
                           what + " forward");

            std::vector<float> want_dw = weights.grad;
            std::vector<float> want_db = bias.grad;
            const Tensor4D want_dx = refFcBackward(
                input, weights.value, dy, in_f, out_f, want_dw, want_db);
            const Tensor4D dx = fc.backward(input, y, dy);
            expectSameBits(values(dx), values(want_dx), what + " input grad");
            expectSameBits(weights.grad, want_dw, what + " weight grad");
            expectSameBits(bias.grad, want_db, what + " bias grad");
        }
    }
}

} // namespace
} // namespace cdma
