#include "dnn/conv.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "dnn/gemm.hh"

namespace cdma {

namespace {

/**
 * Outputs [lo, hi) along one axis whose input index
 * o * stride + offset lies inside [0, in_extent).
 */
struct OutputSpan {
    int64_t lo;
    int64_t hi;
};

OutputSpan
validOutputs(int64_t offset, int64_t stride, int64_t in_extent,
             int64_t out_extent)
{
    const int64_t lo = std::min(
        out_extent, offset >= 0 ? 0 : (stride - 1 - offset) / stride);
    const int64_t limit = in_extent - offset;
    const int64_t hi = limit <= 0 ? 0 : (limit + stride - 1) / stride;
    return {lo, std::clamp(hi, lo, out_extent)};
}

/**
 * Lower one C x H x W sample into its (C*K*K) x (Hout*Wout) column
 * matrix: row (c, kh, kw) holds that patch element at every output
 * position, zero where it falls in the padding.
 */
void
im2col(const float *image, const Shape4D &in, const Shape4D &out,
       const ConvSpec &spec, float *columns)
{
    const int64_t k = spec.kernel;
    const int64_t spatial = out.h * out.w;
    for (int64_t c = 0; c < in.c; ++c) {
        for (int64_t kh = 0; kh < k; ++kh) {
            const OutputSpan oh_span =
                validOutputs(kh - spec.pad, spec.stride, in.h, out.h);
            for (int64_t kw = 0; kw < k; ++kw) {
                const OutputSpan ow_span =
                    validOutputs(kw - spec.pad, spec.stride, in.w, out.w);
                float *row = columns + ((c * k + kh) * k + kw) * spatial;
                std::fill(row, row + oh_span.lo * out.w, 0.0f);
                for (int64_t oh = oh_span.lo; oh < oh_span.hi; ++oh) {
                    const float *src = image +
                        (c * in.h + oh * spec.stride - spec.pad + kh) *
                            in.w;
                    float *dst = row + oh * out.w;
                    std::fill(dst, dst + ow_span.lo, 0.0f);
                    for (int64_t ow = ow_span.lo; ow < ow_span.hi; ++ow)
                        dst[ow] = src[ow * spec.stride - spec.pad + kw];
                    std::fill(dst + ow_span.hi, dst + out.w, 0.0f);
                }
                std::fill(row + oh_span.hi * out.w, row + spatial, 0.0f);
            }
        }
    }
}

/**
 * The transpose of im2col: one (C*K*K)-wide patch row per output
 * position, in output order.
 */
void
im2row(const float *image, const Shape4D &in, const Shape4D &out,
       const ConvSpec &spec, float *rows)
{
    const int64_t k = spec.kernel;
    const int64_t patch = in.c * k * k;
    for (int64_t oh = 0; oh < out.h; ++oh) {
        for (int64_t ow = 0; ow < out.w; ++ow) {
            float *dst = rows + (oh * out.w + ow) * patch;
            const int64_t iw0 = ow * spec.stride - spec.pad;
            const int64_t kw_lo = std::clamp<int64_t>(-iw0, 0, k);
            const int64_t kw_hi =
                std::clamp<int64_t>(in.w - iw0, kw_lo, k);
            for (int64_t c = 0; c < in.c; ++c) {
                for (int64_t kh = 0; kh < k; ++kh) {
                    float *d = dst + (c * k + kh) * k;
                    const int64_t ih = oh * spec.stride - spec.pad + kh;
                    if (ih < 0 || ih >= in.h) {
                        std::fill(d, d + k, 0.0f);
                        continue;
                    }
                    const float *src = image + (c * in.h + ih) * in.w;
                    std::fill(d, d + kw_lo, 0.0f);
                    for (int64_t kw = kw_lo; kw < kw_hi; ++kw)
                        d[kw] = src[iw0 + kw];
                    std::fill(d + kw_hi, d + k, 0.0f);
                }
            }
        }
    }
}

/**
 * Add a column matrix back into one sample's C x H x W gradient image,
 * patch row by patch row (the order the sums must keep).
 */
void
col2im(const float *columns, const Shape4D &in, const Shape4D &out,
       const ConvSpec &spec, float *image_grad)
{
    const int64_t k = spec.kernel;
    const int64_t spatial = out.h * out.w;
    for (int64_t c = 0; c < in.c; ++c) {
        for (int64_t kh = 0; kh < k; ++kh) {
            const OutputSpan oh_span =
                validOutputs(kh - spec.pad, spec.stride, in.h, out.h);
            for (int64_t kw = 0; kw < k; ++kw) {
                const OutputSpan ow_span =
                    validOutputs(kw - spec.pad, spec.stride, in.w, out.w);
                const float *row =
                    columns + ((c * k + kh) * k + kw) * spatial;
                for (int64_t oh = oh_span.lo; oh < oh_span.hi; ++oh) {
                    float *dst = image_grad +
                        (c * in.h + oh * spec.stride - spec.pad + kh) *
                            in.w;
                    const float *src = row + oh * out.w;
                    for (int64_t ow = ow_span.lo; ow < ow_span.hi; ++ow)
                        dst[ow * spec.stride - spec.pad + kw] += src[ow];
                }
            }
        }
    }
}

} // namespace

Conv2D::Conv2D(std::string name, int64_t in_channels, const ConvSpec &spec,
               Rng &rng)
    : Layer(std::move(name)), in_channels_(in_channels), spec_(spec),
      weights_(static_cast<size_t>(spec.out_channels * in_channels *
                                   spec.kernel * spec.kernel)),
      bias_(static_cast<size_t>(spec.out_channels))
{
    CDMA_ASSERT(spec.out_channels > 0 && spec.kernel > 0 &&
                    spec.stride > 0 && spec.pad >= 0,
                "invalid conv spec for %s", this->name().c_str());
    // He initialization: std = sqrt(2 / fan_in), appropriate ahead of
    // ReLU nonlinearities.
    const double fan_in =
        static_cast<double>(in_channels * spec.kernel * spec.kernel);
    const double stddev = std::sqrt(2.0 / fan_in);
    for (auto &w : weights_.value)
        w = static_cast<float>(rng.normal(0.0, stddev));
}

Shape4D
Conv2D::outputShape(const Shape4D &input) const
{
    CDMA_ASSERT(input.c == in_channels_,
                "conv %s expects %lld input channels, got %lld",
                name().c_str(), static_cast<long long>(in_channels_),
                static_cast<long long>(input.c));
    const int64_t out_h =
        (input.h + 2 * spec_.pad - spec_.kernel) / spec_.stride + 1;
    const int64_t out_w =
        (input.w + 2 * spec_.pad - spec_.kernel) / spec_.stride + 1;
    CDMA_ASSERT(out_h > 0 && out_w > 0,
                "conv %s output collapses to zero for input %s",
                name().c_str(), input.str().c_str());
    return {input.n, spec_.out_channels, out_h, out_w};
}

uint64_t
Conv2D::forwardMacs(const Shape4D &input, const ConvSpec &spec)
{
    const int64_t out_h =
        (input.h + 2 * spec.pad - spec.kernel) / spec.stride + 1;
    const int64_t out_w =
        (input.w + 2 * spec.pad - spec.kernel) / spec.stride + 1;
    return static_cast<uint64_t>(input.n) *
        static_cast<uint64_t>(spec.out_channels) *
        static_cast<uint64_t>(out_h * out_w) *
        static_cast<uint64_t>(input.c * spec.kernel * spec.kernel);
}

uint64_t
Conv2D::forwardMacsPerImage(const Shape4D &input) const
{
    Shape4D one = input;
    one.n = 1;
    return forwardMacs(one, spec_);
}

Tensor4D
Conv2D::forward(const Tensor4D &input)
{
    const Shape4D &in_shape = input.shape();
    const Shape4D out_shape = outputShape(in_shape);
    Tensor4D output(out_shape);

    const int64_t patch = in_channels_ * spec_.kernel * spec_.kernel;
    const int64_t spatial = out_shape.h * out_shape.w;
    const size_t matrix = static_cast<size_t>(patch * spatial);
    const unsigned lanes = sampleLanes(
        in_shape.n, forwardMacs(in_shape, spec_) / kGemmMacsPerOp);
    // Uninitialized: im2col writes every element.
    const auto columns = std::make_unique_for_overwrite<float[]>(
        lanes * matrix);

    forEachSample(in_shape.n, lanes, [&](int64_t n, unsigned lane) {
        float *cols = columns.get() + lane * matrix;
        im2col(sampleData(input, n), in_shape, out_shape, spec_, cols);
        // output[oc][s] = bias[oc] + sum_p weights[oc][p] * columns[p][s]
        gemm({.rows = spec_.out_channels,
              .cols = spatial,
              .depth = patch,
              .a = weights_.value.data(),
              .a_row_stride = patch,
              .a_depth_stride = 1,
              .b = cols,
              .ldb = spatial,
              .c = sampleData(output, n),
              .ldc = spatial,
              .start = GemmStart::RowBias,
              .row_bias = bias_.value.data(),
              .skip_zero_a = true});
    });
    return output;
}

Tensor4D
Conv2D::backward(const Tensor4D &input, const Tensor4D &output,
                 const Tensor4D &output_grad)
{
    const Shape4D &in_shape = input.shape();
    const Shape4D &out_shape = output.shape();
    CDMA_ASSERT(output_grad.shape() == out_shape &&
                    outputShape(in_shape) == out_shape,
                "conv %s backward shape mismatch", name().c_str());

    Tensor4D input_grad(in_shape);
    const int64_t patch = in_channels_ * spec_.kernel * spec_.kernel;
    const int64_t spatial = out_shape.h * out_shape.w;
    // Per lane, one patch matrix: the im2row operand, then the input
    // gradient's columns. Per slot, one sample's weight and bias
    // gradients, which the drain adds in sample order.
    const size_t matrix = static_cast<size_t>(patch * spatial);
    const size_t dw_size = weights_.grad.size();
    const size_t slot_size = dw_size + bias_.grad.size();
    const unsigned lanes = sampleLanes(
        in_shape.n, 2 * forwardMacs(in_shape, spec_) / kGemmMacsPerOp);
    const unsigned slots = sampleSlots(lanes);
    // Uninitialized: im2row, the GEMMs and the bias sums write every
    // element before it is read.
    const auto matrices =
        std::make_unique_for_overwrite<float[]>(lanes * matrix);
    const auto partials =
        std::make_unique_for_overwrite<float[]>(slots * slot_size);

    forEachSample(
        in_shape.n, lanes,
        [&](int64_t n, unsigned lane) {
            float *const mat = matrices.get() + lane * matrix;
            float *const dw = partials.get() + (n % slots) * slot_size;
            float *const db = dw + dw_size;
            const float *dy = sampleData(output_grad, n);

            // db[oc] = sum_s dY[oc][s]
            for (int64_t oc = 0; oc < spec_.out_channels; ++oc) {
                const float *dy_row = dy + oc * spatial;
                float dbias = 0.0f;
                for (int64_t s = 0; s < spatial; ++s)
                    dbias += dy_row[s];
                db[oc] = dbias;
            }

            // dW[oc][p] = sum_s dY[oc][s] * rows[s][p]
            im2row(sampleData(input, n), in_shape, out_shape, spec_, mat);
            gemm({.rows = spec_.out_channels,
                  .cols = patch,
                  .depth = spatial,
                  .a = dy,
                  .a_row_stride = spatial,
                  .a_depth_stride = 1,
                  .b = mat,
                  .ldb = patch,
                  .c = dw,
                  .ldc = patch});

            // dCols[p][s] = sum_oc W[oc][p] * dY[oc][s], then col2im.
            gemm({.rows = patch,
                  .cols = spatial,
                  .depth = spec_.out_channels,
                  .a = weights_.value.data(),
                  .a_row_stride = 1,
                  .a_depth_stride = patch,
                  .b = dy,
                  .ldb = spatial,
                  .c = mat,
                  .ldc = spatial,
                  .skip_zero_a = true});
            col2im(mat, in_shape, out_shape, spec_,
                   sampleData(input_grad, n));
        },
        [&](int64_t n) {
            // In sample order, as the one add-to-destination GEMM per
            // sample did: grad = grad + this sample's sum.
            const float *dw = partials.get() + (n % slots) * slot_size;
            const float *db = dw + dw_size;
            for (size_t i = 0; i < dw_size; ++i)
                weights_.grad[i] += dw[i];
            for (size_t oc = 0; oc < bias_.grad.size(); ++oc)
                bias_.grad[oc] += db[oc];
        });
    return input_grad;
}

std::vector<ParamBlob *>
Conv2D::params()
{
    return {&weights_, &bias_};
}

} // namespace cdma
