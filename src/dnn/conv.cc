#include "dnn/conv.hh"

#include <cmath>

#include "common/logging.hh"

namespace cdma {

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

void
Conv2D::im2col(const Tensor4D &input, int64_t sample,
               std::vector<float> &columns) const
{
    const Shape4D &in = input.shape();
    const Shape4D out = outputShape(in);
    const int64_t k = spec_.kernel;
    const int64_t patch = in.c * k * k;
    columns.assign(static_cast<size_t>(patch * out.h * out.w), 0.0f);

    for (int64_t c = 0; c < in.c; ++c) {
        for (int64_t kh = 0; kh < k; ++kh) {
            for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t row = (c * k + kh) * k + kw;
                for (int64_t oh = 0; oh < out.h; ++oh) {
                    const int64_t ih = oh * spec_.stride - spec_.pad + kh;
                    if (ih < 0 || ih >= in.h)
                        continue;
                    for (int64_t ow = 0; ow < out.w; ++ow) {
                        const int64_t iw =
                            ow * spec_.stride - spec_.pad + kw;
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
Conv2D::col2im(const std::vector<float> &columns, int64_t sample,
               Tensor4D &input_grad) const
{
    const Shape4D &in = input_grad.shape();
    const Shape4D out = outputShape(in);
    const int64_t k = spec_.kernel;

    for (int64_t c = 0; c < in.c; ++c) {
        for (int64_t kh = 0; kh < k; ++kh) {
            for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t row = (c * k + kh) * k + kw;
                for (int64_t oh = 0; oh < out.h; ++oh) {
                    const int64_t ih = oh * spec_.stride - spec_.pad + kh;
                    if (ih < 0 || ih >= in.h)
                        continue;
                    for (int64_t ow = 0; ow < out.w; ++ow) {
                        const int64_t iw =
                            ow * spec_.stride - spec_.pad + kw;
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
Conv2D::forward(const Tensor4D &input)
{
    const Shape4D out_shape = outputShape(input.shape());
    Tensor4D output(out_shape);

    const int64_t patch = in_channels_ * spec_.kernel * spec_.kernel;
    const int64_t spatial = out_shape.h * out_shape.w;
    std::vector<float> columns;

    for (int64_t n = 0; n < input.shape().n; ++n) {
        im2col(input, n, columns);
        // GEMM: output[oc][s] = sum_p weights[oc][p] * columns[p][s].
        for (int64_t oc = 0; oc < spec_.out_channels; ++oc) {
            const float *w_row =
                weights_.value.data() + oc * patch;
            const float b = bias_.value[static_cast<size_t>(oc)];
            float *out_row = &output.at(n, oc, 0, 0);
            for (int64_t s = 0; s < spatial; ++s)
                out_row[s] = b;
            for (int64_t p = 0; p < patch; ++p) {
                const float w = w_row[p];
                if (w == 0.0f)
                    continue;
                const float *col_row =
                    columns.data() + static_cast<size_t>(p * spatial);
                for (int64_t s = 0; s < spatial; ++s)
                    out_row[s] += w * col_row[s];
            }
        }
    }
    return output;
}

Tensor4D
Conv2D::backward(const Tensor4D &input, const Tensor4D &output,
                 const Tensor4D &output_grad)
{
    const Shape4D &in_shape = input.shape();
    const Shape4D &out_shape = output.shape();
    CDMA_ASSERT(output_grad.shape() == out_shape,
                "conv %s backward shape mismatch", name().c_str());

    Tensor4D input_grad(in_shape);
    const int64_t patch = in_channels_ * spec_.kernel * spec_.kernel;
    const int64_t spatial = out_shape.h * out_shape.w;

    std::vector<float> columns;
    std::vector<float> col_grad(
        static_cast<size_t>(patch * spatial), 0.0f);

    for (int64_t n = 0; n < in_shape.n; ++n) {
        im2col(input, n, columns);

        // dW[oc][p] += sum_s dY[oc][s] * columns[p][s]
        // db[oc]    += sum_s dY[oc][s]
        for (int64_t oc = 0; oc < spec_.out_channels; ++oc) {
            const float *dy_row = output_grad.data().data() +
                linearIndex(out_shape, output_grad.layout(), n, oc, 0, 0);
            float *dw_row = weights_.grad.data() + oc * patch;
            float dbias = 0.0f;
            for (int64_t s = 0; s < spatial; ++s)
                dbias += dy_row[s];
            bias_.grad[static_cast<size_t>(oc)] += dbias;
            for (int64_t p = 0; p < patch; ++p) {
                const float *col_row =
                    columns.data() + static_cast<size_t>(p * spatial);
                float acc = 0.0f;
                for (int64_t s = 0; s < spatial; ++s)
                    acc += dy_row[s] * col_row[s];
                dw_row[p] += acc;
            }
        }

        // dCols[p][s] = sum_oc W[oc][p] * dY[oc][s], then col2im.
        std::fill(col_grad.begin(), col_grad.end(), 0.0f);
        for (int64_t oc = 0; oc < spec_.out_channels; ++oc) {
            const float *dy_row = output_grad.data().data() +
                linearIndex(out_shape, output_grad.layout(), n, oc, 0, 0);
            const float *w_row = weights_.value.data() + oc * patch;
            for (int64_t p = 0; p < patch; ++p) {
                const float w = w_row[p];
                if (w == 0.0f)
                    continue;
                float *cg_row =
                    col_grad.data() + static_cast<size_t>(p * spatial);
                for (int64_t s = 0; s < spatial; ++s)
                    cg_row[s] += w * dy_row[s];
            }
        }
        col2im(col_grad, n, input_grad);
    }
    return input_grad;
}

std::vector<ParamBlob *>
Conv2D::params()
{
    return {&weights_, &bias_};
}

} // namespace cdma
