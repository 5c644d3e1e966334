#include "dnn/fc.hh"

#include <cmath>

#include "common/logging.hh"
#include "dnn/gemm.hh"

namespace cdma {

FullyConnected::FullyConnected(std::string name, int64_t in_features,
                               int64_t out_features, Rng &rng)
    : Layer(std::move(name)), in_features_(in_features),
      out_features_(out_features),
      weights_(static_cast<size_t>(in_features * out_features)),
      bias_(static_cast<size_t>(out_features))
{
    CDMA_ASSERT(in_features > 0 && out_features > 0,
                "invalid fc dimensions for %s", this->name().c_str());
    const double stddev = std::sqrt(2.0 / static_cast<double>(in_features));
    for (auto &w : weights_.value)
        w = static_cast<float>(rng.normal(0.0, stddev));
}

Shape4D
FullyConnected::outputShape(const Shape4D &input) const
{
    CDMA_ASSERT(input.c * input.h * input.w == in_features_,
                "fc %s expects %lld features, got input %s",
                name().c_str(), static_cast<long long>(in_features_),
                input.str().c_str());
    return {input.n, out_features_, 1, 1};
}

Tensor4D
FullyConnected::forward(const Tensor4D &input)
{
    const Shape4D out_shape = outputShape(input.shape());
    Tensor4D output(out_shape);
    const int64_t batch = out_shape.n;

    // The NCHW linear storage of one sample is already the flattened
    // feature vector. The GEMM runs on the transposes, with one column
    // per sample, so each sum's terms run along the features:
    // y^T[o][n] = bias[o] + sum_i W[o][i] * x^T[i][n].
    const float *x = sampleData(input, 0);
    std::vector<float> x_t(static_cast<size_t>(in_features_ * batch));
    for (int64_t n = 0; n < batch; ++n)
        for (int64_t i = 0; i < in_features_; ++i)
            x_t[static_cast<size_t>(i * batch + n)] = x[n * in_features_ + i];
    std::vector<float> y_t(static_cast<size_t>(out_features_ * batch));
    gemm({.rows = out_features_,
          .cols = batch,
          .depth = in_features_,
          .a = weights_.value.data(),
          .a_row_stride = in_features_,
          .a_depth_stride = 1,
          .b = x_t.data(),
          .ldb = batch,
          .c = y_t.data(),
          .ldc = batch,
          .start = GemmStart::RowBias,
          .row_bias = bias_.value.data()});
    float *y = sampleData(output, 0);
    for (int64_t n = 0; n < batch; ++n)
        for (int64_t o = 0; o < out_features_; ++o)
            y[n * out_features_ + o] = y_t[static_cast<size_t>(o * batch + n)];
    return output;
}

Tensor4D
FullyConnected::backward(const Tensor4D &input, const Tensor4D &output,
                         const Tensor4D &output_grad)
{
    (void)output;
    const Shape4D &in_shape = input.shape();
    CDMA_ASSERT(output_grad.shape() == outputShape(in_shape),
                "fc %s backward shape mismatch", name().c_str());
    Tensor4D input_grad(in_shape);
    const int64_t batch = in_shape.n;
    const float *x = sampleData(input, 0);
    const float *dy = sampleData(output_grad, 0);

    // A zero dY[n][o] adds no term anywhere (skip_zero_a).
    // dX[n][i] = sum_o dY[n][o] * W[o][i]
    gemm({.rows = batch,
          .cols = in_features_,
          .depth = out_features_,
          .a = dy,
          .a_row_stride = out_features_,
          .a_depth_stride = 1,
          .b = weights_.value.data(),
          .ldb = in_features_,
          .c = sampleData(input_grad, 0),
          .ldc = in_features_,
          .skip_zero_a = true});
    // dW[o][i] += dY[n][o] * x[n][i], sample by sample.
    gemm({.rows = out_features_,
          .cols = in_features_,
          .depth = batch,
          .a = dy,
          .a_row_stride = 1,
          .a_depth_stride = out_features_,
          .b = x,
          .ldb = in_features_,
          .c = weights_.grad.data(),
          .ldc = in_features_,
          .start = GemmStart::Dest,
          .skip_zero_a = true});
    for (int64_t n = 0; n < batch; ++n) {
        for (int64_t o = 0; o < out_features_; ++o) {
            const float g = dy[n * out_features_ + o];
            if (g != 0.0f)
                bias_.grad[static_cast<size_t>(o)] += g;
        }
    }
    return input_grad;
}

std::vector<ParamBlob *>
FullyConnected::params()
{
    return {&weights_, &bias_};
}

} // namespace cdma
