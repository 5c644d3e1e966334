#include "dnn/fc.hh"

#include <cmath>

#include "common/logging.hh"

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

    // The NCHW linear storage of one sample is already the flattened
    // feature vector.
    auto in = input.data();
    auto out = output.data();
    for (int64_t n = 0; n < out_shape.n; ++n) {
        const float *x = in.data() + n * in_features_;
        float *y = out.data() + n * out_features_;
        for (int64_t o = 0; o < out_features_; ++o) {
            const float *w = weights_.value.data() + o * in_features_;
            float acc = bias_.value[static_cast<size_t>(o)];
            for (int64_t i = 0; i < in_features_; ++i)
                acc += w[i] * x[i];
            y[o] = acc;
        }
    }
    return output;
}

Tensor4D
FullyConnected::backward(const Tensor4D &input, const Tensor4D &output,
                         const Tensor4D &output_grad)
{
    (void)output;
    const Shape4D &in_shape = input.shape();
    Tensor4D input_grad(in_shape);

    auto x = input.data();
    auto dy = output_grad.data();
    auto dx = input_grad.data();

    for (int64_t n = 0; n < in_shape.n; ++n) {
        const float *x_row = x.data() + n * in_features_;
        const float *dy_row = dy.data() + n * out_features_;
        float *dx_row = dx.data() + n * in_features_;
        for (int64_t o = 0; o < out_features_; ++o) {
            const float g = dy_row[o];
            if (g == 0.0f)
                continue;
            float *dw = weights_.grad.data() + o * in_features_;
            const float *w = weights_.value.data() + o * in_features_;
            for (int64_t i = 0; i < in_features_; ++i) {
                dw[i] += g * x_row[i];
                dx_row[i] += g * w[i];
            }
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
