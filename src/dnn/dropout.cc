#include "dnn/dropout.hh"

#include "common/logging.hh"

namespace cdma {

Dropout::Dropout(std::string name, float rate, Rng &rng)
    : Layer(std::move(name)), rate_(rate), rng_(rng.fork())
{
    CDMA_ASSERT(rate >= 0.0f && rate < 1.0f, "invalid dropout rate %f",
                static_cast<double>(rate));
}

Shape4D
Dropout::outputShape(const Shape4D &input) const
{
    return input;
}

Tensor4D
Dropout::forward(const Tensor4D &input)
{
    if (!training_) {
        // Inverted dropout: inference is the identity.
        return input;
    }
    Tensor4D output(input.shape(), input.layout());
    mask_.assign(static_cast<size_t>(input.elements()), 0);
    const float scale = 1.0f / (1.0f - rate_);
    auto in = input.data();
    auto out = output.data();
    for (size_t i = 0; i < in.size(); ++i) {
        if (!rng_.bernoulli(rate_)) {
            mask_[i] = 1;
            out[i] = in[i] * scale;
        }
    }
    return output;
}

Tensor4D
Dropout::backward(const Tensor4D &input, const Tensor4D &output,
                  const Tensor4D &output_grad)
{
    (void)input;
    (void)output;
    Tensor4D input_grad(output_grad.shape(), output_grad.layout());
    const float scale = 1.0f / (1.0f - rate_);
    auto dy = output_grad.data();
    auto dx = input_grad.data();
    for (size_t i = 0; i < dy.size(); ++i)
        dx[i] = mask_[i] ? dy[i] * scale : 0.0f;
    return input_grad;
}

} // namespace cdma
