#include "dnn/activation.hh"

#include <cmath>

#include "common/logging.hh"

namespace cdma {

ReLU::ReLU(std::string name) : Layer(std::move(name))
{
}

Shape4D
ReLU::outputShape(const Shape4D &input) const
{
    return input;
}

Tensor4D
ReLU::forward(const Tensor4D &input)
{
    Tensor4D output(input.shape(), input.layout());
    auto in = input.data();
    auto out = output.data();
    for (size_t i = 0; i < in.size(); ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    return output;
}

Tensor4D
ReLU::backward(const Tensor4D &input, const Tensor4D &output,
               const Tensor4D &output_grad)
{
    (void)input;
    CDMA_ASSERT(output_grad.shape() == output.shape(),
                "relu %s backward shape mismatch", name().c_str());
    Tensor4D input_grad(output_grad.shape(), output_grad.layout());
    auto y = output.data();
    auto dy = output_grad.data();
    auto dx = input_grad.data();
    for (size_t i = 0; i < dy.size(); ++i)
        dx[i] = y[i] > 0.0f ? dy[i] : 0.0f;
    return input_grad;
}

Sigmoid::Sigmoid(std::string name) : Layer(std::move(name))
{
}

Shape4D
Sigmoid::outputShape(const Shape4D &input) const
{
    return input;
}

Tensor4D
Sigmoid::forward(const Tensor4D &input)
{
    Tensor4D output(input.shape(), input.layout());
    auto in = input.data();
    auto out = output.data();
    for (size_t i = 0; i < in.size(); ++i)
        out[i] = 1.0f / (1.0f + std::exp(-in[i]));
    return output;
}

Tensor4D
Sigmoid::backward(const Tensor4D &input, const Tensor4D &output,
                  const Tensor4D &output_grad)
{
    (void)input;
    Tensor4D input_grad(output_grad.shape(), output_grad.layout());
    auto dy = output_grad.data();
    auto y = output.data();
    auto dx = input_grad.data();
    for (size_t i = 0; i < dy.size(); ++i)
        dx[i] = dy[i] * y[i] * (1.0f - y[i]);
    return input_grad;
}

Tanh::Tanh(std::string name) : Layer(std::move(name))
{
}

Shape4D
Tanh::outputShape(const Shape4D &input) const
{
    return input;
}

Tensor4D
Tanh::forward(const Tensor4D &input)
{
    Tensor4D output(input.shape(), input.layout());
    auto in = input.data();
    auto out = output.data();
    for (size_t i = 0; i < in.size(); ++i)
        out[i] = std::tanh(in[i]);
    return output;
}

Tensor4D
Tanh::backward(const Tensor4D &input, const Tensor4D &output,
               const Tensor4D &output_grad)
{
    (void)input;
    Tensor4D input_grad(output_grad.shape(), output_grad.layout());
    auto dy = output_grad.data();
    auto y = output.data();
    auto dx = input_grad.data();
    for (size_t i = 0; i < dy.size(); ++i)
        dx[i] = dy[i] * (1.0f - y[i] * y[i]);
    return input_grad;
}

} // namespace cdma
