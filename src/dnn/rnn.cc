#include "dnn/rnn.hh"

#include <cmath>
#include <vector>

#include "common/logging.hh"

namespace cdma {

Rnn::Rnn(std::string name, int64_t input_features, int64_t hidden_features,
         RnnActivation activation, Rng &rng)
    : Layer(std::move(name)), input_features_(input_features),
      hidden_features_(hidden_features), activation_(activation),
      w_input_(static_cast<size_t>(hidden_features * input_features)),
      w_hidden_(static_cast<size_t>(hidden_features * hidden_features)),
      bias_(static_cast<size_t>(hidden_features))
{
    CDMA_ASSERT(input_features > 0 && hidden_features > 0,
                "invalid RNN dimensions for %s", this->name().c_str());
    const double in_std = std::sqrt(2.0 / static_cast<double>(
        input_features));
    for (auto &w : w_input_.value)
        w = static_cast<float>(rng.normal(0.0, in_std));
    // Recurrent weights start near-orthogonal-ish small so unrolled
    // gradients neither vanish nor explode over short sequences.
    const double rec_std = std::sqrt(1.0 / static_cast<double>(
        hidden_features));
    for (auto &w : w_hidden_.value)
        w = static_cast<float>(rng.normal(0.0, rec_std));
}

float
Rnn::activate(float pre) const
{
    switch (activation_) {
      case RnnActivation::ReLU:
        return pre > 0.0f ? pre : 0.0f;
      case RnnActivation::Tanh:
        return std::tanh(pre);
    }
    panic("unreachable activation");
}

float
Rnn::activateGradFromOutput(float out) const
{
    switch (activation_) {
      case RnnActivation::ReLU:
        return out > 0.0f ? 1.0f : 0.0f;
      case RnnActivation::Tanh:
        return 1.0f - out * out;
    }
    panic("unreachable activation");
}

Shape4D
Rnn::outputShape(const Shape4D &input) const
{
    CDMA_ASSERT(input.h == 1 && input.w == input_features_,
                "rnn %s expects (N, T, 1, %lld), got %s", name().c_str(),
                static_cast<long long>(input_features_),
                input.str().c_str());
    return {input.n, input.c, 1, hidden_features_};
}

Tensor4D
Rnn::forward(const Tensor4D &input)
{
    const Shape4D out_shape = outputShape(input.shape());
    Tensor4D hidden(out_shape);

    const int64_t steps = input.shape().c;
    for (int64_t n = 0; n < input.shape().n; ++n) {
        for (int64_t t = 0; t < steps; ++t) {
            for (int64_t h = 0; h < hidden_features_; ++h) {
                float pre = bias_.value[static_cast<size_t>(h)];
                const float *wx =
                    w_input_.value.data() + h * input_features_;
                for (int64_t i = 0; i < input_features_; ++i)
                    pre += wx[i] * input.at(n, t, 0, i);
                if (t > 0) {
                    const float *wh =
                        w_hidden_.value.data() + h * hidden_features_;
                    for (int64_t j = 0; j < hidden_features_; ++j)
                        pre += wh[j] * hidden.at(n, t - 1, 0, j);
                }
                hidden.at(n, t, 0, h) = activate(pre);
            }
        }
    }
    return hidden;
}

Tensor4D
Rnn::backward(const Tensor4D &input, const Tensor4D &output,
              const Tensor4D &output_grad)
{
    // output holds the (N, T, 1, H) post-activation hidden states.
    const Shape4D &in_shape = input.shape();
    const int64_t steps = in_shape.c;
    Tensor4D input_grad(in_shape);

    // BPTT: dh accumulates the gradient flowing into each step's hidden
    // state (from the output at t plus the recurrence at t+1).
    std::vector<float> dh(static_cast<size_t>(hidden_features_));
    std::vector<float> dh_next(static_cast<size_t>(hidden_features_));

    for (int64_t n = 0; n < in_shape.n; ++n) {
        std::fill(dh_next.begin(), dh_next.end(), 0.0f);
        for (int64_t t = steps - 1; t >= 0; --t) {
            for (int64_t h = 0; h < hidden_features_; ++h) {
                dh[static_cast<size_t>(h)] =
                    output_grad.at(n, t, 0, h) +
                    dh_next[static_cast<size_t>(h)];
            }
            std::fill(dh_next.begin(), dh_next.end(), 0.0f);

            for (int64_t h = 0; h < hidden_features_; ++h) {
                const float out = output.at(n, t, 0, h);
                const float dpre = dh[static_cast<size_t>(h)] *
                    activateGradFromOutput(out);
                if (dpre == 0.0f)
                    continue;

                bias_.grad[static_cast<size_t>(h)] += dpre;
                float *dwx = w_input_.grad.data() + h * input_features_;
                const float *wx =
                    w_input_.value.data() + h * input_features_;
                for (int64_t i = 0; i < input_features_; ++i) {
                    dwx[i] += dpre * input.at(n, t, 0, i);
                    input_grad.at(n, t, 0, i) += dpre * wx[i];
                }
                if (t > 0) {
                    float *dwh =
                        w_hidden_.grad.data() + h * hidden_features_;
                    const float *wh =
                        w_hidden_.value.data() + h * hidden_features_;
                    for (int64_t j = 0; j < hidden_features_; ++j) {
                        dwh[j] += dpre * output.at(n, t - 1, 0, j);
                        dh_next[static_cast<size_t>(j)] += dpre * wh[j];
                    }
                }
            }
        }
    }
    return input_grad;
}

std::vector<ParamBlob *>
Rnn::params()
{
    return {&w_input_, &w_hidden_, &bias_};
}

} // namespace cdma
