#include "dnn/pool.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace cdma {

Pool2D::Pool2D(std::string name, const PoolSpec &spec)
    : Layer(std::move(name)), spec_(spec)
{
    CDMA_ASSERT(spec.kernel > 0 && spec.stride > 0,
                "invalid pool spec for %s", this->name().c_str());
}

Shape4D
Pool2D::outputShape(const Shape4D &input) const
{
    // Ceiling-mode pooling (Caffe's default): partial windows at the
    // right/bottom edges still produce an output.
    const int64_t out_h =
        (input.h - spec_.kernel + spec_.stride - 1) / spec_.stride + 1;
    const int64_t out_w =
        (input.w - spec_.kernel + spec_.stride - 1) / spec_.stride + 1;
    CDMA_ASSERT(out_h > 0 && out_w > 0,
                "pool %s output collapses to zero for input %s",
                name().c_str(), input.str().c_str());
    return {input.n, input.c, out_h, out_w};
}

uint64_t
Pool2D::forwardMacsPerImage(const Shape4D &input) const
{
    Shape4D one = input;
    one.n = 1;
    const Shape4D out = outputShape(one);
    return static_cast<uint64_t>(out.elements()) *
        static_cast<uint64_t>(spec_.kernel * spec_.kernel);
}

Tensor4D
Pool2D::forward(const Tensor4D &input)
{
    const Shape4D out_shape = outputShape(input.shape());
    Tensor4D output(out_shape);
    if (spec_.mode == PoolMode::Max) {
        argmax_.assign(static_cast<size_t>(out_shape.elements()), -1);
    }

    int64_t out_index = 0;
    for (int64_t n = 0; n < out_shape.n; ++n) {
        for (int64_t c = 0; c < out_shape.c; ++c) {
            for (int64_t oh = 0; oh < out_shape.h; ++oh) {
                for (int64_t ow = 0; ow < out_shape.w; ++ow) {
                    const int64_t h0 = oh * spec_.stride;
                    const int64_t w0 = ow * spec_.stride;
                    const int64_t h1 =
                        std::min(h0 + spec_.kernel, input.shape().h);
                    const int64_t w1 =
                        std::min(w0 + spec_.kernel, input.shape().w);
                    if (spec_.mode == PoolMode::Max) {
                        float best =
                            -std::numeric_limits<float>::infinity();
                        int64_t best_off = -1;
                        for (int64_t h = h0; h < h1; ++h) {
                            for (int64_t w = w0; w < w1; ++w) {
                                const float v = input.at(n, c, h, w);
                                if (v > best) {
                                    best = v;
                                    best_off = linearIndex(
                                        input.shape(), input.layout(),
                                        n, c, h, w);
                                }
                            }
                        }
                        output.at(n, c, oh, ow) = best;
                        argmax_[static_cast<size_t>(out_index)] = best_off;
                    } else {
                        float sum = 0.0f;
                        for (int64_t h = h0; h < h1; ++h)
                            for (int64_t w = w0; w < w1; ++w)
                                sum += input.at(n, c, h, w);
                        const auto window = static_cast<float>(
                            (h1 - h0) * (w1 - w0));
                        output.at(n, c, oh, ow) = sum / window;
                    }
                    ++out_index;
                }
            }
        }
    }
    return output;
}

Tensor4D
Pool2D::backward(const Tensor4D &input, const Tensor4D &output,
                 const Tensor4D &output_grad)
{
    (void)output;
    const Shape4D &in_shape = input.shape();
    Tensor4D input_grad(in_shape);
    const Shape4D &out_shape = output_grad.shape();

    int64_t out_index = 0;
    for (int64_t n = 0; n < out_shape.n; ++n) {
        for (int64_t c = 0; c < out_shape.c; ++c) {
            for (int64_t oh = 0; oh < out_shape.h; ++oh) {
                for (int64_t ow = 0; ow < out_shape.w; ++ow) {
                    const float dy = output_grad.at(n, c, oh, ow);
                    if (spec_.mode == PoolMode::Max) {
                        const int64_t off =
                            argmax_[static_cast<size_t>(out_index)];
                        if (off >= 0) {
                            input_grad.data()[static_cast<size_t>(off)] +=
                                dy;
                        }
                    } else {
                        const int64_t h0 = oh * spec_.stride;
                        const int64_t w0 = ow * spec_.stride;
                        const int64_t h1 =
                            std::min(h0 + spec_.kernel, in_shape.h);
                        const int64_t w1 =
                            std::min(w0 + spec_.kernel, in_shape.w);
                        const auto window = static_cast<float>(
                            (h1 - h0) * (w1 - w0));
                        for (int64_t h = h0; h < h1; ++h) {
                            for (int64_t w = w0; w < w1; ++w) {
                                input_grad.at(n, c, h, w) += dy / window;
                            }
                        }
                    }
                    ++out_index;
                }
            }
        }
    }
    return input_grad;
}

} // namespace cdma
