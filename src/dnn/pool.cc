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
    const Shape4D &in_shape = input.shape();
    const Shape4D out_shape = outputShape(in_shape);
    Tensor4D output(out_shape);
    if (spec_.mode == PoolMode::Max) {
        argmax_.assign(static_cast<size_t>(out_shape.elements()), -1);
    }

    // One (n, c) plane at a time; argmax_ holds offsets into the whole
    // NCHW input.
    const float *x = sampleData(input, 0);
    float *y = sampleData(output, 0);
    const int64_t in_plane = in_shape.h * in_shape.w;
    const int64_t out_plane = out_shape.h * out_shape.w;
    const unsigned lanes = sampleLanes(
        in_shape.n,
        static_cast<uint64_t>(out_shape.elements() * spec_.kernel *
                              spec_.kernel));
    forEachSample(in_shape.n, lanes, [&](int64_t n, unsigned) {
        int64_t out_index = n * out_shape.c * out_plane;
        for (int64_t p = n * out_shape.c; p < (n + 1) * out_shape.c; ++p) {
            const int64_t base = p * in_plane;
            for (int64_t oh = 0; oh < out_shape.h; ++oh) {
                for (int64_t ow = 0; ow < out_shape.w; ++ow) {
                    const int64_t h0 = oh * spec_.stride;
                    const int64_t w0 = ow * spec_.stride;
                    const int64_t h1 =
                        std::min(h0 + spec_.kernel, in_shape.h);
                    const int64_t w1 =
                        std::min(w0 + spec_.kernel, in_shape.w);
                    if (spec_.mode == PoolMode::Max) {
                        float best =
                            -std::numeric_limits<float>::infinity();
                        int64_t best_off = -1;
                        for (int64_t h = h0; h < h1; ++h) {
                            for (int64_t w = w0; w < w1; ++w) {
                                const int64_t off =
                                    base + h * in_shape.w + w;
                                if (x[off] > best) {
                                    best = x[off];
                                    best_off = off;
                                }
                            }
                        }
                        y[out_index] = best;
                        argmax_[static_cast<size_t>(out_index)] = best_off;
                    } else {
                        float sum = 0.0f;
                        for (int64_t h = h0; h < h1; ++h)
                            for (int64_t w = w0; w < w1; ++w)
                                sum += x[base + h * in_shape.w + w];
                        const auto window =
                            static_cast<float>((h1 - h0) * (w1 - w0));
                        y[out_index] = sum / window;
                    }
                    ++out_index;
                }
            }
        }
    });
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

    const float *dy = sampleData(output_grad, 0);
    float *dx = sampleData(input_grad, 0);
    const int64_t in_plane = in_shape.h * in_shape.w;
    const int64_t out_plane = out_shape.h * out_shape.w;
    const unsigned lanes = sampleLanes(
        in_shape.n,
        static_cast<uint64_t>(out_shape.elements() *
                              (spec_.mode == PoolMode::Max
                                   ? 1
                                   : spec_.kernel * spec_.kernel)));
    forEachSample(in_shape.n, lanes, [&](int64_t n, unsigned) {
        int64_t out_index = n * out_shape.c * out_plane;
        for (int64_t p = n * out_shape.c; p < (n + 1) * out_shape.c; ++p) {
            const int64_t base = p * in_plane;
            for (int64_t oh = 0; oh < out_shape.h; ++oh) {
                for (int64_t ow = 0; ow < out_shape.w; ++ow) {
                    const float g = dy[out_index];
                    if (spec_.mode == PoolMode::Max) {
                        const int64_t off =
                            argmax_[static_cast<size_t>(out_index)];
                        if (off >= 0)
                            dx[off] += g;
                    } else {
                        const int64_t h0 = oh * spec_.stride;
                        const int64_t w0 = ow * spec_.stride;
                        const int64_t h1 =
                            std::min(h0 + spec_.kernel, in_shape.h);
                        const int64_t w1 =
                            std::min(w0 + spec_.kernel, in_shape.w);
                        const auto window =
                            static_cast<float>((h1 - h0) * (w1 - w0));
                        for (int64_t h = h0; h < h1; ++h)
                            for (int64_t w = w0; w < w1; ++w)
                                dx[base + h * in_shape.w + w] += g / window;
                    }
                    ++out_index;
                }
            }
        }
    });
    return input_grad;
}

} // namespace cdma
