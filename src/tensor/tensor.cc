#include "tensor/tensor.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace cdma {

Tensor4D::Tensor4D() : Tensor4D(Shape4D{1, 1, 1, 1}, Layout::NCHW)
{
}

Tensor4D::Tensor4D(const Shape4D &shape, Layout layout)
    : shape_(shape), layout_(layout),
      data_(static_cast<size_t>(shape.elements()), 0.0f)
{
    CDMA_ASSERT(shape.n >= 0 && shape.c >= 0 && shape.h >= 0 &&
                    shape.w >= 0,
                "invalid tensor shape %s", shape.str().c_str());
}

float &
Tensor4D::at(int64_t n, int64_t c, int64_t h, int64_t w)
{
    return data_[static_cast<size_t>(
        linearIndex(shape_, layout_, n, c, h, w))];
}

float
Tensor4D::at(int64_t n, int64_t c, int64_t h, int64_t w) const
{
    return data_[static_cast<size_t>(
        linearIndex(shape_, layout_, n, c, h, w))];
}

std::span<const uint8_t>
Tensor4D::rawBytes() const
{
    return {reinterpret_cast<const uint8_t *>(data_.data()),
            data_.size() * sizeof(float)};
}

void
Tensor4D::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Tensor4D
Tensor4D::toLayout(Layout target) const
{
    if (target == layout_) {
        return *this;
    }
    Tensor4D out(shape_, target);
    for (int64_t n = 0; n < shape_.n; ++n) {
        for (int64_t c = 0; c < shape_.c; ++c) {
            for (int64_t h = 0; h < shape_.h; ++h) {
                for (int64_t w = 0; w < shape_.w; ++w) {
                    out.at(n, c, h, w) = at(n, c, h, w);
                }
            }
        }
    }
    return out;
}

double
Tensor4D::density() const
{
    if (data_.empty())
        return 0.0;
    return 1.0 - static_cast<double>(zeroCount()) /
        static_cast<double>(data_.size());
}

int64_t
Tensor4D::zeroCount() const
{
    int64_t zeros = 0;
    for (float v : data_) {
        if (v == 0.0f)
            ++zeros;
    }
    return zeros;
}

} // namespace cdma
