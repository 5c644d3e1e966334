/**
 * @file
 * Dense fp32 4-D tensor with an explicit physical layout. This is the data
 * structure whose contents the cDMA engine compresses: activation maps of
 * shape (N, C, H, W) stored in NCHW, NHWC or CHWN order.
 */

#ifndef CDMA_TENSOR_TENSOR_HH
#define CDMA_TENSOR_TENSOR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/layout.hh"

namespace cdma {

/**
 * Dense single-precision tensor of logical shape (N, C, H, W) with a
 * selectable physical layout. Element accessors take logical coordinates
 * and translate through the layout, so algorithms can be written once and
 * evaluated under every layout — exactly what the Figure 11 sweep needs.
 */
class Tensor4D
{
  public:
    /** Empty tensor (shape (1,1,1,1), one zero element, NCHW). */
    Tensor4D();

    /**
     * Zero-initialized tensor of the given shape and layout. An extent
     * may be zero (the tensor then holds no elements); none may be
     * negative.
     */
    explicit Tensor4D(const Shape4D &shape, Layout layout = Layout::NCHW);

    /** Logical shape. */
    const Shape4D &shape() const { return shape_; }

    /** Physical layout of the backing storage. */
    Layout layout() const { return layout_; }

    /** Total number of elements. */
    int64_t elements() const { return shape_.elements(); }

    /** Size of the raw buffer in bytes. */
    int64_t bytes() const { return shape_.bytes(); }

    /** Mutable element at logical coordinate (n, c, h, w). */
    float &at(int64_t n, int64_t c, int64_t h, int64_t w);

    /** Const element at logical coordinate (n, c, h, w). */
    float at(int64_t n, int64_t c, int64_t h, int64_t w) const;

    /** Raw linear storage (layout order). */
    std::span<float> data() { return data_; }
    /** Raw linear storage (layout order). */
    std::span<const float> data() const { return data_; }

    /** Raw storage reinterpreted as bytes (what the DMA engine sees). */
    std::span<const uint8_t> rawBytes() const;

    /** Set every element to @p value. */
    void fill(float value);

    /**
     * Return a copy of this tensor converted to @p target layout. Logical
     * contents are identical; only the physical ordering changes.
     */
    Tensor4D toLayout(Layout target) const;

    /**
     * Fraction of non-zero elements (the paper's "activation density",
     * AVGdensity in Section IV-A). Sparsity is 1 - density.
     */
    double density() const;

    /** Number of zero-valued elements. */
    int64_t zeroCount() const;

  private:
    Shape4D shape_;
    Layout layout_;
    std::vector<float> data_;
};

} // namespace cdma

#endif // CDMA_TENSOR_TENSOR_HH
