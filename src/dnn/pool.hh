/**
 * @file
 * Spatial pooling layers. Section IV-A observes that pooling *increases*
 * activation density ("activation maps always get brighter after going
 * through the pooling layers"): max pooling outputs zero only when every
 * input in the window is zero; average pooling when the window sums to
 * zero. Both are implemented and a unit test checks the densifying
 * property directly.
 */

#ifndef CDMA_DNN_POOL_HH
#define CDMA_DNN_POOL_HH

#include "dnn/layer.hh"

namespace cdma {

/** Pooling flavor. */
enum class PoolMode {
    Max,
    Avg,
};

/** Pooling hyper-parameters. */
struct PoolSpec {
    int64_t kernel = 2;
    int64_t stride = 2;
    PoolMode mode = PoolMode::Max;
};

/** Max/average pooling layer. */
class Pool2D : public Layer
{
  public:
    Pool2D(std::string name, const PoolSpec &spec);

    std::string type() const override { return "pool"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;

    /** Pooling geometry. */
    const PoolSpec &spec() const { return spec_; }

    uint64_t forwardMacsPerImage(const Shape4D &input) const override;

  private:
    PoolSpec spec_;
    // For max pooling: the argmax linear offset per output element.
    std::vector<int64_t> argmax_;
};

} // namespace cdma

#endif // CDMA_DNN_POOL_HH
