/**
 * @file
 * Element-wise activation layers. ReLU is the source of all the sparsity
 * this paper exploits (Section III): it thresholds negative pre-
 * activations to exactly zero, so roughly half or more of every ReLU
 * output is zero-valued.
 */

#ifndef CDMA_DNN_ACTIVATION_HH
#define CDMA_DNN_ACTIVATION_HH

#include "dnn/layer.hh"

namespace cdma {

/**
 * Rectified linear unit: y = max(0, x). Backward gates the gradient on
 * y > 0, the same predicate as x > 0 (NaN and -0.0 map to 0 either way).
 */
class ReLU : public Layer
{
  public:
    explicit ReLU(std::string name);

    std::string type() const override { return "relu"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;
};

/**
 * Sigmoid activation: y = 1 / (1 + exp(-x)). Included for completeness —
 * the paper notes cDMA is *not* effective for sigmoid/tanh RNNs
 * (Section III) because their outputs are never exactly zero; a unit test
 * demonstrates exactly that.
 */
class Sigmoid : public Layer
{
  public:
    explicit Sigmoid(std::string name);

    std::string type() const override { return "sigmoid"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;
};

/** Hyperbolic tangent activation. */
class Tanh : public Layer
{
  public:
    explicit Tanh(std::string name);

    std::string type() const override { return "tanh"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;
};

} // namespace cdma

#endif // CDMA_DNN_ACTIVATION_HH
