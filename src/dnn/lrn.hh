/**
 * @file
 * Local response normalization across channels (Krizhevsky et al.), used
 * by AlexNet and GoogLeNet. Normalizes each activation by a power of the
 * sum of squares in a cross-channel window.
 */

#ifndef CDMA_DNN_LRN_HH
#define CDMA_DNN_LRN_HH

#include "dnn/layer.hh"

namespace cdma {

/** LRN hyper-parameters (AlexNet defaults). */
struct LrnSpec {
    int64_t local_size = 5;
    float alpha = 1e-4f;
    float beta = 0.75f;
    float k = 2.0f;
};

/** Cross-channel local response normalization. */
class Lrn : public Layer
{
  public:
    Lrn(std::string name, const LrnSpec &spec = {});

    std::string type() const override { return "lrn"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;

  private:
    LrnSpec spec_;
    // (k + alpha/n * sum sq)^-beta per element, the factor both passes
    // multiply by.
    Tensor4D cached_factor_;
};

} // namespace cdma

#endif // CDMA_DNN_LRN_HH
