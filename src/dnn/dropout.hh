/**
 * @file
 * Dropout regularization (Srivastava et al.), used by the paper's training
 * methodology: "Dropout is employed for the fully-connected layers with a
 * rate of 0.5" (Section VI). Inverted-dropout scaling keeps inference a
 * no-op.
 */

#ifndef CDMA_DNN_DROPOUT_HH
#define CDMA_DNN_DROPOUT_HH

#include "common/rng.hh"
#include "dnn/layer.hh"

namespace cdma {

/** Inverted dropout layer. */
class Dropout : public Layer
{
  public:
    /**
     * @param name Layer instance name.
     * @param rate Probability of zeroing an activation (0.5 in the paper).
     * @param rng Mask-generation stream.
     */
    Dropout(std::string name, float rate, Rng &rng);

    std::string type() const override { return "dropout"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;

  private:
    float rate_;
    Rng rng_;
    std::vector<uint8_t> mask_;
};

} // namespace cdma

#endif // CDMA_DNN_DROPOUT_HH
