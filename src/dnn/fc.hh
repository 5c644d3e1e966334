/**
 * @file
 * Fully-connected (classifier) layer. Section IV-A observes FC layers
 * exhibit the highest activation sparsity of any layer type; they flatten
 * the incoming (N, C, H, W) volume into (N, features) and apply a dense
 * affine transform.
 */

#ifndef CDMA_DNN_FC_HH
#define CDMA_DNN_FC_HH

#include "common/rng.hh"
#include "dnn/layer.hh"

namespace cdma {

/** Fully-connected layer mapping any input volume to (N, out, 1, 1). */
class FullyConnected : public Layer
{
  public:
    /**
     * @param name Layer instance name.
     * @param in_features Flattened input size (C*H*W).
     * @param out_features Output neuron count.
     * @param rng Weight-initialization stream.
     */
    FullyConnected(std::string name, int64_t in_features,
                   int64_t out_features, Rng &rng);

    std::string type() const override { return "fc"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;
    std::vector<ParamBlob *> params() override;

    uint64_t forwardMacsPerImage(const Shape4D &input) const override
    {
        (void)input;
        return forwardMacs(1);
    }

    /** Multiply-accumulate count for one forward pass with batch @p n. */
    uint64_t forwardMacs(int64_t n) const
    {
        return static_cast<uint64_t>(n) *
            static_cast<uint64_t>(in_features_ * out_features_);
    }

  private:
    int64_t in_features_;
    int64_t out_features_;
    ParamBlob weights_; // [out][in]
    ParamBlob bias_;    // [out]
};

} // namespace cdma

#endif // CDMA_DNN_FC_HH
