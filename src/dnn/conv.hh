/**
 * @file
 * 2-D convolution layer implemented the way cuDNN's GEMM path works
 * (Section VI references [17]): each sample is lowered into a patch
 * matrix and multiplied by the weights on the shared GEMM kernel
 * (dnn/gemm.hh). The forward pass and the input gradient use the
 * im2col form (one row per patch element; col2im scatters the input
 * gradient back); the weight gradient uses the im2row form (one row
 * per output position), so its sums run across weights. The samples of
 * a batch run on the trainer's lanes (forEachSample(), dnn/layer.hh),
 * and each sample's weight and bias gradients are added in sample
 * order, so the floats do not depend on the lane count.
 */

#ifndef CDMA_DNN_CONV_HH
#define CDMA_DNN_CONV_HH

#include "common/rng.hh"
#include "dnn/layer.hh"

namespace cdma {

/** Convolution hyper-parameters. */
struct ConvSpec {
    int64_t out_channels = 1;
    int64_t kernel = 3;
    int64_t stride = 1;
    int64_t pad = 0;
};

/** Convolutional layer (learnable weights + bias). */
class Conv2D : public Layer
{
  public:
    /**
     * @param name Layer instance name.
     * @param in_channels Input channel count.
     * @param spec Kernel geometry.
     * @param rng Weight-initialization stream (He/MSRA init, the standard
     *        choice for ReLU networks).
     */
    Conv2D(std::string name, int64_t in_channels, const ConvSpec &spec,
           Rng &rng);

    std::string type() const override { return "conv"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;
    std::vector<ParamBlob *> params() override;

    /** Kernel geometry. */
    const ConvSpec &spec() const { return spec_; }

    /** Multiply-accumulate count for one forward pass of @p input. */
    static uint64_t forwardMacs(const Shape4D &input, const ConvSpec &spec);

    uint64_t forwardMacsPerImage(const Shape4D &input) const override;

  private:
    int64_t in_channels_;
    ConvSpec spec_;
    ParamBlob weights_; // [out_c][in_c * k * k]
    ParamBlob bias_;    // [out_c]
};

} // namespace cdma

#endif // CDMA_DNN_CONV_HH
