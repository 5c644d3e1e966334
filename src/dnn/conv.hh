/**
 * @file
 * 2-D convolution layer implemented the way cuDNN's GEMM path works
 * (Section VI references [17]): im2col lowering followed by a dense
 * matrix multiply. The same lowering is reused for the backward data and
 * weight gradients.
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
    /** Lower one sample into a (C*K*K) x (Hout*Wout) column matrix. */
    void im2col(const Tensor4D &input, int64_t sample,
                std::vector<float> &columns) const;

    /** Scatter a column matrix back into a padded gradient image. */
    void col2im(const std::vector<float> &columns, int64_t sample,
                Tensor4D &input_grad) const;

    int64_t in_channels_;
    ConvSpec spec_;
    ParamBlob weights_; // [out_c][in_c * k * k]
    ParamBlob bias_;    // [out_c]
};

} // namespace cdma

#endif // CDMA_DNN_CONV_HH
