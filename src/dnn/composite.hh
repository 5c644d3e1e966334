/**
 * @file
 * Composite layers built from parallel branches concatenated along the
 * channel dimension: the GoogLeNet inception module and the SqueezeNet
 * fire module are both instances. Keeping the branching inside one layer
 * lets the surrounding Network remain a simple sequential pipeline — the
 * same abstraction vDNN's layer-at-a-time offload scheduling assumes.
 *
 * The module is its branches' activation stash: it keeps the sub-layer
 * outputs of its last forward() and hands them back to the sub-layers in
 * backward(), exactly as Network does for its layers. The module input
 * and output live in the surrounding Network's stash and arrive as
 * backward() arguments. A branch's final output is not kept: it is a
 * channel slice of the module output, and backward() copies it back
 * from there for the span of the call.
 */

#ifndef CDMA_DNN_COMPOSITE_HH
#define CDMA_DNN_COMPOSITE_HH

#include "dnn/layer.hh"

namespace cdma {

/** One branch: a sequential stack of layers applied to the module input. */
using Branch = std::vector<LayerPtr>;

/**
 * Runs each branch on the same input and concatenates the branch outputs
 * along the channel dimension. All branches must produce identical
 * (N, H, W); channel counts may differ.
 */
class ParallelConcat : public Layer
{
  public:
    ParallelConcat(std::string name, std::vector<Branch> branches);

    std::string type() const override { return "concat"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;
    std::vector<ParamBlob *> params() override;
    void setTraining(bool training) override;

    /** Number of parallel branches. */
    size_t branchCount() const { return branches_.size(); }

    uint64_t forwardMacsPerImage(const Shape4D &input) const override;

  private:
    /** Output shape of one branch for a given module input shape. */
    Shape4D branchOutputShape(const Branch &branch,
                              const Shape4D &input) const;

    std::vector<Branch> branches_;
    // branch_outputs_[b][j]: output of sub-layer j of branch b, for every
    // sub-layer but the last.
    std::vector<std::vector<Tensor4D>> branch_outputs_;
};

} // namespace cdma

#endif // CDMA_DNN_COMPOSITE_HH
