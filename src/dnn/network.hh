/**
 * @file
 * Sequential network container. Holds the layer pipeline, runs forward and
 * backward propagation layer-by-layer (the execution model vDNN's offload
 * scheduling assumes, Figure 1/2), and exposes per-layer activation
 * density records in the form the paper reports them (Figures 4-7): one
 * record per conv/pool/fc layer, measured after any in-place
 * ReLU/LRN/dropout that follows it.
 *
 * The network is the one activation stash of training: between the passes
 * it holds a copy of the forward input and every layer's output, and
 * backward() hands layer i its input (the stashed input for layer 0,
 * outputs()[i-1] after) and outputs()[i]. Layers keep no copies of their
 * own; those stashed maps are the ones vDNN offloads, with the input copy
 * the first of them.
 */

#ifndef CDMA_DNN_NETWORK_HH
#define CDMA_DNN_NETWORK_HH

#include <string>
#include <vector>

#include "dnn/layer.hh"

namespace cdma {

/** Density measurement for one paper-visible layer. */
struct ActivationRecord {
    std::string label;   ///< producing layer ("conv1", "pool0", "fc2")
    std::string type;    ///< producing layer type
    Shape4D shape;       ///< activation map shape
    double density = 1.0; ///< fraction of non-zero activations
    size_t output_index = 0; ///< index into outputs() of the measured map
    bool relu_sparse = false; ///< fed through a ReLU (can be sparse)
};

/** Sequential layer pipeline that stashes every activation map. */
class Network
{
  public:
    Network() = default;

    /** Append a layer; returns a reference for further configuration. */
    Layer &add(LayerPtr layer);

    /** Number of layers. */
    size_t size() const { return layers_.size(); }

    /** Layer at @p index. */
    Layer &layer(size_t index) { return *layers_.at(index); }
    const Layer &layer(size_t index) const { return *layers_.at(index); }

    /** Shape of the final output for the given input shape. */
    Shape4D outputShape(const Shape4D &input) const;

    /**
     * Forward propagation through every layer, stashing a copy of
     * @p input and each layer's output (outputs()[i] is layer i's output
     * activation map).
     */
    const Tensor4D &forward(const Tensor4D &input);

    /**
     * Backward propagation from the loss gradient, reading every layer's
     * input and output from the stash of the last forward().
     */
    void backward(const Tensor4D &loss_grad);

    /** Apply SGD to every parameter blob, then clear gradients. */
    void step(const SgdConfig &config);

    /** Clear all parameter gradients. */
    void zeroGrads();

    /** Toggle training/inference mode on every layer. */
    void setTraining(bool training);

    /** Per-layer outputs from the last forward() call. */
    const std::vector<Tensor4D> &outputs() const { return outputs_; }

    /**
     * Paper-visible activation records from the last forward() call: one
     * per conv/pool/fc layer, measured after the in-place layers
     * (relu/lrn/dropout) that follow it, exactly as Caffe's in-place
     * execution would leave the blob that vDNN offloads.
     */
    std::vector<ActivationRecord> activationRecords() const;

    /** Total parameter count. */
    uint64_t paramCount() const;

    /** True for layer types that modify their input blob in place. */
    static bool isInPlaceType(const std::string &type);

  private:
    std::vector<LayerPtr> layers_;
    Tensor4D input_; // layer 0's input: the first map vDNN offloads
    std::vector<Tensor4D> outputs_;
};

} // namespace cdma

#endif // CDMA_DNN_NETWORK_HH
