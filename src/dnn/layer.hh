/**
 * @file
 * Layer abstraction for the from-scratch CNN training framework. The
 * framework exists to *reproduce the paper's data source*: training runs
 * whose ReLU outputs provide the sparse activation maps that vDNN offloads
 * and cDMA compresses. It implements exactly the layer types the paper's
 * six networks use (Section II-A): convolution, ReLU activation, max/avg
 * pooling, fully-connected, LRN, dropout, softmax loss, and the composite
 * inception/fire modules.
 */

#ifndef CDMA_DNN_LAYER_HH
#define CDMA_DNN_LAYER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/function_ref.hh"
#include "tensor/tensor.hh"

namespace cdma {

/** Hyper-parameters of one optimizer step. */
struct SgdConfig {
    float learning_rate = 0.01f;
    float momentum = 0.9f;
    float weight_decay = 0.0005f;
};

/**
 * One learnable parameter blob with its gradient and momentum buffer.
 * Layers register their blobs so the optimizer update is uniform.
 */
struct ParamBlob {
    std::vector<float> value;
    std::vector<float> grad;
    std::vector<float> momentum;

    explicit ParamBlob(size_t size = 0)
        : value(size, 0.0f), grad(size, 0.0f), momentum(size, 0.0f)
    {
    }

    /** Zero the gradient before accumulating a new minibatch. */
    void clearGrad();

    /** SGD with momentum and L2 weight decay. */
    void apply(const SgdConfig &config);
};

/**
 * Base class for all layers. A layer holds no copy of its input or its
 * output between forward() and backward(): the caller keeps both in its
 * activation stash (Network for the sequential pipeline, ParallelConcat
 * for its branches) and hands them back to backward(). That stash is the
 * memory vDNN exists to relieve. A layer keeps only what its forward
 * pass computes and the two tensors cannot give back: Pool2D's argmax
 * offsets, Dropout's mask and Lrn's per-element factor.
 */
class Layer
{
  public:
    explicit Layer(std::string name);
    virtual ~Layer() = default;

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    /** Layer instance name ("conv1", "pool2", ...). */
    const std::string &name() const { return name_; }

    /** Short type tag ("conv", "relu", "pool", "fc", ...). */
    virtual std::string type() const = 0;

    /** Output shape produced for a given input shape. */
    virtual Shape4D outputShape(const Shape4D &input) const = 0;

    /**
     * Forward propagation. The caller keeps @p input and the returned
     * output for backward(); the layer copies neither.
     */
    virtual Tensor4D forward(const Tensor4D &input) = 0;

    /**
     * Backward propagation: consumes the gradient w.r.t. this layer's
     * output and returns the gradient w.r.t. its input, accumulating
     * parameter gradients along the way. @p input and @p output are the
     * tensors of the matching forward() call. A layer that keeps forward
     * state (pool, dropout, LRN, a composite's branch stash) reads the
     * state of its latest forward(), so that call must be the match.
     */
    virtual Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                              const Tensor4D &output_grad) = 0;

    /** Learnable parameters (empty for ReLU/pool/...). */
    virtual std::vector<ParamBlob *> params() { return {}; }

    /**
     * Forward multiply-accumulate count for a single-image input of the
     * given shape (n is treated as 1). Zero for element-wise layers; the
     * performance model uses this to time described networks.
     */
    virtual uint64_t forwardMacsPerImage(const Shape4D &input) const
    {
        (void)input;
        return 0;
    }

    /**
     * True when this layer's output feeds a ReLU (set by the network
     * builder). The paper only reports activation density for such layers
     * since others are never sparse.
     */
    bool reluFollows() const { return relu_follows_; }

    /** Mark that a ReLU consumes this layer's output. */
    void setReluFollows(bool value) { relu_follows_ = value; }

    /** Switch between training and inference behaviour (dropout). */
    virtual void setTraining(bool training) { training_ = training; }

  protected:
    bool training_ = true;

  private:
    std::string name_;
    bool relu_follows_ = false;
};

using LayerPtr = std::unique_ptr<Layer>;

/**
 * Sample @p n of @p t: its contiguous C x H x W block. The layers run
 * on NCHW tensors and walk them through these pointers.
 */
const float *sampleData(const Tensor4D &t, int64_t n);
float *sampleData(Tensor4D &t, int64_t n);

/**
 * GEMM multiply-adds that take about as long as one element operation
 * (a compare, a multiply-add of a pooling window or an LRN sum): the
 * AVX2 tiles run 16 at a time.
 */
inline constexpr uint64_t kGemmMacsPerOp = 16;

/**
 * Lanes a per-sample pass over @p samples samples runs on: the lanes of
 * ThreadPool::shared(), at most one per sample, or 1 when
 * @p pass_ops, the pass's element operations (GEMM multiply-adds /
 * kGemmMacsPerOp), are too few to pay for a fork-join. A caller sizes
 * its per-lane scratch by this count.
 */
unsigned sampleLanes(int64_t samples, uint64_t pass_ops);

/**
 * Result slots of a forEachSample() with a drain on @p lanes lanes:
 * two per lane, so a lane can work its next sample while the calling
 * thread, itself a lane, has yet to drain its last one.
 */
inline unsigned
sampleSlots(unsigned lanes)
{
    return lanes <= 1 ? 1 : 2 * lanes;
}

/**
 * Run work(n, lane) for every sample n < @p samples across @p lanes
 * lanes (a sampleLanes() count) of ThreadPool::shared(), and drain(n)
 * on the calling thread in sample order, each as soon as sample n and
 * every sample before it has finished its work.
 *
 * - lane < @p lanes: no two works run on one lane at once, so a lane's
 *   scratch block is the running work's alone.
 * - At most sampleSlots(lanes) samples are between claim and drain, so
 *   results sample n leaves for its drain at slot
 *   n % sampleSlots(lanes) are free again when a later sample takes
 *   that slot over.
 *
 * With one lane it runs work(n, 0), drain(n) in turn, inline. Work must
 * touch only its own sample, lane and slot; the pool is not reentrant,
 * so work must not fan out again.
 */
void forEachSample(int64_t samples, unsigned lanes,
                   FunctionRef<void(int64_t, unsigned)> work,
                   FunctionRef<void(int64_t)> drain);

/** forEachSample() for passes whose samples need no ordered drain. */
void forEachSample(int64_t samples, unsigned lanes,
                   FunctionRef<void(int64_t, unsigned)> work);

/**
 * Forward @p input through @p layers in order; @p outputs receives each
 * layer's output (outputs[i] is layer i's), the stash backwardChain()
 * reads.
 */
void forwardChain(std::vector<LayerPtr> &layers, const Tensor4D &input,
                  std::vector<Tensor4D> &outputs);

/**
 * Backward through @p layers from the gradient w.r.t. the last output,
 * passing layer i its input (@p input for layer 0, outputs[i-1] after)
 * and its output from the stash forwardChain() filled. Returns the
 * gradient w.r.t. @p input.
 */
Tensor4D backwardChain(std::vector<LayerPtr> &layers, const Tensor4D &input,
                       const std::vector<Tensor4D> &outputs, Tensor4D grad);

} // namespace cdma

#endif // CDMA_DNN_LAYER_HH
