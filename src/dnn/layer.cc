#include "dnn/layer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace cdma {

namespace {

/**
 * Passes of fewer element operations stay inline. On a 4-vCPU Xeon a
 * fork-join across the lanes costs 15-30 us; timed per pass on the six
 * scaled networks at batches 4, 8 and 16, fanning out lost below about
 * 35 us of serial work and won above it, and this cut-off (about 30 us
 * at ~2 ns per element operation) came within 0.3% of choosing each
 * pass's faster side (docs/performance.md, "Trainer kernels").
 */
constexpr uint64_t kFanOutOps = 16384;

} // namespace

void
ParamBlob::clearGrad()
{
    std::fill(grad.begin(), grad.end(), 0.0f);
}

void
ParamBlob::apply(const SgdConfig &config)
{
    for (size_t i = 0; i < value.size(); ++i) {
        const float g = grad[i] + config.weight_decay * value[i];
        momentum[i] = config.momentum * momentum[i] -
            config.learning_rate * g;
        value[i] += momentum[i];
    }
}

Layer::Layer(std::string name) : name_(std::move(name))
{
}

const float *
sampleData(const Tensor4D &t, int64_t n)
{
    CDMA_ASSERT(t.layout() == Layout::NCHW,
                "layers run on NCHW tensors, got %s",
                layoutName(t.layout()).c_str());
    const Shape4D &s = t.shape();
    return t.data().data() + n * s.c * s.h * s.w;
}

float *
sampleData(Tensor4D &t, int64_t n)
{
    return const_cast<float *>(
        sampleData(static_cast<const Tensor4D &>(t), n));
}

unsigned
sampleLanes(int64_t samples, uint64_t pass_ops)
{
    if (samples < 2 || pass_ops < kFanOutOps)
        return 1;
    return static_cast<unsigned>(std::min<uint64_t>(
        ThreadPool::shared().lanes(), static_cast<uint64_t>(samples)));
}

void
forEachSample(int64_t samples, unsigned lanes,
              FunctionRef<void(int64_t, unsigned)> work,
              FunctionRef<void(int64_t)> drain)
{
    if (lanes <= 1) {
        for (int64_t n = 0; n < samples; ++n) {
            work(n, 0);
            drain(n);
        }
        return;
    }
    // The pool numbers its running lanes below min(its lanes, samples,
    // window), and sampleLanes() returns the smaller of the first two.
    ThreadPool &pool = ThreadPool::shared();
    CDMA_ASSERT(lanes >= std::min<uint64_t>(pool.lanes(),
                                            static_cast<uint64_t>(samples)),
                "forEachSample takes a sampleLanes() count, got %u", lanes);
    pool.orderedFanOut(
        static_cast<uint64_t>(samples),
        [&](uint64_t n, unsigned lane) {
            work(static_cast<int64_t>(n), lane);
        },
        [&](uint64_t n) {
            drain(static_cast<int64_t>(n));
            return true;
        },
        sampleSlots(lanes));
}

void
forEachSample(int64_t samples, unsigned lanes,
              FunctionRef<void(int64_t, unsigned)> work)
{
    forEachSample(samples, lanes, work, [](int64_t) {});
}

void
forwardChain(std::vector<LayerPtr> &layers, const Tensor4D &input,
             std::vector<Tensor4D> &outputs)
{
    outputs.clear();
    outputs.reserve(layers.size());
    const Tensor4D *current = &input;
    for (auto &layer : layers) {
        outputs.push_back(layer->forward(*current));
        current = &outputs.back();
    }
}

Tensor4D
backwardChain(std::vector<LayerPtr> &layers, const Tensor4D &input,
              const std::vector<Tensor4D> &outputs, Tensor4D grad)
{
    for (size_t i = layers.size(); i-- > 0;)
        grad = layers[i]->backward(i == 0 ? input : outputs[i - 1],
                                   outputs[i], grad);
    return grad;
}

} // namespace cdma
